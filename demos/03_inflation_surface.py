"""Surface layer: the doubled surface, its faces, and the symplectic form."""

from vanishingcycles.lattice import Polygon, genus
from vanishingcycles.network import ACurve, build_network
from vanishingcycles.surface import (
    curve_class,
    homology_basis,
    inflate,
    is_filling,
)

P = Polygon(((0, 0), (6, 0), (0, 6)))
net = build_network(P)
S = inflate(net)

print(f"ribbon surface: Euler characteristic {S.euler()}, {len(S.faces)} faces, "
      f"genus {S.genus()} (lattice genus {genus(P)})")
print(f"network fills the surface: {is_filling(net)}")

form = homology_basis(S)
print(f"homology basis of rank {2 * form.genus} from {len(form.chords)} curves; "
      f"the first pair as curve combinations:")
for name, b in zip(("x1", "y1"), form.basis):
    terms = " + ".join(f"{v}*{form.chords[i]}" for i, v in sorted(b.items()))
    print(f"  {name} = {terms}")

a = ACurve((0, 1))
print(f"\nclass of the circle at (0, 1): {curve_class(S, a)}")
print(f"  its nonzero coordinates: {form.classes[a]}")
for b in net.b_curves()[:3]:
    print(f"class of {b}: {curve_class(S, b)}")
