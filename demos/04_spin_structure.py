"""Spin layer: the invariant structure, admissibility, and twist tracking."""

from vanishingcycles.lattice import Polygon
from vanishingcycles.network import build_network
from vanishingcycles.spin import (
    arf,
    canonical_spin,
    is_admissible,
    marked_network_curve,
    q2,
    twist,
)
from vanishingcycles.surface import inflate

for verts in (((0, 0), (6, 0), (0, 6)), ((0, 0), (4, 0), (4, 4), (0, 4))):
    P = Polygon(verts)
    net = build_network(P)
    S = inflate(net)
    spin = canonical_spin(S)
    marked = [marked_network_curve(S, spin, c) for c in net.curve_list()]

    print(f"polygon {list(verts)}: modulus {spin.r}")
    print(f"  all {len(marked)} network curves admissible: "
          f"{all(is_admissible(m) for m in marked)}")
    if spin.r % 2 == 0:
        form = q2(spin)
        print(f"  mod-2 shadow takes value 1 on every network class: "
              f"{all(form.evaluate(m.h) == 1 for m in marked)}")
        print(f"  Arf invariant: {arf(spin)}")

    image = twist(marked[0], marked[1])
    print(f"  twist image of the first curve: value {image.phi}, "
          f"admissible {is_admissible(image)}")
    print()
