"""Verdict layer: the full pipeline, refusals, and vanishing-cycle answers."""

import json

from vanishingcycles.lattice import Polygon
from vanishingcycles.network import build_network
from vanishingcycles.spin import MarkedCurve, canonical_spin, marked_network_curve
from vanishingcycles.surface import inflate
from vanishingcycles.verify import (
    GatesNotPassed,
    check_networkgenset,
    classify,
    is_vanishing_cycle,
)

T6 = Polygon(((0, 0), (6, 0), (0, 6)))
report = check_networkgenset(T6)
print("side-6 triangle report:")
print(json.dumps(report.to_json(), indent=2, ensure_ascii=False))

print("\nverdicts:")
for name, verts in (("side-6 triangle", ((0, 0), (6, 0), (0, 6))),
                    ("side-4 square", ((0, 0), (4, 0), (4, 4), (0, 4)))):
    print(f"  {name}: {classify(Polygon(verts))}")

for name, verts in (("side-4 triangle (genus 3)", ((0, 0), (4, 0), (0, 4))),
                    ("4 x 2 rectangle (hyperelliptic)",
                     ((0, 0), (4, 0), (4, 2), (0, 2)))):
    try:
        classify(Polygon(verts))
    except GatesNotPassed as exc:
        print(f"  {name}: refused — {exc}")

net = build_network(T6)
S = inflate(net)
spin = canonical_spin(S)
first = marked_network_curve(S, spin, net.curve_list()[0])
print("\nvanishing-cycle decisions on the side-6 triangle:")
print(f"  a network curve:            "
      f"{is_vanishing_cycle(first, report)}")
shifted = MarkedCurve(first.h, first.phi + 1, first.r)
print(f"  same class, nonzero value:  "
      f"{is_vanishing_cycle(shifted, report)}")
doubled = MarkedCurve(tuple(2 * x for x in first.h), 0, first.r)
print(f"  doubled (even) class:       "
      f"{is_vanishing_cycle(doubled, report)}")
