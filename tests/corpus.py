"""A fixed corpus of random lattice polygons, and a digest of their reports.

``random_hulls`` draws hulls from ``random.Random(1)``: each draw is
``k = randint(3, 8)`` points in [0, 8]^2, draws that raise ``LatticeError``
(collinear or too few distinct points) are skipped, and the first 1500 hulls
are kept.  The corpus mixes every outcome of the pipeline: gated verdicts,
polygons outside the gates, degenerate adjoints and raises.

Run from the root of a checkout to print the SHA-256 of every report over
the corpus, each hull followed by its mirror (x, y) -> (y, x):

    python3 tests/corpus.py

A report contributes ``report_json`` followed by ``to_text()``; a polygon
whose verdict raises contributes the exception's class name.  Two checkouts
that print the same digest produce the same reports on the corpus.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vanishingcycles.lattice import LatticeError, Polygon, convex_hull  # noqa: E402
from vanishingcycles.verify import check_networkgenset, report_json  # noqa: E402

SIZE = 1500


def random_hulls() -> list:
    rng = random.Random(1)
    hulls = []
    while len(hulls) < SIZE:
        k = rng.randint(3, 8)
        points = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(k)]
        try:
            hulls.append(convex_hull(points))
        except LatticeError:
            continue
    return hulls


def mirror(P: Polygon) -> Polygon:
    return Polygon(tuple((y, x) for x, y in P.vertices))


def report_digest(polygons) -> str:
    digest = hashlib.sha256()
    for P in polygons:
        try:
            text = report_json(P) + check_networkgenset(P).to_text()
        except ValueError as exc:  # the library's errors; part of the outcome
            text = type(exc).__name__
        digest.update(text.encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(report_digest(Q for P in random_hulls() for Q in (P, mirror(P))))
