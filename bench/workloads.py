"""Inputs and output checks for the three benchmark workloads.

Each workload is a list of items built from a seeded ``random.Random``; an
item names the public function it calls by module and attribute, so that a
function wrapped by the tracer is picked up at call time.  The checks never
consult the program: genus, modulus, gates and group orders are recomputed
here from the untransformed input or from closed forms.

* ``pipeline-large`` -- canonical families with g = 15..21, each fed as two
  seeded GL2(Z) images plus a translation, one of each determinant.  Larger
  ones are left out for cost, since a run must hold whole passes: the side-6
  square (g = 25, 4-7 s), the side-9 (g = 28, 5-8 s), side-10 (g = 36,
  12-15 s), side-12 (g = 55, 73 s) and side-14 (g = 78, 254 s) triangles.
* ``census-small`` -- a fixed corpus of convex hulls of 3..7 random points in
  the box [0,4]^2, drawn once from ``CENSUS_CORPUS_SEED``; every pass feeds
  each hull as two fresh seeded unimodular images, one of each determinant,
  so every seed does the same work on different coordinates.
* ``model-relations`` -- D_n and chain relations at fixed moduli on seeded
  signed handle permutations of the model configurations, the next-lemma
  closures, the genus-3 stabilizers of a seeded form of each Arf value and
  the orbit censuses.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional

from vanishingcycles.lattice import Polygon
from vanishingcycles.spin import QuadraticFormZ2
from vanishingcycles.symp import model_chain, model_dn
from vanishingcycles.verify import EVEN_VERDICT, ODD_VERDICT

WORKLOADS = ("pipeline-large", "census-small", "model-relations")

# The tail is a fixed percentile per workload, so that it does not jump from
# one item to another between runs that hold different numbers of passes.
# A census run holds 1500 or more samples and a model run 250 or more, so
# more than ten lie beyond; a pipeline run holds only 16-24 verdicts of
# 1-3 s, too few for any tail with ten beyond, and its p90 is the slowest
# families.
TAIL_PERCENTILE = {"pipeline-large": 90, "census-small": 97, "model-relations": 95}

CENSUS_CORPUS_SEED = 1
CENSUS_SIZE = 150

# (label, vertices, closed-form genus, closed-form adjoint divisibility)
PIPELINE_FAMILIES = tuple(
    [(f"triangle-{d}", ((0, 0), (d, 0), (0, d)), (d - 1) * (d - 2) // 2, d - 3)
     for d in (7, 8)]
    + [(f"square-{n}", ((0, 0), (n, 0), (n, n), (0, n)), (n - 1) ** 2, n - 2)
       for n in (5,)]
    + [("rectangle-7x4", ((0, 0), (7, 0), (7, 4), (0, 4)), 18, 1)])


@dataclass
class Item:
    """One call into the program and the check of its result."""

    label: str
    module: str
    function: str
    args: tuple
    check: Callable[[object], list]

    def call(self):
        mod = importlib.import_module(f"vanishingcycles.{self.module}")
        return getattr(mod, self.function)(*self.args)


# --- lattice facts computed without the program ---------------------------------

def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points) -> list:
    """Counterclockwise strict hull vertices (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(reversed(pts))


def interior_points(vertices) -> list:
    """Lattice points strictly inside a counterclockwise convex polygon."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    n = len(vertices)
    return [(x, y)
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
            if all(_cross(vertices[i], vertices[(i + 1) % n], (x, y)) > 0
                   for i in range(n))]


def adjoint_modulus(vertices) -> Optional[int]:
    """Divisibility of the interior hull, or None when it is not 2-D."""
    inner = hull(interior_points(vertices))
    if len(inner) < 3:
        return None
    x0, y0 = inner[0]
    d = 0
    for x, y in inner[1:]:
        d = gcd(d, gcd(x - x0, y - y0))
    return d


def gates_pass(g: int, r: int) -> bool:
    """The paper's numerical window: r | 2g-2, r < g-1, g >= 5, and for even
    r = 2d the genus threshold k*d + 1 with k = 6, 5, 2 for d = 2, 4, other."""
    if (2 * g - 2) % r or not r < g - 1 or g < 5:
        return False
    if r % 2:
        return True
    d = r // 2
    k = 6 if d == 2 else 5 if d == 4 else 2
    return g >= k * d + 1


def orthogonal_order(g: int, arf: int) -> int:
    """Order of O^(+/-)(2g, 2), the stabilizer of a mod-2 form of Arf ``arf``."""
    eps = -1 if arf else 1
    order = 2 * 2 ** (g * (g - 1)) * (2 ** g - eps)
    for i in range(1, g):
        order *= 4 ** i - 1
    return order


def orbit_census(g: int) -> dict:
    """Number of mod-2 forms of each Arf invariant in genus ``g``."""
    return {0: 2 ** (g - 1) * (2 ** g + 1), 1: 2 ** (g - 1) * (2 ** g - 1)}


# --- report checks ----------------------------------------------------------------

def report_problems(report, g: int, r: Optional[int], must_classify: bool) -> list:
    """Ways in which a verification report disagrees with the lattice facts."""
    problems = []
    if report.g != g:
        problems.append(f"g = {report.g}, interior count gives {g}")
    if report.r != r:
        problems.append(f"r = {report.r}, adjoint divisibility gives {r}")
    verdict = report.classification
    if verdict is None:
        if must_classify:
            problems.append("no classification")
        return problems
    if r is None or not gates_pass(g, r):
        problems.append("classified outside the gates")
    elif verdict != (ODD_VERDICT if r % 2 else EVEN_VERDICT):
        problems.append(f"verdict does not match the parity of r = {r}")
    return problems


def _verdict_item(label, vertices, g, r, must_classify, rng, det=None) -> Item:
    image = Polygon(tuple(_unimodular_image(vertices, rng, det)))
    return Item(label, "verify", "check_networkgenset", (image,),
                lambda rep: report_problems(rep, g, r, must_classify))


def _unimodular_image(vertices, rng, det=None):
    """A seeded image under an integer matrix with entries in [-1, 1] and
    determinant +-1 (``det`` when given), plus a translation."""
    while True:
        a, b, c, d = (rng.randint(-1, 1) for _ in range(4))
        if a * d - b * c in ((det,) if det else (1, -1)):
            break
    tx, ty = rng.randint(-9, 9), rng.randint(-9, 9)
    return [(a * x + b * y + tx, c * x + d * y + ty) for x, y in vertices]


# --- workloads --------------------------------------------------------------------

def pipeline_large(rng) -> list:
    # each family once in each orientation, as in census-small
    return [_verdict_item(f"{label}{'+' if det > 0 else '-'}", vertices, g, r,
                          True, rng, det)
            for label, vertices, g, r in PIPELINE_FAMILIES for det in (1, -1)]


def census_corpus() -> list:
    """(vertices, g, r) of the fixed census corpus."""
    rng = random.Random(CENSUS_CORPUS_SEED)
    corpus = []
    while len(corpus) < CENSUS_SIZE:
        k = rng.randint(3, 7)
        vertices = hull([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(k)])
        if len(vertices) >= 3:
            corpus.append((vertices, len(interior_points(vertices)),
                           adjoint_modulus(vertices)))
    return corpus


class CensusSmall:
    def __init__(self):
        self.corpus = census_corpus()

    def __call__(self, rng) -> list:
        # every hull once in each orientation: the work of a verdict depends
        # on it, since canonical_form only identifies images of determinant +1
        return [_verdict_item(f"hull-{i}{'+' if det > 0 else '-'}", vertices, g, r,
                              False, rng, det)
                for i, (vertices, g, r) in enumerate(self.corpus) for det in (1, -1)]


# the four rotations of a handle, (x, y) -> ..., all in SL2(Z)
_HANDLE_ROTATIONS = (lambda x, y: (x, y), lambda x, y: (y, -x),
                     lambda x, y: (-x, -y), lambda x, y: (-y, x))


def _symplectic_image(curves, rng):
    """The curves under a seeded symplectic map that permutes the handles and
    rotates each one; it keeps every vector's number of nonzero entries, so
    the work of a relation check does not depend on the seed."""
    handles = len(curves[0][0].h) // 2
    order = rng.sample(range(handles), handles)
    turns = [rng.choice(_HANDLE_ROTATIONS) for _ in range(handles)]

    def move(c):
        h = [0] * (2 * handles)
        for i, j in enumerate(order):
            h[2 * j], h[2 * j + 1] = turns[i](c.h[2 * i], c.h[2 * i + 1])
        return type(c)(tuple(h), c.phi, c.r)

    return [tuple(move(c) for c in group) for group in curves]


def _expect(want) -> Callable[[object], list]:
    return lambda got: [] if got == want else [f"returned {got!r}, want {want!r}"]


def _form_of_arf(arf: int, rng) -> QuadraticFormZ2:
    while True:
        values = tuple(rng.randint(0, 1) for _ in range(6))
        q = QuadraticFormZ2(values)
        if q.arf() == arf:
            return q


MODULI = (2, 3, 4, 6)


def model_relations(rng) -> list:
    # the moduli are fixed per item, so that every pass does the same work;
    # chains are cheap, so every pass checks them at every modulus
    items = []
    for n in range(3, 22):
        r = MODULI[n % len(MODULI)]
        config, boundary = _symplectic_image(model_dn(n, r), rng)
        items.append(Item(f"dn-{n}-r{r}", "symp", "verify_dn", (config, boundary),
                          _expect(True)))
    for r in MODULI:
        for n in range(2, 11):
            chain, boundary = _symplectic_image(model_chain(n, r), rng)
            items.append(Item(f"chain-{n}-r{r}", "symp", "verify_chain",
                              (chain, boundary), _expect(True)))
    for g in (5, 6):
        for parity in (0, 1):
            items.append(Item(f"next-closure-{g}-{parity}", "wedge",
                              "lemma_next_closure", (g, parity), _expect(True)))
    for arf in (0, 1):
        items.append(Item(f"stabilizer-3-arf{arf}", "symp",
                          "sp_q_stabilizer_bruteforce", (3, _form_of_arf(arf, rng)),
                          _expect((orthogonal_order(3, arf), True))))
    for g in (1, 2, 3):
        items.append(Item(f"orbits-{g}", "symp", "quadratic_form_orbits", (g,),
                          _expect(orbit_census(g))))
    return items


def pass_factory(name: str) -> Callable[[random.Random], list]:
    """The generator of one pass of ``name``'s items from a seeded stream."""
    if name == "pipeline-large":
        return pipeline_large
    if name == "census-small":
        return CensusSmall()
    if name == "model-relations":
        return model_relations
    raise ValueError(f"unknown workload {name!r}")

