import json
import random
from math import gcd

import pytest
from oracles import pick_genus

from vanishingcycles.lattice import (
    Polygon,
    Segment,
    Adjoint,
    CollinearInput,
    TooFewPoints,
    DegenerateDimension,
    EmptyAdjoint,
    NotAVertex,
    NoUnimodularNormalization,
    LatticeError,
    convex_hull,
    genus,
    adjoint,
    divisibility,
    adjoint_divisibility,
    is_hyperelliptic,
    is_smooth,
    UnimodularMap,
    kappa_standard_embedding,
    canonical_form,
    polygon_to_json,
    polygon_from_json,
    primitive,
    line_meets_open_segment,
)


TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))


def random_unimodular(rng, bound=3):
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c in (1, -1):
            t = (rng.randint(-5, 5), rng.randint(-5, 5))
            return UnimodularMap(((a, b), (c, d)), t)


def test_polygon_canonical_storage():
    p1 = Polygon(((6, 0), (0, 6), (0, 0)))
    p2 = Polygon(((0, 0), (0, 6), (6, 0)))  # given clockwise
    assert p1.vertices == ((0, 0), (6, 0), (0, 6))
    assert p2.vertices == ((0, 0), (6, 0), (0, 6))


def test_polygon_rejects_bad_input():
    with pytest.raises(TooFewPoints):
        Polygon(((0, 0), (1, 0)))
    with pytest.raises(CollinearInput):
        Polygon(((0, 0), (1, 0), (2, 0), (0, 1)))
    with pytest.raises(LatticeError):
        Polygon(((0, 0), (1, 0), (1, 0), (0, 1)))


@pytest.mark.parametrize("x", [6.9, 6.0, "6", True])
def test_python_input_takes_only_integer_coordinates(x):
    # one rule for Python and JSON input: a coordinate is refused, not
    # rounded or converted, unless it is an int that is not a bool
    for build in (Polygon, convex_hull):
        with pytest.raises(LatticeError, match="expected a pair of integers"):
            build(((0, 0), (x, 0), (0, 6)))
        with pytest.raises(LatticeError, match="expected a pair of integers"):
            build(((0, 0), (6, 0), (0, x)))


def test_convex_hull_matches_known():
    pts = [(0, 0), (3, 0), (0, 3), (1, 1), (2, 0), (0, 2), (1, 2)]
    h = convex_hull(pts)
    assert h.vertices == ((0, 0), (3, 0), (0, 3))
    with pytest.raises(CollinearInput):
        convex_hull([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(TooFewPoints):
        convex_hull([(0, 0), (1, 1)])


def test_genus_against_pick_oracle():
    rng = random.Random(2024)
    n_ok = 0
    while n_ok < 100:
        pts = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(rng.randint(3, 12))]
        try:
            h = convex_hull(pts)
        except LatticeError:
            continue
        assert genus(h) == pick_genus(h)
        n_ok += 1


def test_genus_unimodular_invariance():
    rng = random.Random(77)
    for _ in range(50):
        m = random_unimodular(rng)
        q = m.apply_polygon(TRIANGLE6)
        assert genus(q) == genus(TRIANGLE6) == 10
        assert adjoint_divisibility(q) == 3


def test_adjoint_of_side6_triangle():
    adj = adjoint(TRIANGLE6)
    assert adj.kind == "polygon"
    assert adj.polygon.vertices == ((1, 1), (4, 1), (1, 4))
    assert divisibility(adj.polygon) == 3
    assert adjoint_divisibility(TRIANGLE6) == 3


def test_adjoint_dimension_tags():
    # unit triangle: no interior points
    assert adjoint(Polygon(((0, 0), (1, 0), (0, 1)))).kind == "empty"
    # single interior point
    a1 = adjoint(Polygon(((0, 0), (3, 0), (0, 3))))
    assert a1.kind == "point" and a1.point == (1, 1)
    # hyperelliptic strip: interior points on a line
    a2 = adjoint(Polygon(((0, 0), (6, 0), (0, 2))))
    assert a2.kind == "segment"
    assert a2.segment_ends == ((1, 1), (2, 1))
    (ax, ay), (bx, by) = a2.segment_ends
    assert gcd(bx - ax, by - ay) == 1
    a3 = adjoint(Polygon(((0, 0), (8, 0), (8, 1), (0, 1))))
    assert a3.kind == "empty"


def test_hyperelliptic_detection():
    assert is_hyperelliptic(Polygon(((0, 0), (6, 0), (0, 2)))) is True
    assert is_hyperelliptic(TRIANGLE6) is False
    assert is_hyperelliptic(Polygon(((0, 0), (3, 0), (0, 3)))) is False
    with pytest.raises(EmptyAdjoint):
        is_hyperelliptic(Polygon(((0, 0), (1, 0), (0, 1))))


def test_divisibility_errors_on_segment_adjoint():
    with pytest.raises(DegenerateDimension):
        adjoint_divisibility(Polygon(((0, 0), (6, 0), (0, 2))))


def test_unimodular_map_roundtrip():
    with pytest.raises(LatticeError):
        UnimodularMap(((2, 0), (0, 1)))


def test_kappa_standard_embedding():
    m = kappa_standard_embedding(TRIANGLE6, (1, 1))
    q = m.apply_polygon(TRIANGLE6)
    adj = adjoint(q)
    assert m.apply((1, 1)) == (0, 0)
    assert (0, 0) in adj.polygon.vertices
    # adjoint edges at the corner go along the positive axes
    vs = adj.polygon.vertices
    i = vs.index((0, 0))
    nxt = vs[(i + 1) % len(vs)]
    prv = vs[(i - 1) % len(vs)]
    assert primitive(nxt) == (1, 0)
    assert primitive(prv) == (0, 1)
    with pytest.raises(NotAVertex):
        kappa_standard_embedding(TRIANGLE6, (2, 2))


def test_canonical_form_is_unimodular_invariant():
    rng = random.Random(99)
    base, _ = canonical_form(TRIANGLE6)
    for _ in range(30):
        m = random_unimodular(rng)
        q = m.apply_polygon(TRIANGLE6)
        canon, used = canonical_form(q)
        assert canon.vertices == base.vertices
        assert used.apply_polygon(q).vertices == canon.vertices


def test_canonical_form_needs_polygon_adjoint():
    with pytest.raises(DegenerateDimension):
        canonical_form(Polygon(((0, 0), (6, 0), (0, 2))))


def test_smoothness():
    assert is_smooth(TRIANGLE6)
    assert is_smooth(Polygon(((0, 0), (1, 0), (0, 1))))
    # cone at (0,0) spanned by (1,2) and (2,1) has det -3
    assert not is_smooth(Polygon(((0, 0), (2, 1), (1, 2))))


def test_non_smooth_corner_raises_in_normalization():
    p = Polygon(((0, 0), (5, 0), (8, 3), (3, 8), (0, 5)))
    adj = adjoint(p)
    assert adj.kind == "polygon"
    bad = []
    for v in adj.polygon.vertices:
        try:
            kappa_standard_embedding(p, v)
        except NoUnimodularNormalization:
            bad.append(v)
    assert bad  # at least one corner of this adjoint is singular


def test_segment_normalization_and_errors():
    s = Segment((2, 3), (1, 1))
    assert s.a == (1, 1) and s.b == (2, 3)
    assert s.other((1, 1)) == (2, 3)
    # primitivity is what makes distinct network segments transverse: two
    # of them share no subsegment and hold no lattice point inside
    for a, b in (((0, 0), (2, 2)), ((0, 0), (2, 0)), ((1, 1), (1, 1))):
        with pytest.raises(LatticeError):
            Segment(a, b)


def test_line_meets_open_segment():
    seg = Segment((-1, 1), (0, 1))
    # vertical line through the origin misses the open segment (-1,1)-(0,1)
    assert not line_meets_open_segment((0, 0), (0, 1), seg)
    # but the line through (0,0) with direction (-1,3) crosses it
    assert line_meets_open_segment((0, 0), (-1, 3), seg)


def test_json_roundtrip():
    blob = json.dumps(polygon_to_json(TRIANGLE6))
    q = polygon_from_json(json.loads(blob))
    assert q == TRIANGLE6
    with pytest.raises(LatticeError):
        polygon_from_json({"verts": []})
