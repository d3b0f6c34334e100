import json
import random
from math import gcd

import pytest
from corpus import mirror, random_hulls
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import box_scan_points, pick_genus

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


coordinates = st.integers(-12, 12)


@st.composite
def sliver_points(draw):
    # points within one unit above the line y = p x / q: thin hulls
    p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 6))
    xs = draw(st.lists(coordinates, min_size=3, max_size=9))
    return [(x, (p * x) // q + i % 2) for i, x in enumerate(xs)]


hull_points = st.one_of(
    st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=9),
    sliver_points())


def hull_or_reject(points):
    try:
        return convex_hull(points)
    except LatticeError:
        assume(False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(hull_points)
@example([(-12, -12), (12, 11), (11, 10)])  # a sliver
@example([(-12, 12), (12, -12), (12, -11)])  # a sliver with a vertical edge
@example([(-5, -7), (-5, 3), (4, -2), (4, 9)])  # two vertical edges
@example([(0, 0), (1, 0), (0, 1)])  # no lattice point inside
def test_row_scan_matches_the_box_scan(points):
    P = hull_or_reject(points)
    for strict in (False, True):
        assert P._scan(strict) == box_scan_points(P, strict)
    # Pick's theorem splits the lattice points into interior and boundary
    boundary = sum(gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in P.edges())
    assert len(P.lattice_points()) == pick_genus(P) + boundary


@st.composite
def unimodular_maps(draw, det):
    """An affine map with linear part of determinant ``det``: a product of
    shears, after a mirror when ``det`` is -1, and a sign."""
    lin = ((0, 1), (1, 0)) if det == -1 else ((1, 0), (0, 1))
    for k in range(draw(st.integers(0, 4))):
        s = draw(st.integers(-3, 3))
        (a, b), (c, d) = lin
        lin = ((a + s * c, b + s * d), (c, d)) if k % 2 else ((a, b), (c + s * a, d + s * b))
    sign = draw(st.sampled_from((1, -1)))
    lin = tuple(tuple(sign * x for x in row) for row in lin)
    m = UnimodularMap(lin, draw(st.tuples(coordinates, coordinates)))
    (a, b), (c, d) = m.lin
    assert a * d - b * c == det
    return m


@pytest.mark.parametrize("det", [1, -1])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(hull_points, st.data())
def test_images_carry_exactly_the_facts_their_polygon_found(det, points, data):
    P = hull_or_reject(points)
    m = data.draw(unimodular_maps(det))
    fresh = Polygon(tuple(m.apply(v) for v in P.vertices))
    lazy = m.apply_polygon(P)  # P has found nothing yet, so nothing is carried
    assert lazy._interior is None and lazy._adjoint is None
    adjoint(P)
    carried = m.apply_polygon(P)
    assert carried._interior is not None and carried._adjoint is not None
    for Q in (lazy, carried):
        assert Q.vertices == fresh.vertices
        assert Q.interior_points() == fresh.interior_points()
        assert adjoint(Q) == adjoint(fresh)


def least_built_image(P):
    """canonical_form by building the image at every adjoint corner and
    keeping the one with the least vertex tuple."""
    best = None
    for kappa in adjoint(P).polygon.vertices:
        m = kappa_standard_embedding(P, kappa)
        Q = Polygon(tuple(m.apply(v) for v in P.vertices))
        if best is None or Q.vertices < best[0].vertices:
            best = (Q, m)
    return best


def test_canonical_form_is_the_least_built_image():
    compared = 0
    for P in random_hulls():
        for R in (P, mirror(P)):
            if adjoint(R).kind != "polygon":
                continue
            try:
                expected, m = least_built_image(R)
            except NoUnimodularNormalization:
                with pytest.raises(NoUnimodularNormalization):
                    canonical_form(R)
                continue
            Q, used = canonical_form(R)
            assert Q.vertices == expected.vertices and used == m
            assert Q.interior_points() == expected.interior_points()
            assert adjoint(Q) == adjoint(expected)
            compared += 1
    assert compared > 900


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
