import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import NotArboreal, spanning_tree_correspondence, valid_b_segment
from ribbon_oracle import Arc, curve_arcs, curve_crossings

from vanishingcycles.lattice import (
    IDENTITY_MAP,
    LatticeError,
    NoUnimodularNormalization,
    Polygon,
    Segment,
    adjoint,
    convex_hull,
    kappa_standard_embedding,
)
from vanishingcycles.network import (
    ACurve,
    BCurve,
    ConfigurationUnavailable,
    DegenerateAdjoint,
    IntersectionGraph,
    MissingCurve,
    Network,
    NetworkError,
    UnsupportedPair,
    build_network,
    check_network_invariants,
    curve_sort_key,
    dn_configuration,
    geometric_intersection,
    graph_stats,
    intersection_graph,
    network_from_json,
    network_to_json,
    subnetwork_nprime,
)
from vanishingcycles.spin import SpinError, canonical_spin
from vanishingcycles.surface import (
    SurfaceError,
    _completed_network,
    homology_basis,
    inflate,
    relative_filling,
)
from vanishingcycles.verify import _fills_beside_b

TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))
TRIANGLE4 = Polygon(((0, 0), (4, 0), (0, 4)))
SQUARE4 = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))


# --- independent enumeration oracle -----------------------------------------
#
# Re-derives the B-curve set of a normalized network from scratch: every
# primitive segment between lattice points of the polygon whose full line
# passes through the anchor and misses the three open exclusion zones,
# plus the two distinguished segments.  Uses Fraction arithmetic and no
# code shared with the builder's line-grouping logic.

def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def line_hits_open(seg, d):
    # line {t*d} against open segment (a, b)
    a, b = seg
    denom = cross((b[0] - a[0], b[1] - a[1]), d)
    if denom == 0:
        return cross(a, d) == 0  # parallel: blocked only if collinear
    t = Fraction(-cross(a, d), denom)
    return 0 < t < 1


def on_common_edge(P, p, q):
    verts = P.vertices
    n = len(verts)
    for i in range(n):
        v0, v1 = verts[i], verts[(i + 1) % n]
        e = (v1[0] - v0[0], v1[1] - v0[1])
        if cross(e, (p[0] - v0[0], p[1] - v0[1])) != 0:
            continue
        if cross(e, (q[0] - v0[0], q[1] - v0[1])) != 0:
            continue
        lo, hi = sorted((0, e[0] * e[0] + e[1] * e[1]))
        dp = (p[0] - v0[0]) * e[0] + (p[1] - v0[1]) * e[1]
        dq = (q[0] - v0[0]) * e[0] + (q[1] - v0[1]) * e[1]
        if lo <= dp <= hi and lo <= dq <= hi:
            return True
    return False


def oracle_b_segments(net):
    P = net.polygon
    adj = net.adjoint_polygon
    r = net.r
    ring = adj.vertices
    k = ring.index((0, 0))
    cands = [ring[(k + 1) % len(ring)], ring[(k - 1) % len(ring)]]
    kprime = next(v for v in cands if v[0] == 0 and v[1] > 0)
    j = ring.index(kprime)
    for nb in (ring[(j + 1) % len(ring)], ring[(j - 1) % len(ring)]):
        if nb != (0, 0):
            dx, dy = nb[0] - kprime[0], nb[1] - kprime[1]
            g = gcd(abs(dx), abs(dy))
            w = (kprime[0] + dx // g, kprime[1] + dy // g)
    sigma = (kprime, w)
    tau = ((r, 0), (0, -1))
    bseg = ((-1, 1), (0, 1))
    excluded = [sigma, tau, bseg]

    out = {tuple(sorted(sigma)), tuple(sorted(tau))}
    pts = P.lattice_points()
    for p in pts:
        for q in pts:
            if q <= p:
                continue
            d = (q[0] - p[0], q[1] - p[1])
            if gcd(abs(d[0]), abs(d[1])) != 1:
                continue
            if cross(p, q) != 0:
                continue  # line misses the anchor
            if any(line_hits_open(seg, d) for seg in excluded):
                continue
            if on_common_edge(P, p, q):
                continue
            out.add((p, q))
    return out


@pytest.mark.parametrize("poly", [TRIANGLE6, TRIANGLE4, SQUARE4])
def test_builder_matches_enumeration_oracle(poly):
    net = build_network(poly)
    built = {b.segment.endpoints() for b in net.b_curves()}
    assert built == oracle_b_segments(net)


def test_builder_a_curves_are_interior_points():
    net = build_network(TRIANGLE6)
    assert {a.point for a in net.a_curves()} == set(net.polygon.interior_points())


# --- frozen values for the side-6 triangle ----------------------------------

def test_triangle6_counts():
    net = build_network(TRIANGLE6)
    assert net.r == 3
    assert len(net.a_curves()) == 10
    assert len(net.b_curves()) == 18
    assert len(net) == 28


def test_triangle6_memberships():
    net = build_network(TRIANGLE6)
    assert BCurve(Segment((0, 0), (0, -1))) in net
    assert BCurve(Segment((3, 0), (0, -1))) in net  # closing segment
    assert BCurve(Segment((0, 3), (1, 2))) in net  # hull-top segment
    assert net.clauses[BCurve(Segment((3, 0), (0, -1)))] == 3
    assert net.clauses[BCurve(Segment((0, 3), (1, 2)))] == 2
    assert net.clauses[ACurve((1, 1))] == 1
    # the (1, 3) ray crosses the open hull-top segment, so no such curve
    assert BCurve(Segment((0, 0), (1, 3))) not in net


def test_triangle6_line_directions():
    net = build_network(TRIANGLE6)
    per_dir = {}
    for b in net.b_curves():
        if net.clauses[b] != 4:
            continue
        (ax, ay), (bx, by) = b.segment.endpoints()
        dx, dy = bx - ax, by - ay
        if (dx, dy) < (0, 0) or dx < 0:
            dx, dy = -dx, -dy
        per_dir[(dx, dy)] = per_dir.get((dx, dy), 0) + 1
    assert per_dir == {
        (1, 0): 5, (0, 1): 5, (1, 1): 3, (2, 1): 1, (1, 2): 1, (3, 1): 1,
    }


def test_triangle6_graph_stats():
    net = build_network(TRIANGLE6)
    G = intersection_graph(net)
    assert len(G.vertices) == 28
    assert len(G.edges) == 28
    assert graph_stats(G) == (True, 1, False)


def test_triangle6_subnetwork_is_tree():
    net = build_network(TRIANGLE6)
    reduced = subnetwork_nprime(net)
    assert len(reduced) == 27
    assert ACurve((0, 1)) not in reduced
    assert graph_stats(intersection_graph(reduced)) == (True, 0, True)


def test_subnetwork_nprime_requires_the_circle():
    net = build_network(TRIANGLE6)
    with pytest.raises(MissingCurve):
        subnetwork_nprime(subnetwork_nprime(net))


def test_explicit_anchor_matches_canonical_for_symmetric_polygon():
    canon = build_network(TRIANGLE6)
    anchored = build_network(TRIANGLE6, kappa=(1, 1))
    assert canon.curve_list() == anchored.curve_list()
    assert canon.r == anchored.r


@pytest.mark.parametrize("name", ["triangle4", "triangle6", "square4",
                                  "triangle10", "nprime6"])
def test_intersection_graph_matches_pairwise_intersections(name):
    # the edges read off the incidence map are exactly the pairs that
    # geometric_intersection counts as meeting once
    if name == "nprime6":
        net = subnetwork_nprime(build_network(TRIANGLE6))
    else:
        net = build_network({"triangle4": TRIANGLE4, "triangle6": TRIANGLE6,
                             "square4": SQUARE4,
                             "triangle10": Polygon(((0, 0), (10, 0), (0, 10)))}[name])
    curves = net.curve_list()
    pairs = [(c1, c2) for i, c1 in enumerate(curves) for c2 in curves[i + 1:]
             if geometric_intersection(c1, c2) == 1]
    G = intersection_graph(net)
    assert G.vertices == curves
    assert G.edges == pairs


# --- other base polygons -----------------------------------------------------

def test_square_counts_and_directions():
    net = build_network(SQUARE4)
    assert net.r == 2
    assert len(net.a_curves()) == 9
    assert len(net.b_curves()) == 19
    dirs = set()
    for b in net.b_curves():
        if net.clauses[b] != 4:
            continue
        (ax, ay), (bx, by) = b.segment.endpoints()
        dx, dy = bx - ax, by - ay
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        dirs.add((dx, dy))
    assert dirs == {(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 3), (3, 1), (3, 2)}


def test_triangle4_counts():
    net = build_network(TRIANGLE4)
    assert net.r == 1
    assert len(net.a_curves()) == 3
    assert len(net.b_curves()) == 8
    assert graph_stats(intersection_graph(net)) == (True, 1, False)


def test_degenerate_inner_hulls_rejected():
    with pytest.raises(DegenerateAdjoint):
        build_network(Polygon(((0, 0), (3, 0), (0, 3))))  # single point
    with pytest.raises(DegenerateAdjoint):
        build_network(Polygon(((0, 0), (4, 0), (1, 2))))  # segment
    with pytest.raises(DegenerateAdjoint):
        build_network(Polygon(((0, 0), (1, 0), (0, 1))))  # empty


# --- pairwise intersection rules ---------------------------------------------

def test_geometric_intersection_table():
    a00 = ACurve((0, 0))
    diag = BCurve(Segment((0, 0), (1, 1)))
    anti = BCurve(Segment((1, 0), (0, 1)))
    assert geometric_intersection(a00, a00) == 0
    assert geometric_intersection(a00, ACurve((1, 1))) == 0
    assert geometric_intersection(a00, diag) == 1
    assert geometric_intersection(ACurve((2, 2)), diag) == 0
    assert geometric_intersection(diag, diag) == 0
    # sharing one endpoint: disjoint after doubling
    assert geometric_intersection(diag, BCurve(Segment((1, 1), (2, 1)))) == 0
    # collinear, adjacent and disjoint
    assert geometric_intersection(diag, BCurve(Segment((1, 1), (2, 2)))) == 0
    assert geometric_intersection(diag, BCurve(Segment((2, 2), (3, 3)))) == 0
    with pytest.raises(UnsupportedPair):
        geometric_intersection(diag, anti)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                min_size=3, max_size=8))
def test_built_networks_are_crossing_free(points):
    # build_network checks only that (0, -1) lies in the polygon, and no
    # segment pair, on the argument in its docstring; this is the test that
    # guards that argument
    try:
        P = convex_hull(points)
    except LatticeError:
        return
    inner = adjoint(P)
    if inner.kind != "polygon":
        return
    for kappa in inner.polygon.vertices:
        try:
            Q = kappa_standard_embedding(P, kappa).apply_polygon(P)
        except NoUnimodularNormalization:
            continue
        if not Q.contains((0, -1)):
            with pytest.raises(NetworkError, match=r"^clause-3 segment .* "
                               r"is not a valid segment$"):
                build_network(P, kappa)
            continue
        net = build_network(P, kappa)
        assert net.polygon == Q
        # the adjoint's vertices run (0, 0), (a, 0), ..., (0, k), r | a
        adj = net.adjoint_polygon.vertices
        assert adj[0] == (0, 0)
        assert adj[1][0] > 0 and adj[1][1] == 0 and adj[1][0] % net.r == 0
        assert adj[-1][0] == 0 and adj[-1][1] > 0
        sigma = next(c for c, k in net.clauses.items() if k == 2)
        assert adj[-1] in sigma.segment.endpoints()
        assert all(valid_b_segment(Q, b.segment) for b in net.b_curves())
        check_network_invariants(net)
        dn = dn_configuration(net)
        b = BCurve(dn.b_segment)
        assert b not in net
        assert geometric_intersection(dn.d, b) == 1
        completed = _completed_network(subnetwork_nprime(net), b)
        assert completed is not None
        assert set(completed.clauses) == set(net.clauses) | {b}
        check_network_invariants(completed)
        # where the canonical structure exists, the verdict sets H1 and
        # decides relative filling on the network's own surface, on the
        # arguments in check_networkgenset and relative_filling; these are
        # their oracles
        S = inflate(net)
        try:
            canonical_spin(S)
        except (SpinError, SurfaceError):
            continue
        nprime = subnetwork_nprime(net)
        rel = relative_filling(nprime, dn.b_segment)
        assert _fills_beside_b(S, nprime) == rel
        classes = homology_basis(S).classes
        assert all(gcd(*(v for _, v in classes[c])) == 1
                   for c in net.curve_list())
        # measured on every candidate of two random corpora, not argued
        assert graph_stats(intersection_graph(nprime))[2] == rel


def test_network_invariant_checker_rejects_crossing_segments():
    net = build_network(TRIANGLE4)
    bad = Network(
        polygon=net.polygon,
        kappa=net.kappa,
        clauses={BCurve(Segment((0, 0), (1, 1))): 0,
                 BCurve(Segment((1, 0), (0, 1))): 0},
        embedding=IDENTITY_MAP,
        r=net.r,
        adjoint_polygon=net.adjoint_polygon,
    )
    with pytest.raises(UnsupportedPair):
        check_network_invariants(bad)


def test_valid_b_segment():
    P = build_network(TRIANGLE6).polygon
    assert valid_b_segment(P, Segment((0, 0), (1, 1)))
    assert valid_b_segment(P, Segment((0, -1), (0, 0)))
    # both endpoints on the bottom edge
    assert not valid_b_segment(P, Segment((0, -1), (1, -1)))
    # leaves the polygon
    assert not valid_b_segment(P, Segment((4, 0), (5, 1)))


# --- distinguished chain configuration ---------------------------------------

def test_dn_configuration_triangle6():
    net = build_network(TRIANGLE6)
    dn = dn_configuration(net)
    assert dn.n == 2 * net.r + 3 == 9
    assert dn.a == BCurve(Segment((0, 0), (0, -1)))
    assert dn.a_prime == BCurve(Segment((0, 0), (0, 1)))
    assert dn.delta1 == BCurve(Segment((3, 0), (0, -1)))
    assert dn.d == ACurve((0, 1))
    assert dn.b_segment == Segment((-1, 1), (0, 1))
    assert BCurve(dn.b_segment) not in net
    chain = dn.chain
    assert len(chain) == 7
    assert chain[0] == ACurve((0, 0))
    assert chain[1] == BCurve(Segment((0, 0), (1, 0)))
    assert chain[-1] == ACurve((3, 0))
    assert len(dn.curves()) == 10
    # consecutive chain members meet once, all in the network
    for c in dn.curves():
        assert c in net
    for u, v in zip(chain, chain[1:]):
        assert geometric_intersection(u, v) == 1
    for i in range(len(chain)):
        for j in range(i + 2, len(chain)):
            assert geometric_intersection(chain[i], chain[j]) == 0
    assert geometric_intersection(dn.a, chain[0]) == 1
    assert geometric_intersection(dn.a_prime, chain[0]) == 1
    assert geometric_intersection(dn.a, dn.a_prime) == 0


def test_dn_configuration_sizes_elsewhere():
    assert dn_configuration(build_network(SQUARE4)).n == 7
    assert dn_configuration(build_network(TRIANGLE4)).n == 5


def test_dn_configuration_reports_missing_curve():
    net = build_network(TRIANGLE6)
    tau = BCurve(Segment((3, 0), (0, -1)))
    with pytest.raises(ConfigurationUnavailable, match="missing curve"):
        dn_configuration(net.without(tau))


def test_without_unknown_curve():
    net = build_network(TRIANGLE6)
    with pytest.raises(MissingCurve):
        net.without(ACurve((5, 5)))


# --- crossings, arcs and the spanning-tree correspondence ---------------------

def test_circle_crossings_are_ccw_ordered():
    net = build_network(TRIANGLE6)
    xs = curve_crossings(net, ACurve((0, 0)))
    dirs = []
    for x in xs:
        p, q = x.b.segment.endpoints()
        other = q if p == (0, 0) else p
        dirs.append(other)
    assert dirs == [(1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (0, 1),
                    (-1, 0), (-1, -1), (0, -1)]


def test_segment_crossings_run_along_the_segment():
    net = build_network(TRIANGLE6)
    xs = curve_crossings(net, BCurve(Segment((0, 0), (1, 1))))
    assert [x.a.point for x in xs] == [(0, 0), (1, 1)]
    # one endpoint on the boundary: a single crossing
    tau = BCurve(Segment((3, 0), (0, -1)))
    assert [x.a.point for x in curve_crossings(net, tau)] == [(3, 0)]


def test_curve_arcs_counts():
    net = build_network(TRIANGLE6)
    assert len(curve_arcs(net, ACurve((0, 0)))) == 9
    assert len(curve_arcs(net, BCurve(Segment((0, 0), (1, 1))))) == 2
    assert len(curve_arcs(net, BCurve(Segment((3, 0), (0, -1))))) == 1
    total = sum(len(curve_arcs(net, c)) for c in net.curve_list())
    # two arcs end at every crossing on each of the two curves through it
    assert total == 2 * len(intersection_graph(net).edges)


def test_spanning_tree_correspondence_on_tree_network():
    net = build_network(TRIANGLE6)
    reduced = subnetwork_nprime(net)
    corr = spanning_tree_correspondence(reduced)
    assert set(corr) == set(reduced.curve_list())
    arcs = list(corr.values())
    assert len(set(arcs)) == len(arcs)
    for c, arc in corr.items():
        assert arc.curve == c
        assert arc in curve_arcs(reduced, c)


def test_spanning_tree_correspondence_rejects_cycles():
    net = build_network(TRIANGLE6)
    with pytest.raises(NotArboreal):
        spanning_tree_correspondence(net)


def test_isolated_curve_gets_phantom_loop():
    net = build_network(TRIANGLE4)
    lone = Network(
        polygon=net.polygon,
        kappa=net.kappa,
        clauses={ACurve((0, 0)): 0},
        embedding=IDENTITY_MAP,
        r=net.r,
        adjoint_polygon=net.adjoint_polygon,
    )
    assert curve_arcs(lone, ACurve((0, 0))) == [Arc(ACurve((0, 0)), 0, None, None)]
    corr = spanning_tree_correspondence(lone)
    assert corr[ACurve((0, 0))].start is None


def test_graph_stats_empty():
    assert graph_stats(IntersectionGraph([], [])) == (False, 0, False)


# --- serialization ------------------------------------------------------------

def test_network_json_roundtrip():
    net = build_network(TRIANGLE6)
    blob = json.dumps(network_to_json(net))
    back = network_from_json(json.loads(blob))
    assert back.curve_list() == net.curve_list()
    assert back.r == net.r
    assert back.polygon == net.polygon
    assert all(back.clauses[c] == net.clauses[c] for c in net.curve_list())


def test_network_json_rejects_unknown_type():
    net = build_network(TRIANGLE4)
    data = network_to_json(net)
    data["curves"][0]["type"] = "C"
    with pytest.raises(NetworkError):
        network_from_json(data)


@pytest.mark.parametrize("field", ["circle", "kappa", "r", "clause"])
def test_network_json_rejects_non_integer_fields(field):
    data = network_to_json(build_network(TRIANGLE4))
    circle = next(e for e in data["curves"] if e["type"] == "A")
    if field == "circle":
        circle["data"] = [1.5, 1]
    elif field == "kappa":
        data["kappa"] = [0, False]
    elif field == "r":
        data["r"] = 1.0
    else:
        circle["clause"] = "1"
    with pytest.raises(LatticeError if field in ("circle", "kappa")
                       else NetworkError):
        network_from_json(data)


def test_network_json_rejects_non_primitive_segment():
    data = network_to_json(build_network(TRIANGLE4))
    entry = next(e for e in data["curves"] if e["type"] == "B")
    a, b = entry["data"]
    entry["data"] = [a, [2 * b[0] - a[0], 2 * b[1] - a[1]]]
    with pytest.raises(LatticeError, match="not primitive"):
        network_from_json(data)


def test_curve_sort_key_orders_circles_before_segments():
    cs = [BCurve(Segment((0, 0), (1, 0))), ACurve((2, 2)), ACurve((0, 0))]
    cs.sort(key=curve_sort_key)
    assert cs[0] == ACurve((0, 0))
    assert isinstance(cs[-1], BCurve)
