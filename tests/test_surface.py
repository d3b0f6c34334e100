import random

import pytest
from oracles import (
    duplicate_pairs,
    planar_filling_oracle,
    spanning_tree_correspondence,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from ribbon_oracle import (
    chord_gram,
    curve_pairing,
    layout_view,
    object_view,
)
from ribbon_oracle import complement_regions as oracle_regions

from vanishingcycles.intlinalg import smith_normal_form, standard_j
from vanishingcycles.lattice import IDENTITY_MAP, Polygon, Segment
from vanishingcycles.network import (
    ACurve,
    BCurve,
    ConfigurationUnavailable,
    Network,
    build_network,
    dn_configuration,
    graph_stats,
    intersection_graph,
    subnetwork_nprime,
)
from vanishingcycles.spin import _pairing
from vanishingcycles.surface import (
    EmptySurface,
    NotClosedSurface,
    SurfaceError,
    UnknownCurve,
    _completed_network,
    _crossing_signs,
    complement_regions,
    curve_class,
    homology_basis,
    inflate,
    is_filling,
    relative_filling,
)

TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))
TRIANGLE4 = Polygon(((0, 0), (4, 0), (0, 4)))
SQUARE4 = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))
TRIANGLE3 = Polygon(((0, 0), (3, 0), (0, 3)))
TRIANGLE10 = Polygon(((0, 0), (10, 0), (0, 10)))


def torus_network(seg):
    """One circle plus one incident segment curve on the genus-1 triangle."""
    return Network(polygon=TRIANGLE3, kappa=(1, 1),
                   clauses={ACurve((1, 1)): 0, BCurve(seg): 0},
                   embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)


def built(P):
    net = build_network(P)
    return net, inflate(P, net)


def circles_alone():
    return Network(polygon=TRIANGLE6, kappa=(1, 1),
                   clauses={ACurve((1, 1)): 0, ACurve((2, 2)): 0},
                   embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)


def one_line_of_segments():
    base = build_network(TRIANGLE6)
    xs = {BCurve(Segment((i, 0), (i + 1, 0))): 3 for i in range(-1, 4)}
    return Network(polygon=base.polygon, kappa=base.kappa, clauses=xs,
                   embedding=base.embedding, r=base.r,
                   adjoint_polygon=base.adjoint_polygon)


def expected_sign(c1, c2):
    # +1 when the segment leaves the circle's point, -1 when it arrives
    if isinstance(c1, ACurve) and isinstance(c2, BCurve):
        v, s = c1.point, c2.segment
        return 1 if s.a == v else (-1 if s.b == v else 0)
    if isinstance(c1, BCurve) and isinstance(c2, ACurve):
        return -expected_sign(c2, c1)
    return 0


# --- inflation ---------------------------------------------------------------

def test_torus_counts():
    net = torus_network(Segment((1, 1), (1, 0)))
    S = inflate(TRIANGLE3, net)
    assert (len(S.vertices), len(S.arcs)) == (1, 2)
    assert S.euler() == 0 and len(S.faces) == 1
    assert S.genus() == 1
    assert is_filling(TRIANGLE3, net)


def test_torus_other_anchor_end():
    # same shape with the segment leaving the interior point instead
    net = torus_network(Segment((1, 1), (1, 2)))
    S = inflate(TRIANGLE3, net)
    assert S.euler() == 0
    assert is_filling(TRIANGLE3, net)


def test_triangle6_counts():
    net, S = built(TRIANGLE6)
    assert (len(S.vertices), len(S.arcs)) == (28, 56)
    assert S.euler() == -18 and len(S.faces) == 10
    assert S.genus() == 10
    assert is_filling(TRIANGLE6, net)


def test_triangle4_counts():
    net, S = built(TRIANGLE4)
    assert (len(S.vertices), len(S.arcs)) == (11, 22)
    assert S.euler() == -4 and len(S.faces) == 7
    assert S.genus() == 3


def test_square4_counts():
    net, S = built(SQUARE4)
    assert S.euler() == -16 and len(S.faces) == 12
    assert S.genus() == 9


def test_rotation_is_a_dart_partition():
    # every dart sits at exactly one vertex, on an arc of a curve meeting there
    _, S = built(TRIANGLE6)
    seen = []
    for at, darts in zip(S.vertices, S.rotation):
        for d in darts:
            seen.append(d)
            assert S.arcs[d >> 1] in at
    assert sorted(seen) == list(range(2 * len(S.arcs)))


def test_circles_alone_are_genus_zero_shells():
    net = circles_alone()
    S = inflate(TRIANGLE6, net)
    comps = S.components()
    assert len(comps) == 2
    assert S.euler() == 4 and len(S.faces) == 4  # two capped spheres
    assert not is_filling(TRIANGLE6, net)


@pytest.mark.parametrize("make", [lambda: build_network(TRIANGLE6),
                                  circles_alone, one_line_of_segments],
                         ids=["triangle6", "circles-alone", "one-line"])
def test_components_match_the_intersection_graph(make):
    # graph_stats counts components as betti - edges + vertices
    net = make()
    G = intersection_graph(net)
    connected, betti, _ = graph_stats(G)
    comps = inflate(net.polygon, net).components()
    assert len(comps) == betti - len(G.edges) + len(G.vertices)
    assert connected == (len(comps) == 1)
    assert set().union(*comps) == set(net.curve_list())


def test_inflate_rejects_wrong_polygon():
    net, _ = built(TRIANGLE6)
    with pytest.raises(SurfaceError):
        inflate(TRIANGLE4, net)


def test_empty_network_has_no_euler_number():
    net = Network(polygon=TRIANGLE3, kappa=(1, 1), clauses={},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    S = inflate(TRIANGLE3, net)
    with pytest.raises(EmptySurface):
        S.euler()


def test_inflate_is_deterministic():
    _, S1 = built(TRIANGLE6)
    _, S2 = built(TRIANGLE6)
    assert S1.vertices == S2.vertices
    assert S1.arcs == S2.arcs
    assert S1.rotation == S2.rotation
    assert S1.faces == S2.faces


def test_surfaces_compare_equal_after_homology():
    # the cached facts are not part of a surface's value
    net = build_network(TRIANGLE6)
    S1, S2 = inflate(TRIANGLE6, net), inflate(TRIANGLE6, net)
    assert S1 == S2
    homology_basis(S1)
    S1.components()
    assert S1 == S2


# --- homology and the intersection form --------------------------------------

def test_torus_form():
    net = torus_network(Segment((1, 1), (1, 0)))
    S = inflate(TRIANGLE3, net)
    form = homology_basis(S)
    assert form.genus == 1
    assert form.matrix == ((0, 1), (-1, 0))
    a = curve_class(S, ACurve((1, 1)))
    b = curve_class(S, BCurve(Segment((1, 1), (1, 0))))
    # unit classes; the segment arrives at (1,1), so the pairing is -1
    assert sorted((a, b)) == [(0, -1), (1, 0)]


def test_torus_form_exit_orientation():
    net = torus_network(Segment((1, 1), (1, 2)))
    S = inflate(TRIANGLE3, net)
    a = curve_class(S, ACurve((1, 1)))
    b = curve_class(S, BCurve(Segment((1, 1), (1, 2))))
    assert (a, b) == ((1, 0), (0, 1))


def test_triangle6_form_shape():
    net, S = built(TRIANGLE6)
    form = homology_basis(S)
    assert form.genus == 10
    assert form.chords == tuple(net.curve_list())
    assert len(form.chords) == 28  # 10 circles, 18 segment curves
    assert len(form.chords) - 2 * form.genus == 8  # radical of the curves
    assert form.matrix == tuple(tuple(r) for r in standard_j(10))
    assert len(form.base_change) == 2 * form.genus


def test_chord_gram_is_antisymmetric_and_unimodular_mod_radical():
    _, S = built(TRIANGLE6)
    form = homology_basis(S)
    G = [list(r) for r in form.chord_gram]
    m = len(G)
    assert all(G[i][j] == -G[j][i] for i in range(m) for j in range(m))
    D, _, _ = smith_normal_form([r[:] for r in G])
    divisors = [D[i][i] for i in range(m) if D[i][i] != 0]
    assert len(divisors) == 20 and all(abs(d) == 1 for d in divisors)


@pytest.mark.parametrize("P", [TRIANGLE6, TRIANGLE4, SQUARE4, TRIANGLE10])
def test_pairing_matches_crossing_signs_for_all_pairs(P):
    # the classes looked up in the table pair like the curves cross, for
    # every ordered pair, the A-A and B-B zeros included
    net, S = built(P)
    form = homology_basis(S)
    assert form.chords == tuple(net.curve_list())
    classes = [curve_class(S, c) for c in form.chords]
    for i, c1 in enumerate(form.chords):
        for j, c2 in enumerate(form.chords):
            got = _pairing(classes[i], classes[j])
            assert got == form.chord_gram[i][j] == expected_sign(c1, c2), (c1, c2)


def assert_oracle_matches_sign_matrix(S, tree=None):
    # the ribbon pairing of the curves' dart cycles is the library's matrix
    form = homology_basis(S)
    pairing = curve_pairing(object_view(S.network), tree)
    for i, c1 in enumerate(form.chords):
        for j, c2 in enumerate(form.chords):
            assert pairing[c1, c2] == form.chord_gram[i][j], (c1, c2)


def test_cycle_pairing_on_curve_cycles():
    net, S = built(TRIANGLE4)
    pairing = curve_pairing(object_view(net))
    for c1 in net.curve_list():
        for c2 in net.curve_list():
            assert pairing[c1, c2] == expected_sign(c1, c2)
    assert_oracle_matches_sign_matrix(S)


@pytest.mark.parametrize("name", ["torus-out", "torus-in", "triangle6",
                                  "square4"])
def test_ribbon_oracle_matches_sign_matrix(name):
    if name.startswith("torus"):
        seg = Segment((1, 1), (1, 0) if name == "torus-in" else (1, 2))
        S = inflate(TRIANGLE3, torus_network(seg))
    else:
        _, S = built(TRIANGLE6 if name == "triangle6" else SQUARE4)
    assert_oracle_matches_sign_matrix(S)


def test_concatenable_halves_drop_the_shared_circle():
    # two collinear segments through the anchor; their class sum no longer
    # meets the circle at the shared point
    net, S = built(TRIANGLE6)
    form = homology_basis(S)
    J = form.matrix
    n = 2 * form.genus
    b1 = curve_class(S, BCurve(Segment((-1, 0), (0, 0))))
    b2 = curve_class(S, BCurve(Segment((0, 0), (1, 0))))
    a0 = curve_class(S, ACurve((0, 0)))
    total = tuple(b1[i] + b2[i] for i in range(n))
    pair = sum(a0[i] * J[i][j] * total[j] for i in range(n) for j in range(n))
    assert pair == 0


def test_homology_requires_connected_surface():
    S = inflate(TRIANGLE6, circles_alone())
    with pytest.raises(NotClosedSurface):
        homology_basis(S)


def test_homology_is_cached_and_reproducible():
    _, S = built(TRIANGLE4)
    assert homology_basis(S) is homology_basis(S)
    _, S2 = built(TRIANGLE4)
    f1, f2 = homology_basis(S), homology_basis(S2)
    assert f1.chords == f2.chords
    assert f1.chord_gram == f2.chord_gram
    assert f1.base_change == f2.base_change


def test_curve_class_unknown_inputs():
    _, S = built(TRIANGLE4)
    with pytest.raises(UnknownCurve):
        curve_class(S, None)
    with pytest.raises(UnknownCurve):
        curve_class(S, ACurve((9, 9)))


# --- spanning-tree composition ------------------------------------------------

def test_correspondence_tree_turns_chords_into_curves():
    # with the surrendered arcs as chords, the fundamental loops are the
    # network curves themselves, so the chord pairing is the sign matrix
    net = subnetwork_nprime(build_network(TRIANGLE6))
    S = inflate(TRIANGLE6, net)
    V = object_view(net)
    corr = spanning_tree_correspondence(net)
    surrendered = set(corr.values())
    kept = [a for a in V.arcs if a not in surrendered]
    assert len(kept) == len(S.vertices) - 1
    chords, gram = chord_gram(V, tree=kept)
    assert set(chords) == surrendered
    assert homology_basis(S).genus == 9  # one handle less than closed
    owner = {arc: c for c, arc in corr.items()}
    for i, ai in enumerate(chords):
        for j, aj in enumerate(chords):
            assert gram[i][j] == expected_sign(owner[ai], owner[aj])
    assert_oracle_matches_sign_matrix(S, tree=kept)


def test_every_curve_keeps_all_but_one_arc():
    net = subnetwork_nprime(build_network(TRIANGLE6))
    S = inflate(TRIANGLE6, net)
    V = object_view(net)
    corr = spanning_tree_correspondence(net)
    for c, arc in corr.items():
        assert arc in V.curve_arcs[c]
        others = [a for a in V.curve_arcs[c] if a != arc]
        assert len(others) == len(V.curve_arcs[c]) - 1
        assert len(V.curve_arcs[c]) == S.arcs.count(S.curve_index[c])


# --- filling ------------------------------------------------------------------

def test_standard_networks_fill():
    for P in (TRIANGLE6, TRIANGLE4, SQUARE4):
        net = build_network(P)
        assert is_filling(P, net)
        assert planar_filling_oracle(P, net)


def test_circles_alone_do_not_fill():
    net = Network(polygon=TRIANGLE3, kappa=(1, 1),
                  clauses={ACurve((1, 1)): 0},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    assert not is_filling(TRIANGLE3, net)
    assert not planar_filling_oracle(TRIANGLE3, net)


def test_one_line_of_segments_does_not_fill():
    net = one_line_of_segments()
    assert not is_filling(net.polygon, net)
    assert not planar_filling_oracle(net.polygon, net)


ADMISSIBLE_BASES = [
    ((0, 0), (4, 0), (0, 4)),
    ((0, 0), (5, 0), (0, 5)),
    ((0, 0), (6, 0), (0, 6)),
    ((0, 0), (7, 0), (0, 7)),
    ((0, 0), (3, 0), (3, 3), (0, 3)),
    ((0, 0), (4, 0), (4, 4), (0, 4)),
    ((0, 0), (5, 0), (5, 3), (0, 3)),
    ((0, 0), (3, 0), (3, 5), (0, 5)),
    ((0, 0), (5, 0), (5, 5), (0, 5)),
    ((0, 0), (6, 0), (6, 4), (0, 4)),
]


def sheared(base, p, q, tx, ty):
    verts = []
    for x, y in base:
        x1, y1 = x + p * y, y  # shear, then shear, then translate
        verts.append((x1 + tx, y1 + q * x1 + ty))
    return Polygon(tuple(verts))


def test_oracle_agrees_on_random_admissible_polygons():
    rng = random.Random(20260814)
    for _ in range(26):
        base = ADMISSIBLE_BASES[rng.randrange(len(ADMISSIBLE_BASES))]
        P = sheared(base, rng.randint(-2, 2), rng.randint(-2, 2),
                    rng.randint(-4, 4), rng.randint(-4, 4))
        net = build_network(P)
        assert is_filling(P, net) == planar_filling_oracle(P, net) is True


# --- the integer layout against the object-keyed oracle -----------------------

PIPELINE_FAMILIES = {
    "triangle7": Polygon(((0, 0), (7, 0), (0, 7))),
    "triangle8": Polygon(((0, 0), (8, 0), (0, 8))),
    "square5": Polygon(((0, 0), (5, 0), (5, 5), (0, 5))),
    "rectangle7x4": Polygon(((0, 0), (7, 0), (7, 4), (0, 4))),
}


def surfaces_of(P, rng):
    """The standard network's surface, the completed network's surface
    that ``relative_filling`` decides on, and a random subnetwork's."""
    net = build_network(P)
    nets = [net]
    try:
        dn = dn_configuration(net)
    except ConfigurationUnavailable:
        pass
    else:
        completed = _completed_network(subnetwork_nprime(net), BCurve(dn.b_segment))
        assert completed is not None
        nets.append(completed)
    for c in net.curve_list():
        if rng.random() < 0.3:
            net = net.without(c)
    nets.append(net)
    return [inflate(P, n) for n in nets]


def assert_layout_matches_oracle(S, rng):
    V = object_view(S.network)
    curves = list(S.network.curve_list())
    assert S.curves == tuple(curves)
    assert [S.curves[c] for c in S.arcs] == [a.curve for a in V.arcs]
    assert layout_view(S, V.arcs) == (V.vertices, V.rotation, V.faces)
    assert all(S.dart_face[d] == f for f, walk in enumerate(S.faces) for d in walk)
    cuts = [[], all_a(S.network), all_b(S.network), curves]
    cuts += [[c for c in curves if rng.random() < 0.5] for _ in range(4)]
    for cut in cuts:
        if S.fills():
            assert complement_regions(S, cut) == oracle_regions(V, cut), cut
        else:
            with pytest.raises((NotClosedSurface, EmptySurface)):
                complement_regions(S, cut)


def assert_signs_match(S):
    """The sign read from the parity of each crossing's first dart is the
    sign of the segment's direction at the circle, on every curve pair: in
    the crossing-sign matrix, and in the homology form when the surface has
    one (a disconnected surface has none).  True when the form was read."""
    want = [[expected_sign(c1, c2) for c2 in S.curves] for c1 in S.curves]
    assert _crossing_signs(S) == want
    try:
        form = homology_basis(S)
    except SurfaceError:
        return False
    assert form.chord_gram == tuple(map(tuple, want))
    return True


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ADMISSIBLE_BASES), st.integers(-2, 2), st.integers(-2, 2),
       st.integers(-4, 4), st.integers(-4, 4), st.randoms(use_true_random=False))
def test_layout_matches_the_oracle_on_random_admissible_polygons(
        base, p, q, tx, ty, rng):
    surfaces = surfaces_of(sheared(base, p, q, tx, ty), rng)
    for S in surfaces:
        assert_layout_matches_oracle(S, rng)
    # the standard and the completed network's forms are read
    assert [assert_signs_match(S) for S in surfaces][:-1] == [True] * (len(surfaces) - 1)


@pytest.mark.parametrize("name", sorted(PIPELINE_FAMILIES))
def test_layout_matches_the_oracle_on_the_pipeline_families(name):
    rng = random.Random(name)
    surfaces = surfaces_of(PIPELINE_FAMILIES[name], rng)
    assert len(surfaces) == 3 and all(S.fills() for S in surfaces[:2])
    for S in surfaces:
        assert_layout_matches_oracle(S, rng)
    assert [assert_signs_match(S) for S in surfaces][:2] == [True, True]


# --- complement regions --------------------------------------------------------

def all_a(net):
    return [c for c in net.curve_list() if isinstance(c, ACurve)]


def all_b(net):
    return [c for c in net.curve_list() if isinstance(c, BCurve)]


def test_cutting_all_circles_leaves_one_region():
    net, S = built(TRIANGLE6)
    regs = complement_regions(S, all_a(net))
    assert len(regs) == 1
    assert regs[0].chi == -18
    assert len(regs[0].boundary_curves) == 10
    assert len(regs[0].internal_curves) == 18


def test_cutting_all_segments_gives_wedges_and_annuli():
    net, S = built(TRIANGLE6)
    regs = complement_regions(S, all_b(net))
    assert sorted(r.chi for r in regs) == [-3, -3, -3, -3, -3, -3, 0, 0, 0]
    assert sum(r.chi for r in regs) == -18


def test_cutting_everything_gives_disks():
    net, S = built(TRIANGLE6)
    regs = complement_regions(S, list(net.curve_list()))
    assert len(regs) == 10
    assert all(r.chi == 1 for r in regs)


def test_region_euler_sum_invariant():
    # cutting along a family adds one to chi for every doubly-cut crossing
    net, S = built(TRIANGLE6)
    curves = list(net.curve_list())
    rng = random.Random(7)
    for _ in range(10):
        cut = [c for c in curves if rng.random() < 0.5]
        if not cut:
            continue
        both = sum(1 for at in S.vertices
                   if len(at) == 2 and all(S.curves[i] in cut for i in at))
        regs = complement_regions(S, cut)
        assert sum(r.chi for r in regs) == -18 + both


def test_regions_reject_unknown_curves_and_open_surfaces():
    net, S = built(TRIANGLE6)
    with pytest.raises(UnknownCurve):
        complement_regions(S, [ACurve((9, 9))])
    with pytest.raises(NotClosedSurface):
        complement_regions(inflate(TRIANGLE6, circles_alone()), [ACurve((1, 1))])


def test_duplicate_pairs_triangle6():
    _, S = built(TRIANGLE6)
    pairs = duplicate_pairs(S)
    assert pairs == [
        frozenset({BCurve(Segment((-1, 0), (0, 0))), BCurve(Segment((-1, -1), (0, 0)))}),
        frozenset({BCurve(Segment((-1, -1), (0, 0))), BCurve(Segment((0, -1), (0, 0)))}),
        frozenset({BCurve(Segment((3, 0), (4, 0))), BCurve(Segment((0, -1), (3, 0)))}),
    ]


def test_duplicate_pairs_triangle4():
    _, S = built(TRIANGLE4)
    pairs = duplicate_pairs(S)
    assert pairs == [
        frozenset({BCurve(Segment((-1, 0), (0, 0))), BCurve(Segment((0, -1), (0, 0)))}),
        frozenset({BCurve(Segment((1, 0), (2, 0))), BCurve(Segment((0, -1), (1, 0)))}),
    ]


# --- relative filling -----------------------------------------------------------

def test_relative_filling_of_reduced_network():
    net = build_network(TRIANGLE6)
    nprime = subnetwork_nprime(net)
    assert relative_filling(TRIANGLE6, nprime, Segment((-1, 1), (0, 1)))


def test_relative_filling_fails_without_enough_circles():
    nprime = subnetwork_nprime(build_network(TRIANGLE6))
    clauses = dict(nprime.clauses)
    clauses.pop(ACurve((1, 1)))
    smaller = Network(polygon=nprime.polygon, kappa=nprime.kappa, clauses=clauses,
                      embedding=nprime.embedding, r=nprime.r,
                      adjoint_polygon=nprime.adjoint_polygon)
    assert not relative_filling(TRIANGLE6, smaller, Segment((-1, 1), (0, 1)))


def test_relative_filling_fails_for_distant_segment():
    nprime = subnetwork_nprime(build_network(TRIANGLE6))
    assert not relative_filling(TRIANGLE6, nprime, Segment((-1, 4), (0, 4)))


def test_relative_filling_fails_for_segment_crossing_nprime_badly():
    # b crosses B((-1, 0), (0, 0)) at (-1/2, 0), away from the lattice points;
    # left unchecked, that pair would give a completed network that passes
    nprime = subnetwork_nprime(build_network(TRIANGLE6))
    b_segment = Segment((-1, -1), (0, 1))
    assert not relative_filling(nprime.polygon, nprime, b_segment)


def test_relative_filling_fails_for_present_segment():
    net = build_network(TRIANGLE6)
    assert not relative_filling(TRIANGLE6, net, Segment((0, 0), (1, 0)))
