import random

import pytest
from oracles import (
    dense_form,
    dense_rows,
    duplicate_pairs,
    mat_mul,
    mat_vec,
    planar_filling_oracle,
    scan_reduction,
    spanning_tree_correspondence,
    standard_j,
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

from vanishingcycles import intlinalg, surface
from vanishingcycles.intlinalg import _add_multiple, smith_normal_form
from vanishingcycles.lattice import IDENTITY_MAP, Polygon, Segment
from vanishingcycles.network import (
    ACurve,
    BCurve,
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
    _form_rows,
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
    return net, inflate(net)


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
    S = inflate(net)
    assert (len(S.vertices), len(S.arcs)) == (1, 2)
    assert S.euler() == 0 and len(S.faces) == 1
    assert S.genus() == 1
    assert is_filling(net)


def test_torus_other_anchor_end():
    # same shape with the segment leaving the interior point instead
    net = torus_network(Segment((1, 1), (1, 2)))
    S = inflate(net)
    assert S.euler() == 0
    assert is_filling(net)


def test_triangle6_counts():
    net, S = built(TRIANGLE6)
    assert (len(S.vertices), len(S.arcs)) == (28, 56)
    assert S.euler() == -18 and len(S.faces) == 10
    assert S.genus() == 10
    assert is_filling(net)


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
    S = inflate(net)
    comps = S.components()
    assert len(comps) == 2
    assert S.euler() == 4 and len(S.faces) == 4  # two capped spheres
    assert not is_filling(net)


@pytest.mark.parametrize("make", [lambda: build_network(TRIANGLE6),
                                  circles_alone, one_line_of_segments],
                         ids=["triangle6", "circles-alone", "one-line"])
def test_components_match_the_intersection_graph(make):
    # graph_stats counts components as betti - edges + vertices
    net = make()
    G = intersection_graph(net)
    connected, betti, _ = graph_stats(G)
    comps = inflate(net).components()
    assert len(comps) == betti - len(G.edges) + len(G.vertices)
    assert connected == (len(comps) == 1)
    assert set().union(*comps) == set(net.curve_list())


def test_empty_network_has_no_euler_number():
    net = Network(polygon=TRIANGLE3, kappa=(1, 1), clauses={},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    S = inflate(net)
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
    S1, S2 = inflate(net), inflate(net)
    assert S1 == S2
    homology_basis(S1)
    S1.components()
    assert S1 == S2


# --- homology and the intersection form --------------------------------------

def test_torus_form():
    net = torus_network(Segment((1, 1), (1, 0)))
    S = inflate(net)
    form = homology_basis(S)
    assert form.genus == 1
    assert dense_form(S).matrix == [[0, 1], [-1, 0]]
    a = curve_class(S, ACurve((1, 1)))
    b = curve_class(S, BCurve(Segment((1, 1), (1, 0))))
    # unit classes; the segment arrives at (1,1), so the pairing is -1
    assert sorted((a, b)) == [(0, -1), (1, 0)]


def test_torus_form_exit_orientation():
    net = torus_network(Segment((1, 1), (1, 2)))
    S = inflate(net)
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
    dense = dense_form(S)
    assert dense.matrix == standard_j(10)
    assert len(dense.base_change) == 2 * form.genus


def test_chord_gram_is_antisymmetric_and_unimodular_mod_radical():
    _, S = built(TRIANGLE6)
    form = homology_basis(S)
    G = dense_form(S).gram
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
    gram = dense_form(S).gram
    for i, c1 in enumerate(form.chords):
        for j, c2 in enumerate(form.chords):
            got = _pairing(classes[i], classes[j])
            assert got == gram[i][j] == expected_sign(c1, c2), (c1, c2)


def assert_oracle_matches_sign_matrix(S, tree=None):
    # the ribbon pairing of the curves' dart cycles is the library's matrix
    form = homology_basis(S)
    pairing = curve_pairing(object_view(S.network), tree)
    gram = dense_form(S).gram
    for i, c1 in enumerate(form.chords):
        for j, c2 in enumerate(form.chords):
            assert pairing[c1, c2] == gram[i][j], (c1, c2)


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
        S = inflate(torus_network(seg))
    else:
        _, S = built(TRIANGLE6 if name == "triangle6" else SQUARE4)
    assert_oracle_matches_sign_matrix(S)


def test_concatenable_halves_drop_the_shared_circle():
    # two collinear segments through the anchor; their class sum no longer
    # meets the circle at the shared point
    net, S = built(TRIANGLE6)
    form = homology_basis(S)
    J = dense_form(S).matrix
    n = 2 * form.genus
    b1 = curve_class(S, BCurve(Segment((-1, 0), (0, 0))))
    b2 = curve_class(S, BCurve(Segment((0, 0), (1, 0))))
    a0 = curve_class(S, ACurve((0, 0)))
    total = tuple(b1[i] + b2[i] for i in range(n))
    pair = sum(a0[i] * J[i][j] * total[j] for i in range(n) for j in range(n))
    assert pair == 0


def test_homology_requires_connected_surface():
    S = inflate(circles_alone())
    with pytest.raises(NotClosedSurface):
        homology_basis(S)


def test_homology_is_cached_and_reproducible():
    _, S = built(TRIANGLE4)
    assert homology_basis(S) is homology_basis(S)
    _, S2 = built(TRIANGLE4)
    f1, f2 = homology_basis(S), homology_basis(S2)
    assert f1.chords == f2.chords
    assert f1.basis == f2.basis
    assert f1.classes == f2.classes
    assert dense_form(S).gram == dense_form(S2).gram
    assert dense_form(S).base_change == dense_form(S2).base_change


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
    S = inflate(net)
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
    S = inflate(net)
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
        assert is_filling(net)
        assert planar_filling_oracle(P, net)


def test_circles_alone_do_not_fill():
    net = Network(polygon=TRIANGLE3, kappa=(1, 1),
                  clauses={ACurve((1, 1)): 0},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    assert not is_filling(net)
    assert not planar_filling_oracle(TRIANGLE3, net)


def test_one_line_of_segments_does_not_fill():
    net = one_line_of_segments()
    assert not is_filling(net)
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
        assert is_filling(net) == planar_filling_oracle(P, net) is True


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
    dn = dn_configuration(net)
    completed = _completed_network(subnetwork_nprime(net), BCurve(dn.b_segment))
    assert completed is not None
    nets = [net, completed]
    for c in net.curve_list():
        if rng.random() < 0.3:
            net = net.without(c)
    nets.append(net)
    return [inflate(n) for n in nets]


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
    assert dense_rows(_crossing_signs(S), len(S.curves)) == want
    try:
        form = homology_basis(S)
    except SurfaceError:
        return False
    assert dense_form(S).gram == want
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
        complement_regions(inflate(circles_alone()), [ACurve((1, 1))])


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
    assert relative_filling(nprime, Segment((-1, 1), (0, 1)))


def test_relative_filling_fails_without_enough_circles():
    nprime = subnetwork_nprime(build_network(TRIANGLE6))
    clauses = dict(nprime.clauses)
    clauses.pop(ACurve((1, 1)))
    smaller = Network(polygon=nprime.polygon, kappa=nprime.kappa, clauses=clauses,
                      embedding=nprime.embedding, r=nprime.r,
                      adjoint_polygon=nprime.adjoint_polygon)
    assert not relative_filling(smaller, Segment((-1, 1), (0, 1)))


def test_relative_filling_fails_for_distant_segment():
    nprime = subnetwork_nprime(build_network(TRIANGLE6))
    assert not relative_filling(nprime, Segment((-1, 4), (0, 4)))


def test_relative_filling_fails_for_segment_crossing_nprime_badly():
    # b crosses B((-1, 0), (0, 0)) at (-1/2, 0), away from the lattice points;
    # left unchecked, that pair would give a completed network that passes
    nprime = subnetwork_nprime(build_network(TRIANGLE6))
    b_segment = Segment((-1, -1), (0, 1))
    assert not relative_filling(nprime, b_segment)


def test_relative_filling_fails_for_present_segment():
    net = build_network(TRIANGLE6)
    assert not relative_filling(net, Segment((0, 0), (1, 0)))


# --- the indexed homology against the dense views -------------------------------

def triangle(d):
    return Polygon(((0, 0), (d, 0), (0, d)))


@pytest.mark.parametrize("P", list(PIPELINE_FAMILIES.values())
                         + [triangle(d) for d in range(8, 23)],
                         ids=list(PIPELINE_FAMILIES)
                         + [f"triangle{d}" for d in range(8, 23)])
def test_reduction_matches_the_scan_on_network_forms(P):
    _, S = built(P)
    rows = [list(row.items()) for row in _crossing_signs(S)]
    assert intlinalg.symplectic_reduction(rows) == scan_reduction(rows)


def products_by_gram(S):
    """G b for each basis vector b, multiplied out from the dense G and B."""
    dense = dense_form(S)
    columns = (mat_vec(dense.gram, row) for row in dense.base_change)
    return [{k: v for k, v in enumerate(col) if v} for col in columns]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ADMISSIBLE_BASES), st.integers(-2, 2), st.integers(-2, 2),
       st.integers(-4, 4), st.integers(-4, 4))
def test_indexed_form_rows_are_the_dense_product(base, p, q, tx, ty):
    # every row the indexed check builds is the row of B.G.B^T multiplied
    # out in full: the entries it leaves out are the zeros of that row
    _, S = built(sheared(base, p, q, tx, ty))
    form = homology_basis(S)
    dense = dense_form(S).matrix
    rows = list(_form_rows(form.basis, products_by_gram(S)))
    assert rows == [{j: v for j, v in enumerate(row) if v} for row in dense]
    assert dense == standard_j(form.genus)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def test_a_perturbed_basis_vector_fails_the_form_check(monkeypatch):
    # x1 gains the curve e_k and G x1 gains G e_k, so every product stays
    # true; the indexed check must fail exactly when the dense product
    # shows that the basis is no longer symplectic
    reduction = surface.symplectic_reduction
    _, S = built(TRIANGLE6)
    form = homology_basis(S)
    G = dense_form(S).gram
    outcomes = []
    for k in range(len(form.chords)):
        x1 = dict(form.basis[0])
        _add_multiple(x1, 1, {k: 1})
        B = dense_rows((x1,) + form.basis[1:], len(G))
        broken = mat_mul(mat_mul(B, G), transpose(B)) != standard_j(form.genus)

        def perturbed(rows):
            rows = [list(row) for row in rows]
            pairs, radical = reduction(rows)
            d, x, Gx, y, Gy = pairs[0]
            x, Gx = dict(x), dict(Gx)
            _add_multiple(x, 1, {k: 1})
            _add_multiple(Gx, 1, {j: -v for j, v in rows[k]})  # G e_k = -row k
            return [(d, x, Gx, y, Gy)] + pairs[1:], radical

        monkeypatch.setattr(surface, "symplectic_reduction", perturbed)
        _, S = built(TRIANGLE6)
        try:
            homology_basis(S)
        except AssertionError:
            outcomes.append((k, broken, True))
        else:
            outcomes.append((k, broken, False))
    assert all(broken == raised for _, broken, raised in outcomes), outcomes
    # only a curve whose class is a multiple of y1 pairs with x1 alone, and
    # adding it to x1 keeps the form; every other curve breaks it
    kept = [k for k, broken, _ in outcomes if not broken]
    assert kept == [k for k, c in enumerate(form.chords)
                    if [i for i, _ in form.classes[c]] == [1]]
    assert 0 < len(kept) < len(outcomes) // 4


def test_pairings_grow_with_the_nonzeros(monkeypatch):
    # an operation count, so the same on every run: a scan over every live
    # vector per step makes 21 960 pairings at side 14 and grows about 18x
    # to side 28, where n grows 4.3x; the indexed reduction and check grow
    # with the nonzeros they touch
    calls = []
    pairing = intlinalg._pairing

    def counted(u, Mw):
        calls.append(None)
        return pairing(u, Mw)

    monkeypatch.setattr(intlinalg, "_pairing", counted)
    monkeypatch.setattr(surface, "_pairing", counted)
    counts = []
    for d in (14, 28):
        _, S = built(triangle(d))
        del calls[:]
        homology_basis(S)
        counts.append(len(calls))
    assert counts[0] == 714
    assert counts[1] < 8 * counts[0]
