import random

import pytest
from ribbon_oracle import chord_gram, curve_pairing

from vanishingcycles.intlinalg import smith_normal_form, standard_j
from vanishingcycles.lattice import IDENTITY_MAP, Polygon, Segment
from vanishingcycles.network import (
    ACurve,
    BCurve,
    Network,
    build_network,
    curve_crossings,
    spanning_tree_correspondence,
    subnetwork_nprime,
)
from vanishingcycles.spin import _pairing
from vanishingcycles.surface import (
    EmptySurface,
    NonTransverseData,
    NotClosedSurface,
    PhantomVertex,
    SurfaceError,
    UnknownCurve,
    complement_regions,
    curve_class,
    duplicate_pairs,
    euler_and_faces,
    homology_basis,
    inflate,
    is_filling,
    planar_filling_oracle,
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
    chi, faces = euler_and_faces(S)
    assert (len(S.vertices), len(S.arcs)) == (1, 2)
    assert chi == 0 and len(faces) == 1
    assert S.genus() == 1
    assert is_filling(TRIANGLE3, net)


def test_torus_other_anchor_end():
    # same shape with the segment leaving the interior point instead
    net = torus_network(Segment((1, 1), (1, 2)))
    S = inflate(TRIANGLE3, net)
    assert euler_and_faces(S)[0] == 0
    assert is_filling(TRIANGLE3, net)


def test_triangle6_counts():
    net, S = built(TRIANGLE6)
    chi, faces = euler_and_faces(S)
    assert (len(S.vertices), len(S.arcs)) == (28, 56)
    assert chi == -18 and len(faces) == 10
    assert S.genus() == 10
    assert is_filling(TRIANGLE6, net)


def test_triangle4_counts():
    net, S = built(TRIANGLE4)
    chi, faces = euler_and_faces(S)
    assert (len(S.vertices), len(S.arcs)) == (11, 22)
    assert chi == -4 and len(faces) == 7
    assert S.genus() == 3


def test_square4_counts():
    net, S = built(SQUARE4)
    chi, faces = euler_and_faces(S)
    assert chi == -16 and len(faces) == 12
    assert S.genus() == 9


def test_rotation_is_a_dart_partition():
    _, S = built(TRIANGLE6)
    seen = []
    for v, darts in S.rotation.items():
        for d in darts:
            seen.append(d)
            arc, end = d
            assert (arc.start, arc.end)[end] == v or isinstance(v, PhantomVertex)
    assert len(seen) == len(set(seen)) == 2 * len(S.arcs)


def test_circles_alone_are_genus_zero_shells():
    net = Network(polygon=TRIANGLE6, kappa=(1, 1),
                  clauses={ACurve((1, 1)): 0, ACurve((2, 2)): 0},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    S = inflate(TRIANGLE6, net)
    comps = S.components()
    assert len(comps) == 2
    chi, faces = euler_and_faces(S)
    assert chi == 4 and len(faces) == 4  # two capped spheres
    assert not is_filling(TRIANGLE6, net)


def test_inflate_rejects_wrong_polygon():
    net, _ = built(TRIANGLE6)
    with pytest.raises(SurfaceError):
        inflate(TRIANGLE4, net)


def test_inflate_rejects_overlapping_segments():
    long = object.__new__(Segment)
    object.__setattr__(long, "a", (0, 0))
    object.__setattr__(long, "b", (2, 0))
    net = Network(polygon=TRIANGLE3, kappa=(1, 1),
                  clauses={BCurve(long): 0, BCurve(Segment((0, 0), (1, 0))): 0},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    with pytest.raises(NonTransverseData):
        inflate(TRIANGLE3, net)


def test_empty_network_has_no_euler_number():
    net = Network(polygon=TRIANGLE3, kappa=(1, 1), clauses={},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    S = inflate(TRIANGLE3, net)
    with pytest.raises(EmptySurface):
        euler_and_faces(S)


def test_inflate_is_deterministic():
    _, S1 = built(TRIANGLE6)
    _, S2 = built(TRIANGLE6)
    assert S1.vertices == S2.vertices
    assert S1.arcs == S2.arcs
    assert S1.rotation == S2.rotation
    assert S1.faces == S2.faces


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
    pairing = curve_pairing(S, tree)
    for i, c1 in enumerate(form.chords):
        for j, c2 in enumerate(form.chords):
            assert pairing[c1, c2] == form.chord_gram[i][j], (c1, c2)


def test_cycle_pairing_on_curve_cycles():
    net, S = built(TRIANGLE4)
    pairing = curve_pairing(S)
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
    net = Network(polygon=TRIANGLE6, kappa=(1, 1),
                  clauses={ACurve((1, 1)): 0, ACurve((2, 2)): 0},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    S = inflate(TRIANGLE6, net)
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
    corr = spanning_tree_correspondence(net)
    surrendered = set(corr.values())
    kept = [a for a in S.arcs if a not in surrendered]
    assert len(kept) == len(S.vertices) - 1
    chords, gram = chord_gram(S, tree=kept)
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
    corr = spanning_tree_correspondence(net)
    for c, arc in corr.items():
        assert arc in S.curve_arcs[c]
        others = [a for a in S.curve_arcs[c] if a != arc]
        assert len(others) == len(S.curve_arcs[c]) - 1


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
    base = build_network(TRIANGLE6)
    xs = {BCurve(Segment((i, 0), (i + 1, 0))): 3 for i in range(-1, 4)}
    net = Network(polygon=base.polygon, kappa=base.kappa, clauses=xs,
                  embedding=base.embedding, r=base.r,
                  adjoint_polygon=base.adjoint_polygon)
    assert not is_filling(base.polygon, net)
    assert not planar_filling_oracle(base.polygon, net)


def test_oracle_agrees_on_random_admissible_polygons():
    bases = [
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
    rng = random.Random(20260814)
    for _ in range(26):
        base = bases[rng.randrange(len(bases))]
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
        tx, ty = rng.randint(-4, 4), rng.randint(-4, 4)
        verts = []
        for x, y in base:
            x1, y1 = x + p * y, y  # shear, then shear, then translate
            verts.append((x1 + tx, y1 + q * x1 + ty))
        P = Polygon(tuple(verts))
        net = build_network(P)
        assert is_filling(P, net) == planar_filling_oracle(P, net) is True


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
        both = sum(1 for x in S.vertices
                   if not isinstance(x, PhantomVertex)
                   and x.a in cut and x.b in cut)
        regs = complement_regions(S, cut)
        assert sum(r.chi for r in regs) == -18 + both


def test_regions_reject_unknown_curves_and_open_surfaces():
    net, S = built(TRIANGLE6)
    with pytest.raises(UnknownCurve):
        complement_regions(S, [ACurve((9, 9))])
    sub = Network(polygon=TRIANGLE6, kappa=(1, 1),
                  clauses={ACurve((1, 1)): 0, ACurve((2, 2)): 0},
                  embedding=IDENTITY_MAP, r=1, adjoint_polygon=None)
    with pytest.raises(NotClosedSurface):
        complement_regions(inflate(TRIANGLE6, sub), [ACurve((1, 1))])


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


def test_relative_filling_fails_for_present_segment():
    net = build_network(TRIANGLE6)
    assert not relative_filling(TRIANGLE6, net, Segment((0, 0), (1, 0)))
