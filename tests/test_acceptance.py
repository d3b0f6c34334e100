"""Top-level acceptance suite: one criterion per test, one verdict line each.

Each test prints a single ``criterion N: PASS`` line on success (visible with
``pytest -s``; under plain ``pytest`` the test name and outcome serve as the
line).  Failures raise with the offending values.
"""

import math
import random
import time

from oracles import coherence_check, dense_form

from vanishingcycles.lattice import (
    Polygon,
    adjoint_divisibility,
    convex_hull,
    genus,
)
from vanishingcycles.network import (
    ACurve,
    BCurve,
    build_network,
    geometric_intersection,
)
from vanishingcycles.spin import (
    MarkedCurve,
    QuadraticFormZ2,
    canonical_spin,
    marked_network_curve,
    q2,
    twist,
)
from vanishingcycles.surface import (
    complement_regions,
    curve_class,
    homology_basis,
    inflate,
)
from vanishingcycles.symp import (
    SpMatrix,
    anisotropic_closure_order,
    model_chain,
    model_dn,
    quadratic_form_orbits,
    sp_mod2_bfs_order,
    sp_q_stabilizer_bruteforce,
    square_transvection_identity,
    transvection,
    verify_chain,
    verify_dn,
    word_matrix,
)
from vanishingcycles.verify import check_networkgenset, is_vanishing_cycle
from vanishingcycles.wedge import (
    contraction,
    generators_K,
    lemma_next_closure,
    wedge,
)
from vanishingcycles.intlinalg import elementary_divisors

TRIANGLE6 = Polygon(((0, 0), (6, 0), (0, 6)))


def _verdict(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def _pairing(u, v) -> int:
    total = 0
    for k in range(0, len(u) - 1, 2):
        total += u[k] * v[k + 1] - u[k + 1] * v[k]
    return total


# --- 1. end-to-end on the side-6 triangle ----------------------------------------

def test_criterion_1_side6_end_to_end():
    start = time.perf_counter()
    report = check_networkgenset(TRIANGLE6)
    assert report.g == 10 and report.r == 3
    assert "network_connected" not in report.evidence
    assert report.evidence["network_betti"] == 1
    assert report.evidence["reduced_tree"] is True
    assert report.evidence["euler"] == -18
    assert all(report.hypotheses[k] is True for k in ("H1", "H2", "H3", "H4"))
    assert "full stabilizer" in report.classification
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _verdict(1, "side-6 triangle end to end")


# --- 2. plane-curve family ---------------------------------------------------------

def test_criterion_2_plane_curve_family():
    for d in range(4, 9):
        P = Polygon(((0, 0), (d, 0), (0, d)))
        assert genus(P) == (d - 1) * (d - 2) // 2, d
        assert adjoint_divisibility(P) == d - 3, d
    _verdict(2, "plane curves d=4..8")


# --- 3. interior-point count against the area formula ------------------------------

def test_criterion_3_pick_oracle():
    rng = random.Random(31415)
    checked = 0
    while checked < 120:
        pts = [(rng.randint(-10, 10), rng.randint(-10, 10))
               for _ in range(rng.randint(3, 12))]
        try:
            P = convex_hull(pts)
        except ValueError:
            continue
        verts = list(P.vertices)
        twice_area = 0
        boundary = 0
        for i, (x1, y1) in enumerate(verts):
            x2, y2 = verts[(i + 1) % len(verts)]
            twice_area += x1 * y2 - x2 * y1
            boundary += math.gcd(abs(x2 - x1), abs(y2 - y1))
        expected = (abs(twice_area) - boundary + 2) // 2
        assert (abs(twice_area) - boundary) % 2 == 0
        assert genus(P) == expected, verts
        checked += 1
    _verdict(3, f"interior count vs area formula on {checked} random polygons")


# --- 4. intersection form ----------------------------------------------------------

def _filling_corpus():
    base = [Polygon(((0, 0), (d, 0), (0, d))) for d in range(4, 9)]
    base += [Polygon(((0, 0), (s, 0), (s, s), (0, s))) for s in range(3, 8)]
    base += [Polygon(((0, 0), (a, 0), (a, b), (0, b)))
             for a, b in ((3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
                          (4, 7), (5, 6), (5, 7), (6, 7))]
    rng = random.Random(6283)
    images = []
    for P in base[:8]:
        s = rng.randint(-2, 2)
        t = rng.randint(-2, 2)
        images.append(Polygon(tuple((x + s * y + 1, y + t * (x + s * y))
                                    for x, y in P.vertices)))
    return base + images


def test_criterion_4_intersection_form():
    corpus = _filling_corpus()
    assert len(corpus) >= 25
    for P in corpus:
        net = build_network(P)
        S = inflate(net)
        form = homology_basis(S)
        gram = dense_form(S).gram
        n = len(gram)
        assert all(gram[i][j] == -gram[j][i] for i in range(n)
                   for j in range(n))
        assert all(d == 1 for d in elementary_divisors(
            [list(row) for row in gram]))
        assert form.genus == genus(P)
        assert (2 - S.euler()) // 2 == genus(P)
        classes = {c: curve_class(S, c) for c in net.curve_list()}
        for a in net.a_curves():
            for b in net.b_curves():
                pair = _pairing(classes[a], classes[b])
                at_endpoint = a.point in b.segment.endpoints()
                assert abs(pair) == (1 if at_endpoint else 0), (a, b)
                assert geometric_intersection(a, b) == abs(pair)
    _verdict(4, f"unimodular antisymmetric form on {len(corpus)} polygons")


# --- 5. relation suite -------------------------------------------------------------

def test_criterion_5_relation_suite():
    start = time.perf_counter()

    chain2, boundary2 = model_chain(2)
    assert len(boundary2) == 1 and not any(boundary2[0].h)  # separating
    W = word_matrix(chain2)
    assert W ** 6 == SpMatrix.identity(2)
    assert verify_chain(chain2, boundary2)

    chain3, boundary3 = model_chain(3)
    lhs = word_matrix(chain3) ** 4
    rhs = SpMatrix.identity(4)
    for b in boundary3:
        rhs = rhs @ transvection(b.h)
    assert lhs == rhs
    assert verify_chain(chain3, boundary3)

    for n in range(3, 10):
        config, boundary = model_dn(n)
        assert verify_dn(config, boundary), n

    assert square_transvection_identity(
        (1, 0, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, -1), (0, 0, 0, 0, 1, 0))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _verdict(5, "chain, forked-chain and square-transvection identities")


# --- 6. quadratic-form enumeration ---------------------------------------------------

def test_criterion_6_quadratic_forms():
    start = time.perf_counter()

    census = quadratic_form_orbits(2)   # asserts exactly two orbits
    assert census == {0: 10, 1: 6}
    assert sp_mod2_bfs_order(2) == 720

    # Stabilizers for g <= 3, both parities.  Generation by anisotropic
    # transvections is a theorem from genus 3 on; the order of the generated
    # subgroup (Schreier-Sims) equals the orbit-stabilizer count there, and
    # below that range the honest data is reported, including the classical
    # genus-2 even-parity exception (generated subgroup of index 2).
    order, generated = sp_q_stabilizer_bruteforce(1, QuadraticFormZ2((1, 1)))
    assert (order, generated) == (6, True)
    order, generated = sp_q_stabilizer_bruteforce(1, QuadraticFormZ2((1, 0)))
    assert (order, generated) == (2, True)

    order, generated = sp_q_stabilizer_bruteforce(2, QuadraticFormZ2((1, 1, 1, 0)))
    assert (order, generated) == (120, True)
    even2 = QuadraticFormZ2((1, 1, 1, 1))
    order, generated = sp_q_stabilizer_bruteforce(2, even2)
    assert (order, generated) == (72, False)
    assert anisotropic_closure_order(2, even2) == 36

    for values in ((1,) * 6, (1, 1, 1, 1, 1, 0)):
        order, generated = sp_q_stabilizer_bruteforce(3, QuadraticFormZ2(values))
        assert generated is True, values
        assert order in (51840, 40320)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _verdict(6, "orbit census, group order, anisotropic stabilizers g<=3")


# --- 7. wedge calculus ----------------------------------------------------------------

def test_criterion_7_wedge_calculus():
    start = time.perf_counter()

    g = 4
    n = 2 * g
    basis = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    for t in range(n):
        for i in range(g):
            if t in (2 * i, 2 * i + 1):
                continue
            w = wedge(basis[t], basis[2 * i], basis[2 * i + 1])
            assert contraction(w) == basis[t], (t, i)
    # triples drawn from three distinct handles contract to zero
    for t1 in (0, 1):
        for t2 in (2, 3):
            for t3 in (4, 5):
                assert contraction(wedge(basis[t1], basis[t2], basis[t3])) \
                    == (0,) * n

    for element in generators_K(5, 3):
        assert all(x % 3 == 0 for x in contraction(element))

    assert lemma_next_closure(5, 0) is True
    assert lemma_next_closure(5, 1) is True

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _verdict(7, "contraction identities, kernel families, closure at g=5")


# --- 8. structure propagation properties ----------------------------------------------

def _pipeline(P):
    net = build_network(P)
    S = inflate(net)
    spin = canonical_spin(S)
    marked = [marked_network_curve(S, spin, c) for c in net.curve_list()]
    return net, S, spin, marked


def test_criterion_8_spin_propagation():
    square = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))
    rng = random.Random(97)

    for P in (TRIANGLE6, square):
        net, S, spin, marked = _pipeline(P)
        shadow = q2(spin) if spin.r % 2 == 0 else None

        for _ in range(5000):
            target = marked[rng.randrange(len(marked))]
            image = target
            for _ in range(rng.randint(1, 6)):
                image = twist(image, marked[rng.randrange(len(marked))])
            assert image.phi % spin.r == 0
            if shadow is not None:
                assert image.phi % 2 == (shadow.evaluate(image.h) - 1) % 2

        # coherence on every region cut out by either curve family: all
        # boundary values vanish, so each Euler number must vanish mod r
        for family in (ACurve, BCurve):
            cut = [c for c in net.curve_list() if isinstance(c, family)]
            for region in complement_regions(S, cut):
                zeros = [MarkedCurve((0,) * (2 * S.genus()), 0, spin.r)
                         for _ in range(max(1, len(region.boundary_curves)))]
                assert coherence_check(zeros, region.chi), region

    # Arf invariance under random symplectic base changes
    net, S, spin, marked = _pipeline(square)
    form = q2(spin)
    n = len(form.values)
    current = form
    for _ in range(100):
        v = marked[rng.randrange(len(marked))].h
        m = transvection(v)
        moved = QuadraticFormZ2(tuple(
            current.evaluate(m.apply(tuple(1 if k == i else 0
                                           for k in range(n))))
            for i in range(n)))
        assert moved.arf() == form.arf()
        current = moved
    _verdict(8, "value preservation, mod-2 shadow, coherence, Arf invariance")


# --- 9. vanishing-cycle decisions ------------------------------------------------------

def test_criterion_9_vanishing_cycle_answers():
    report = check_networkgenset(TRIANGLE6)
    net, S, spin, marked = _pipeline(TRIANGLE6)
    rng = random.Random(271828)

    for mc in marked:
        assert is_vanishing_cycle(mc, report)

    for _ in range(300):
        image = marked[rng.randrange(len(marked))]
        for _ in range(rng.randint(1, 5)):
            image = twist(image, marked[rng.randrange(len(marked))])
        assert is_vanishing_cycle(image, report)

    for _ in range(300):
        base = marked[rng.randrange(len(marked))]
        bad_value = MarkedCurve(base.h, rng.randrange(1, spin.r), spin.r)
        assert not is_vanishing_cycle(bad_value, report)
        even_class = MarkedCurve(tuple(2 * x for x in base.h), 0, spin.r)
        assert not is_vanishing_cycle(even_class, report)
    _verdict(9, "admissibility decides the sampled vanishing-cycle queries")
