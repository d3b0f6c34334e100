import random
from itertools import combinations, permutations

import pytest
from oracles import solve_integer
from test_verify import count_calls

from vanishingcycles import intlinalg
from vanishingcycles.intlinalg import elementary_divisors, smith_normal_form
from vanishingcycles.spin import QuadraticFormZ2
from vanishingcycles.symp import transvection
from vanishingcycles.wedge import (
    BadModulus,
    BudgetExceeded,
    NotSymplecticSubspace,
    QuotientW3,
    Wedge3,
    WedgeError,
    _LatticeBasis,
    closure_transformations,
    contraction,
    contraction_section,
    embed_homology,
    generators_K,
    johnson_bp,
    lemma_next_closure,
    wedge,
)


def unit(n, t):
    return tuple(int(j == t) for j in range(n))


def rand_vec(rng, n, lo=-2, hi=2):
    return tuple(rng.randint(lo, hi) for _ in range(n))


# --- the alternating constructor -----------------------------------------------

def test_alternation_on_basis_triples():
    n = 6
    for a, b, c in combinations(range(n), 3):
        base = wedge(unit(n, a), unit(n, b), unit(n, c))
        assert not base.is_zero()
        for perm in permutations((a, b, c)):
            img = wedge(unit(n, perm[0]), unit(n, perm[1]), unit(n, perm[2]))
            flat = list(perm)
            swaps = sum(1 for i in range(3) for j in range(i + 1, 3)
                        if flat[i] > flat[j])
            assert img == base if swaps % 2 == 0 else img == -base
    assert wedge(unit(n, 0), unit(n, 0), unit(n, 1)).is_zero()
    assert wedge(unit(n, 2), unit(n, 1), unit(n, 2)).is_zero()


def test_trilinearity():
    rng = random.Random(5)
    n = 8
    for _ in range(20):
        u, u2, v, w = (rand_vec(rng, n) for _ in range(4))
        usum = tuple(a + b for a, b in zip(u, u2))
        assert wedge(usum, v, w) == wedge(u, v, w) + wedge(u2, v, w)
        assert wedge(u, v, w) == -wedge(v, u, w)
        assert (3 * wedge(u, v, w)).coords == wedge(
            tuple(3 * x for x in u), v, w).coords


def test_wedge_shape_validation():
    with pytest.raises(WedgeError):
        Wedge3(5, (0,) * 10)
    with pytest.raises(WedgeError):
        Wedge3(6, (0,) * 3)
    with pytest.raises(WedgeError):
        wedge((1, 0), (0, 1), (1, 1, 0))
    with pytest.raises(WedgeError):
        Wedge3.zero(6) + Wedge3.zero(8)


# --- contraction ----------------------------------------------------------------

def test_contraction_identities_exhaustive():
    g, n = 4, 8
    for i in range(g):
        xi, yi = unit(n, 2 * i), unit(n, 2 * i + 1)
        for t in range(n):
            if t in (2 * i, 2 * i + 1):
                continue
            assert contraction(wedge(unit(n, t), xi, yi)) == unit(n, t)
    for hs in combinations(range(g), 3):
        for a in (2 * hs[0], 2 * hs[0] + 1):
            for b in (2 * hs[1], 2 * hs[1] + 1):
                for c in (2 * hs[2], 2 * hs[2] + 1):
                    w = wedge(unit(n, a), unit(n, b), unit(n, c))
                    assert contraction(w) == (0,) * n


def test_contraction_of_embedded_vectors():
    rng = random.Random(7)
    for g in (3, 4, 5):
        n = 2 * g
        for _ in range(5):
            v = rand_vec(rng, n)
            assert contraction(embed_homology(v)) == tuple(
                (g - 1) * x for x in v)
            assert contraction(embed_homology(v), g - 1) == (0,) * n


def test_contraction_modulus_rules():
    n = 10
    w = wedge(unit(n, 4), unit(n, 0), unit(n, 1))
    assert contraction(w, 3) == unit(n, 4)
    coset = QuotientW3(w)
    assert contraction(coset, 4) == unit(n, 4)
    assert contraction(coset, 2) == unit(n, 4)
    with pytest.raises(BadModulus):
        contraction(coset, 3)       # 3 does not divide g-1 = 4
    with pytest.raises(BadModulus):
        contraction(coset, 0)
    with pytest.raises(BadModulus):
        contraction(w, -1)
    with pytest.raises(WedgeError):
        contraction((1, 2, 3))


def test_contraction_is_equivariant():
    rng = random.Random(13)
    n = 8
    letters = []
    for t in range(n):
        letters.append(transvection(unit(n, t)))
    letters.append(transvection(
        tuple(1 if t in (0, 3) else 0 for t in range(n))))
    for _ in range(15):
        M = letters[rng.randrange(len(letters))]
        for _ in range(rng.randint(1, 4)):
            M = M @ letters[rng.randrange(len(letters))]
        w = wedge(rand_vec(rng, n), rand_vec(rng, n), rand_vec(rng, n))
        moved = w.apply(M)
        assert contraction(moved) == M.apply(contraction(w))
        got = contraction(moved, 5)
        want = tuple(x % 5 for x in M.apply(contraction(w)))
        assert got == want


# --- the quotient by the embedded lattice ----------------------------------------

def test_quotient_kills_exactly_the_embedded_lattice():
    rng = random.Random(19)
    n = 10
    for _ in range(10):
        w = wedge(rand_vec(rng, n), rand_vec(rng, n), rand_vec(rng, n))
        v = rand_vec(rng, n)
        assert QuotientW3(w).representative == \
            QuotientW3(w + embed_homology(v)).representative
        assert QuotientW3(embed_homology(v)).is_zero()
    lone = wedge(unit(n, 1), unit(n, 5), unit(n, 7))  # y1 ^ y3 ^ y4
    assert not QuotientW3(lone).is_zero()


def test_quotient_arithmetic():
    n = 8
    a = wedge(unit(n, 0), unit(n, 1), unit(n, 2))
    b = wedge(unit(n, 1), unit(n, 3), unit(n, 6))
    assert (QuotientW3(a) + QuotientW3(b)).representative == \
        QuotientW3(a + b).representative
    assert (QuotientW3(a) - QuotientW3(a)).is_zero()
    assert (2 * QuotientW3(a)).representative == \
        QuotientW3(2 * a).representative
    with pytest.raises(WedgeError):
        QuotientW3(Wedge3.zero(2))  # no second handle to reduce against


# --- bounding-pair values ---------------------------------------------------------

def test_bounding_pair_one_handle_values():
    n = 6
    x1, y1, y2, y3 = unit(n, 0), unit(n, 1), unit(n, 3), unit(n, 5)
    bp1 = johnson_bp(1, (x1, y1), y2)
    assert bp1 == wedge(x1, y1, y2)
    shifted = tuple(a - b for a, b in zip(x1, y3))
    bp2 = johnson_bp(1, (shifted, y1), y2)
    assert bp2 == wedge(shifted, y1, y2)
    assert bp1 - bp2 == wedge(y3, y1, y2)


def test_bounding_pair_power_scales():
    n = 10
    x1, y1, x4 = unit(n, 0), unit(n, 1), unit(n, 6)
    r = 3
    assert r * johnson_bp(1, (x1, y1), x4) == r * wedge(x1, y1, x4)


def test_bounding_pair_two_handles():
    n = 8
    got = johnson_bp(2, (unit(n, 0), unit(n, 1), unit(n, 2), unit(n, 3)),
                     unit(n, 5))
    want = wedge(unit(n, 0), unit(n, 1), unit(n, 5)) + \
        wedge(unit(n, 2), unit(n, 3), unit(n, 5))
    assert got == want


def test_bounding_pair_input_validation():
    n = 6
    x1, y1, x2, y2 = unit(n, 0), unit(n, 1), unit(n, 2), unit(n, 3)
    with pytest.raises(NotSymplecticSubspace):
        johnson_bp(1, (x1,), y2)                       # wrong count
    with pytest.raises(NotSymplecticSubspace):
        johnson_bp(1, (x1, x2), y2)                    # pairing 0
    with pytest.raises(NotSymplecticSubspace):
        johnson_bp(2, (x1, y1, y2, x2), unit(n, 5))    # pairing -1
    with pytest.raises(NotSymplecticSubspace):
        johnson_bp(1, (x1, y1), x1)                    # c meets the handle
    with pytest.raises(NotSymplecticSubspace):
        johnson_bp(1, (x1, y1), (1, 0, 0, 0))          # mixed ranks


# --- kernel generators ------------------------------------------------------------

def test_generator_families_contract_to_zero():
    n = 10
    for elem in generators_K(5, 3):
        assert contraction(elem, 3) == (0,) * n
    n4 = 8
    for elem in generators_K(4, 3):
        assert contraction(QuotientW3(elem), 3) == (0,) * n4


def test_generator_families_span_the_kernel():
    g, r = 4, 3
    n = 2 * g
    rows = [list(e.coords) for e in generators_K(g, r)]
    rows += [list(e.coords) for e in contraction_section(g)]
    rows += [list(embed_homology(unit(n, t)).coords) for t in range(n)]
    divisors = elementary_divisors(rows)
    assert len(divisors) == len(rows[0]) == 56
    assert all(d == 1 for d in divisors)


def test_contraction_section_hits_every_basis_vector():
    for g in (2, 3, 4):
        n = 2 * g
        for t, elem in enumerate(contraction_section(g)):
            assert contraction(elem) == unit(n, t)


def test_generators_input_validation():
    with pytest.raises(WedgeError):
        generators_K(1, 3)
    with pytest.raises(WedgeError):
        generators_K(4, 0)


# --- the span closure -------------------------------------------------------------

def test_lattice_basis_spans_the_inserted_rows():
    # the echelon lemma_next_closure grows spans exactly the rows put in,
    # and a row already in the lattice does not change it
    rng = random.Random(23)
    for _ in range(40):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(5)]
        lattice = _LatticeBasis(4)
        for r in rows:
            lattice.insert(r)
        basis = lattice.basis_rows()
        if not basis:
            assert not any(any(r) for r in rows)
            continue
        bt = [list(col) for col in zip(*basis)]
        rt = [list(col) for col in zip(*rows)]
        for r in rows:
            assert solve_integer(bt, r) is not None
        for b in basis:
            assert solve_integer(rt, b) is not None
            assert not lattice.insert(b)
        assert lattice.basis_rows() == basis


def test_full_lattice_answer_matches_smith_divisors():
    # a triangular basis spans Z^n exactly when it has full rank and every
    # pivot is +-1; Smith divisors all 1 decide the same question another way
    rng = random.Random(41)
    seen = {"full, a pivot -1": 0, "full, pivots 1": 0,
            "unit pivots, low rank": 0, "full rank, a later pivot 2": 0}
    for _ in range(300):
        n = rng.randint(2, 6)
        rows = [[0] * t + [rng.choice((1, -1, 1, -1, 2, -2))]
                + [rng.randint(-3, 3) for _ in range(n - t - 1)]
                for t in range(n)]
        for _ in range(2 * n):   # unimodular row mixing
            i, j = rng.sample(range(n), 2)
            rows[i] = [a + rng.randint(-2, 2) * b
                       for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.2:
            k = rng.randrange(n)
            rows[k] = [2 * a for a in rows[k]]
        if rng.random() < 0.2:
            del rows[rng.randrange(n)]
        lattice = _LatticeBasis(n)
        for r in rows:
            lattice.insert(r)
        D, _, _ = smith_normal_form(rows)
        divisors = [abs(D[i][i]) for i in range(len(rows)) if D[i][i]]
        full = len(divisors) == n and all(d == 1 for d in divisors)
        assert lattice.is_full() == full
        pivots = [lattice.rows[c][c] for c in sorted(lattice.rows)]
        units = all(abs(p) == 1 for p in pivots)
        if full:
            seen["full, a pivot -1" if -1 in pivots else "full, pivots 1"] += 1
        elif units:
            seen["unit pivots, low rank"] += 1
        elif len(pivots) == n and abs(pivots[0]) == 1:
            seen["full rank, a later pivot 2"] += 1
    assert all(count > 5 for count in seen.values()), seen


def test_closure_runs_no_smith_form(monkeypatch):
    smith = count_calls(monkeypatch, intlinalg.smith_normal_form)
    assert lemma_next_closure(5, 0) is True
    assert smith == []


@pytest.mark.parametrize("parity", [0, 1])
def test_closure_reaches_the_full_cube(parity):
    assert lemma_next_closure(5, parity) is True


def test_closure_budget_semantics():
    assert lemma_next_closure(5, 0, max_rounds=0) is False
    with pytest.raises(BudgetExceeded):
        lemma_next_closure(5, 0, max_rounds=1)
    with pytest.raises(WedgeError):
        lemma_next_closure(4, 0)
    with pytest.raises(WedgeError):
        lemma_next_closure(5, 2)
    with pytest.raises(WedgeError):
        lemma_next_closure(5, 0, max_rounds=-1)


def test_closure_transformations_are_symplectic():
    from vanishingcycles.symp import SpMatrix
    for parity in (0, 1):
        mats = closure_transformations(5, parity)
        for rows in mats:
            SpMatrix(rows)  # construction validates the form


def test_replayed_transvection_vector_is_isotropic():
    # The always-available transvection uses x4 - x1, whose form value is 0
    # for both parity branches, so that twist does not fix either form; the
    # repaired vector x4 - x1 + x2 evaluates to 1.  The span closure above
    # succeeds regardless, which is the point being recorded here.
    for values in ((1,) * 10, (1,) * 9 + (0,)):
        q = QuadraticFormZ2(values)
        bad = [0] * 10
        bad[6], bad[0] = 1, -1
        assert q.evaluate(bad) == 0
        repaired = list(bad)
        repaired[2] = 1
        assert q.evaluate(repaired) == 1
