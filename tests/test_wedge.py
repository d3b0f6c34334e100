import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    DenseLatticeBasis,
    closure_rounds_oracle,
    contraction_section,
    embed_homology,
    solve_integer,
    wedge3_apply,
)
from test_verify import count_calls

from vanishingcycles import intlinalg
from vanishingcycles import wedge as wedge_module
from vanishingcycles.intlinalg import elementary_divisors, smith_normal_form
from vanishingcycles.spin import QuadraticFormZ2
from vanishingcycles.symp import SpMatrix, transvection
from vanishingcycles.wedge import (
    BudgetExceeded,
    Wedge3,
    WedgeError,
    _LatticeBasis,
    _induced_columns,
    _triples,
    closure_transformations,
    contraction,
    generators_K,
    lemma_next_closure,
    wedge,
)


def unit(n, t):
    return tuple(int(j == t) for j in range(n))


def rand_vec(rng, n, lo=-2, hi=2):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def dense_rows(lattice):
    """The echelon rows of a ``_LatticeBasis`` by pivot, written out."""
    return [[row.get(i, 0) for i in range(lattice.ncols)]
            for _, row in sorted(lattice.rows.items())]


# --- the alternating constructor -----------------------------------------------

def test_alternation_on_basis_triples():
    n = 6
    for a, b, c in combinations(range(n), 3):
        base = wedge(unit(n, a), unit(n, b), unit(n, c))
        assert any(base.coords)
        for perm in permutations((a, b, c)):
            img = wedge(unit(n, perm[0]), unit(n, perm[1]), unit(n, perm[2]))
            flat = list(perm)
            swaps = sum(1 for i in range(3) for j in range(i + 1, 3)
                        if flat[i] > flat[j])
            assert img == base if swaps % 2 == 0 else img == -base
    assert not any(wedge(unit(n, 0), unit(n, 0), unit(n, 1)).coords)
    assert not any(wedge(unit(n, 2), unit(n, 1), unit(n, 2)).coords)


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
        Wedge3(6, (0,) * 20) + Wedge3(8, (0,) * 56)
    with pytest.raises(WedgeError):
        contraction((1, 2, 3))


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
        moved = wedge3_apply(w, M)
        assert contraction(moved) == M.apply(contraction(w))


# --- kernel generators ------------------------------------------------------------

def test_generator_families_contract_to_zero():
    for g in (4, 5):
        for elem in generators_K(g, 3):
            assert all(x % 3 == 0 for x in contraction(elem))


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
            lattice.insert(dict(enumerate(r)))
        basis = dense_rows(lattice)
        if not basis:
            assert not any(any(r) for r in rows)
            continue
        bt = [list(col) for col in zip(*basis)]
        rt = [list(col) for col in zip(*rows)]
        for r in rows:
            assert solve_integer(bt, r) is not None
        for b in basis:
            assert solve_integer(rt, b) is not None
            assert not lattice.insert(dict(enumerate(b)))
        assert dense_rows(lattice) == basis


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
            lattice.insert(dict(enumerate(r)))
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


@st.composite
def row_lists(draw):
    width = draw(st.integers(1, 8))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    return width, draw(st.lists(row, max_size=12))


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_sparse_echelon_matches_the_dense_one(case):
    width, rows = case
    sparse, dense = _LatticeBasis(width), DenseLatticeBasis(width)
    for r in rows:
        assert sparse.insert(dict(enumerate(r))) == dense.insert(r)
        assert dense_rows(sparse) == dense.basis_rows()
    assert sparse.is_full() == dense.is_full()


def test_closure_runs_no_smith_form(monkeypatch):
    smith = count_calls(monkeypatch, intlinalg.smith_normal_form)
    assert lemma_next_closure(5, 0) is True
    assert smith == []


@pytest.mark.parametrize("parity", [0, 1])
def test_closure_reaches_the_full_cube(parity):
    assert lemma_next_closure(5, parity) is True


@pytest.mark.parametrize("g", [7, 8])
@pytest.mark.parametrize("parity", [0, 1])
def test_closure_reaches_the_full_cube_at_higher_genus(g, parity):
    assert lemma_next_closure(g, parity) is True


def _recorded_lattices(monkeypatch, module, name):
    """The list that every echelon built from ``module.name`` is appended
    to from now on."""
    made = []

    class Recorded(getattr(module, name)):
        def __init__(self, ncols):
            super().__init__(ncols)
            made.append(self)

    monkeypatch.setattr(module, name, Recorded)
    return made


def _answer(closure, *args):
    try:
        return closure(*args)
    except BudgetExceeded:
        return BudgetExceeded


@pytest.mark.parametrize("g", [5, 6])
@pytest.mark.parametrize("parity", [0, 1])
def test_closure_matches_the_full_basis_rounds(monkeypatch, g, parity):
    # mapping only the rows that grew the lattice gives the lattice of
    # mapping the whole basis, round by round, so every budget answers alike
    # and ends on the same lattice: the same ideal of leading coefficients
    # on every pivot column, and each oracle row already inside
    dense_made = _recorded_lattices(monkeypatch, oracles, "DenseLatticeBasis")
    sparse_made = _recorded_lattices(monkeypatch, wedge_module,
                                     "_LatticeBasis")
    for max_rounds in range(9):
        want = _answer(closure_rounds_oracle, g, parity, max_rounds)
        assert _answer(lemma_next_closure, g, parity, max_rounds) is want, \
            max_rounds
        dense, sparse = dense_made[-1], sparse_made[-1]
        assert ({c: abs(row[c]) for c, row in sparse.rows.items()}
                == {c: abs(row[c]) for c, row in dense.rows.items()})
        inside = _LatticeBasis(sparse.ncols)
        inside.rows = dict(sparse.rows)
        assert not any(inside.insert(dict(enumerate(r)))
                       for r in dense.basis_rows()), max_rounds


@pytest.mark.parametrize("g", [5, 6])
@pytest.mark.parametrize("parity", [0, 1])
def test_cube_columns_match_the_wedge_of_the_image_columns(g, parity):
    # every column of the cube of every replayed transformation, the
    # one-entry columns of swaps and quarter turns included, is the wedge
    # of the three image columns of its triple
    n = 2 * g
    triples = _triples(n)
    for rows in closure_transformations(g, parity):
        m = SpMatrix(rows)
        for t, column in enumerate(_induced_columns(rows, n)):
            targets = [i for i, _ in column]
            assert len(set(targets)) == len(targets)
            assert all(v for _, v in column)
            dense = [0] * len(triples)
            for i, v in column:
                dense[i] = v
            a, b, c = triples[t]
            seed = wedge(unit(n, a), unit(n, b), unit(n, c))
            assert tuple(dense) == wedge3_apply(seed, m).coords, (rows, t)


def test_closure_maps_only_rows_that_grew_the_lattice(monkeypatch):
    # one image per transformation of the seed and of each row whose
    # insertion changed the lattice, no round after the lattice is full, and
    # no image put in twice
    results = []
    keys = []
    insert = _LatticeBasis.insert

    def recorded(self, row):
        keys.append(frozenset((c, v) for c, v in row.items() if v))
        results.append(insert(self, row))
        return results[-1]

    monkeypatch.setattr(_LatticeBasis, "insert", recorded)
    assert lemma_next_closure(6, 1) is True
    images = len(results) - 1
    assert images <= len(closure_transformations(6, 1)) * sum(results)
    assert len(set(keys)) == len(keys)


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
