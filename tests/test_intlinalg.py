import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanishingcycles.intlinalg import (
    det_bareiss,
    smith_normal_form,
    elementary_divisors,
    solve_integer,
    integer_row_echelon,
    ext_gcd,
    symplectic_gram_schmidt,
    standard_j,
    mat_mul,
    mat_vec,
    rank_mod2,
    solve_mod2,
)


def random_matrix(rng, n, m, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_det_small_cases():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(40):
        a = random_matrix(rng, 4, 4)
        b = random_matrix(rng, 4, 4)
        assert det_bareiss(mat_mul(a, b)) == det_bareiss(a) * det_bareiss(b)


def test_ext_gcd():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        g, x, y = ext_gcd(a, b)
        assert a * x + b * y == g
        assert g >= 0


def test_snf_transforms_and_divisibility():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        diag = [d[i][i] for i in range(min(n, m))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0
                assert diag[i + 1] % diag[i] == 0
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0


def test_elementary_divisors_known():
    assert elementary_divisors([[2, 0], [0, 4]]) == [2, 4]
    assert elementary_divisors([[2, 4], [4, 2]]) == [2, 6]
    assert elementary_divisors([[1, 0], [0, 1]]) == [1, 1]


def test_solve_integer():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = random_matrix(rng, n, m, -4, 4)
        x = [rng.randint(-3, 3) for _ in range(m)]
        b = mat_vec(a, x)
        sol = solve_integer(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
    assert solve_integer([[2]], [1]) is None
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]


def test_row_echelon_spans_same_lattice():
    rng = random.Random(23)
    for _ in range(40):
        rows = random_matrix(rng, 5, 4, -4, 4)
        basis = integer_row_echelon(rows, 4)
        # every original row must be an integer combination of echelon rows
        if not basis:
            assert all(all(c == 0 for c in r) for r in rows)
            continue
        bt = [list(col) for col in zip(*basis)]
        for r in rows:
            assert solve_integer(bt, list(r)) is not None


def test_symplectic_gram_schmidt_standard():
    rng = random.Random(5)
    for g in (1, 2, 3):
        j = standard_j(g)
        basis = symplectic_gram_schmidt(j)
        n = 2 * g
        assert len(basis) == n
        for i in range(n):
            for k in range(n):
                pair = sum(basis[i][a] * j[a][b] * basis[k][b] for a in range(n) for b in range(n))
                expect = 0
                if i // 2 == k // 2:
                    if i % 2 == 0 and k % 2 == 1:
                        expect = 1
                    elif i % 2 == 1 and k % 2 == 0:
                        expect = -1
                assert pair == expect


def test_symplectic_gram_schmidt_congruent_form():
    # a nonstandard unimodular antisymmetric pairing still has a symplectic basis
    rng = random.Random(41)
    g = 2
    j = standard_j(g)
    for _ in range(20):
        # congruence by a random unimodular matrix keeps the pairing unimodular
        s = [[rng.randint(-2, 2) for _ in range(2 * g)] for _ in range(2 * g)]
        for i in range(2 * g):
            s[i][i] = 1
            for k in range(i + 1, 2 * g):
                s[i][k] = 0
        m = mat_mul(mat_mul([list(r) for r in zip(*s)], j), s)
        basis = symplectic_gram_schmidt(m)
        n = 2 * g
        for i in range(n):
            for k in range(n):
                pair = sum(basis[i][a] * m[a][b] * basis[k][b] for a in range(n) for b in range(n))
                if i // 2 == k // 2 and i != k:
                    assert pair == (1 if i % 2 == 0 else -1)
                else:
                    assert pair == 0


def test_symplectic_gram_schmidt_rejects_degenerate_and_non_unimodular():
    with pytest.raises(ValueError, match="degenerate pairing"):
        symplectic_gram_schmidt([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="not unimodular"):
        symplectic_gram_schmidt([[0, 2], [-2, 0]])


@st.composite
def unimodular_congruences(draw):
    """(g, S^T J S) for a unimodular S = L U with unit triangular L, U."""
    g = draw(st.integers(1, 5))
    n = 2 * g
    entries = st.integers(-2, 2)
    lower = [[1 if i == k else draw(entries) if k < i else 0 for k in range(n)]
             for i in range(n)]
    upper = [[1 if i == k else draw(entries) if k > i else 0 for k in range(n)]
             for i in range(n)]
    s = mat_mul(lower, upper)
    return g, mat_mul(mat_mul([list(r) for r in zip(*s)], standard_j(g)), s)


@settings(max_examples=60, deadline=None)
@given(unimodular_congruences())
def test_symplectic_gram_schmidt_property(case):
    g, m = case
    basis = symplectic_gram_schmidt(m)
    b_t = [list(col) for col in zip(*basis)]
    assert mat_mul(mat_mul(basis, m), b_t) == standard_j(g)


def test_solve_mod2_against_brute_force():
    rng = random.Random(13)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = random_matrix(rng, rng.randint(1, 8), n, -3, 3)
        rhs = [rng.randint(-3, 3) for _ in rows]
        solutions = [x for x in itertools.product((0, 1), repeat=n)
                     if all(sum(a * b for a, b in zip(row, x)) % 2 == c % 2
                            for row, c in zip(rows, rhs))]
        x = solve_mod2(rows, rhs, n)
        seen[bool(solutions)] += 1
        if solutions:
            assert tuple(x) in solutions
        else:
            assert x is None
    assert seen[True] > 20 and seen[False] > 20


def test_rank_mod2():
    assert rank_mod2([[1, 0], [0, 1]], 2) == 2
    assert rank_mod2([[2, 4], [6, 8]], 2) == 0
    assert rank_mod2([[1, 1], [1, 1]], 2) == 1
    assert rank_mod2([], 3) == 0
