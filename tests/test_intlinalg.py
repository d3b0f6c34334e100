import itertools
import random
import sys
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    det_bareiss,
    mat_mul,
    mat_vec,
    rank_mod2,
    scan_reduction,
    solve_integer,
    standard_j,
)

from vanishingcycles.intlinalg import (
    smith_normal_form,
    elementary_divisors,
    ext_gcd,
    support,
    symplectic_gram_schmidt,
    symplectic_reduction,
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


def recursive_ext_gcd(a, b):
    # the recursive form the library used to have; its coefficients are the
    # ones wedge.lemma_next_closure was written against
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = recursive_ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def test_ext_gcd_matches_the_recursive_form():
    for a in range(-30, 31):
        for b in range(-30, 31):
            assert ext_gcd(a, b) == recursive_ext_gcd(a, b), (a, b)
    rng = random.Random(29)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # the oracle recurses once per Euclid step
    try:
        for _ in range(200):
            a = rng.getrandbits(rng.randint(1, 2000)) * rng.choice((1, -1))
            b = rng.getrandbits(rng.randint(1, 2000)) * rng.choice((1, -1))
            assert ext_gcd(a, b) == recursive_ext_gcd(a, b)
    finally:
        sys.setrecursionlimit(limit)


def test_ext_gcd_of_long_euclid_chains():
    # consecutive Fibonacci numbers take the most Euclid steps for their
    # size: 1200 here, beyond the interpreter's default recursion limit
    f = [0, 1]
    while len(f) < 1202:
        f.append(f[-1] + f[-2])
    a, b = f[1201], f[1200]
    assert a.bit_length() > 800
    g, x, y = ext_gcd(a, b)
    assert g == 1 and x * a + y * b == 1


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


def bit_masks(rows):
    """Each row mod 2 as the int mask that ``solve_mod2`` takes."""
    return [sum((x & 1) << j for j, x in enumerate(row)) for row in rows]


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
        x = solve_mod2(bit_masks(rows), rhs, n)
        seen[bool(solutions)] += 1
        if solutions:
            assert tuple(x) in solutions
        else:
            assert x is None
    assert seen[True] > 20 and seen[False] > 20


def test_solve_mod2_against_ranks():
    # sizes brute force cannot reach: a system is solvable exactly when the
    # right-hand side does not raise the GF(2) rank, and a returned x solves
    # every row
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(1, 24)
        rows = random_matrix(rng, rng.randint(1, 30), n, -3, 3)
        rhs = [rng.randint(-3, 3) for _ in rows]
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        solvable = rank_mod2(rows, n) == rank_mod2(augmented, n + 1)
        seen[solvable] += 1
        x = solve_mod2(bit_masks(rows), rhs, n)
        assert (x is not None) == solvable
        if x is not None:
            assert all(sum(a * b for a, b in zip(row, x)) % 2 == b % 2
                       for row, b in zip(rows, rhs))
    assert seen[True] > 20 and seen[False] > 20


def test_rank_mod2():
    assert rank_mod2([[1, 0], [0, 1]], 2) == 2
    assert rank_mod2([[2, 4], [6, 8]], 2) == 0
    assert rank_mod2([[1, 1], [1, 1]], 2) == 1
    assert rank_mod2([], 3) == 0


# --- the symplectic reduction --------------------------------------------------

def reduce_dense(m):
    pairs, radical = symplectic_reduction([support(row) for row in m])
    n = len(m)
    dense = lambda v: [v.get(j, 0) for j in range(n)]
    return ([(d, dense(x), dense(y)) for d, x, _, y, _ in pairs],
            [dense(v) for v, _ in radical])


def test_reduction_finds_unit_pair_behind_an_even_first_vector():
    # e1 = r + 2 e3 with r = (1, 0, -2) in the radical pairs evenly with
    # everything, yet the form has rank 2 with unit divisors
    m = [[0, 2, 0], [-2, 0, -1], [0, 1, 0]]
    pairs, radical = reduce_dense(m)
    assert [d for d, _, _ in pairs] == [1]
    assert len(radical) == 1 and mat_vec(m, radical[0]) == [0, 0, 0]
    (_, x, y), = pairs
    assert mat_vec([x], mat_vec(m, y)) == [1]


def test_reduction_keeps_a_proved_non_unit_pivot():
    pairs, radical = reduce_dense([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
    assert [d for d, _, _ in pairs] == [2]
    assert radical == [[0, 0, 1]]


@st.composite
def antisymmetric_matrices(draw):
    n = draw(st.integers(0, 7))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = draw(st.integers(-2, 2))
            m[j][i] = -m[i][j]
    return m


@settings(max_examples=300, deadline=None)
@given(antisymmetric_matrices())
def test_reduction_agrees_with_smith_form(m):
    n = len(m)
    pairs, radical = reduce_dense(m)
    divisors = [abs(d) for d in elementary_divisors(m)] if n else []
    pivots = [d for d, _, _ in pairs]
    # accepted (every pivot 1) exactly when the Smith form has unit divisors
    assert all(d == 1 for d in pivots) == all(d == 1 for d in divisors)
    assert 2 * len(pairs) == len(divisors)
    assert (lcm(*pivots) if pivots else 0) == max(divisors, default=0)
    # the pairs and the radical are a basis of Z^n in which m is
    # d_1 J_1 + ... + 0
    basis = [v for _, x, y in pairs for v in (x, y)] + radical
    assert len(basis) == n
    if n:
        assert abs(det_bareiss(basis)) == 1
    expect = [[0] * n for _ in range(n)]
    for k, d in enumerate(pivots):
        expect[2 * k][2 * k + 1], expect[2 * k + 1][2 * k] = d, -d
    b_t = [list(col) for col in zip(*basis)]
    assert (mat_mul(mat_mul(basis, m), b_t) if n else []) == expect


@st.composite
def sparse_antisymmetric_matrices(draw):
    """Antisymmetric forms with n <= 10 and entries in [-3, 3], of any
    density, sometimes scaled so that every pivot is a multiple of 2 or 3."""
    n = draw(st.integers(0, 10))
    density = draw(st.sampled_from((0.2, 0.5, 1.0)))
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(0, 1)) < density:
                m[i][j] = scale * draw(st.integers(-(3 // scale), 3 // scale))
                m[j][i] = -m[i][j]
    return m


@settings(max_examples=400, deadline=None)
@given(sparse_antisymmetric_matrices())
def test_indexed_reduction_matches_the_scan(m):
    # the index only filters the candidates, so the pairs, their pivots and
    # the radical are the scan's, vector for vector
    rows = [support(row) for row in m]
    assert symplectic_reduction(rows) == scan_reduction(rows)


def test_indexed_reduction_matches_the_scan_on_seeded_forms():
    # a seeded sweep that is sure to meet pivots d > 1 and radicals
    rng = random.Random(4000)
    seen = {"pivot > 1": 0, "radical": 0}
    for _ in range(2000):
        n = rng.randint(0, 10)
        density = rng.random()
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    m[i][j] = rng.randint(-3, 3)
                    m[j][i] = -m[i][j]
        rows = [support(row) for row in m]
        pairs, radical = symplectic_reduction(rows)
        assert (pairs, radical) == scan_reduction(rows)
        seen["pivot > 1"] += any(d > 1 for d, *_ in pairs)
        seen["radical"] += bool(radical)
    assert min(seen.values()) > 100, seen
