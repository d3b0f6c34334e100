"""Exact integer linear algebra: determinants, Smith normal form, integer
solving, symplectic basis extraction, and small GF(2) helpers.

All routines work on lists of lists of Python ints so there is no precision
ceiling.  numpy is deliberately not used here; callers that want numpy convert
at the boundary.
"""

from __future__ import annotations

from math import gcd


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def det_bareiss(mat) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(mat):
    """Return (D, U, V) with U @ mat @ V == D, U and V unimodular, D diagonal
    with each diagonal entry dividing the next."""
    A = [list(map(int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = eye(m)
    V = eye(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # locate a pivot of least absolute value
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                add_row(t, i, -q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                add_col(t, j, -q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide every remaining entry
        p = A[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return A, U, V


def elementary_divisors(mat) -> list[int]:
    D, _, _ = smith_normal_form(mat)
    out = []
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i]:
            out.append(D[i][i])
    return out


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x == rhs, or None."""
    D, U, V = smith_normal_form(mat)
    m = len(mat)
    n = len(mat[0]) if m else 0
    b = mat_vec(U, list(rhs))
    z = [0] * n
    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        if d:
            if b[i] % d:
                return None
            z[i] = b[i] // d
        elif b[i]:
            return None
    return mat_vec(V, z)


def integer_row_echelon(rows, ncols):
    """Reduce the given rows by unimodular row operations to a basis of the
    lattice they span.  Returns the basis rows (pivots left to right)."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        r = list(map(int, row))
        assert len(r) == ncols
        c = 0
        while c < ncols:
            if r[c] == 0:
                c += 1
                continue
            if c not in basis:
                basis[c] = r
                break
            b = basis[c]
            # replace (b, r) by (gcd combo, reduced) -- unimodular on the pair
            g, x, y = _ext_gcd(b[c], r[c])
            pb, pr = b[c] // g, r[c] // g
            nb = [x * u + y * v for u, v in zip(b, r)]
            nr = [pb * v - pr * u for u, v in zip(b, r)]
            basis[c] = nb
            r = nr
    return [basis[c] for c in sorted(basis)]


def _ext_gcd(a: int, b: int):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def ext_gcd(a: int, b: int):
    """g, x, y with x*a + y*b == g == gcd(a, b) >= 0."""
    return _ext_gcd(a, b)


def symplectic_gram_schmidt(M):
    """Given an antisymmetric unimodular pairing matrix M on Z^(2n), return a
    list of 2n integer vectors b_1..b_2n (in the original coordinates, paired
    as x1,y1,x2,y2,...) with b_i^T M b_j the standard interleaved form."""
    n2 = len(M)
    assert n2 % 2 == 0
    for i in range(n2):
        assert M[i][i] == 0
        for j in range(n2):
            assert M[i][j] == -M[j][i]

    def pair(u, v):
        return sum(u[i] * sum(M[i][j] * v[j] for j in range(n2)) for i in range(n2))

    remaining = [[1 if i == j else 0 for j in range(n2)] for i in range(n2)]
    out = []
    while remaining:
        x = remaining[0]
        rest = remaining[1:]
        # integer combination y of rest with <x, y> == 1
        g, y = 0, [0] * n2
        for w in rest:
            p = pair(x, w)
            if p == 0:
                continue
            gg, a, b = _ext_gcd(g, p)
            y = [a * u + b * v for u, v in zip(y, w)]
            g = gg
            if g == 1:
                break
        if g == 0:
            raise ValueError("degenerate pairing")
        if g != 1:
            raise ValueError("pairing not unimodular (gcd %d)" % g)
        out.append(x)
        out.append(y)
        projected = []
        for w in rest:
            a, b = pair(w, y), pair(w, x)
            projected.append([wi - a * xi + b * yi for wi, xi, yi in zip(w, x, y)])
        remaining = [w for w in projected if any(w)]
        # keep exactly the symplectic complement rank
        want = n2 - len(out)
        if len(remaining) > want:
            remaining = [list(r) for r in integer_row_echelon(remaining, n2)]
        assert len(remaining) == want, (len(remaining), want)
    return out


def standard_j(g: int) -> list[list[int]]:
    """Interleaved symplectic form: <x_i, y_i> = +1 on basis x1,y1,...,xg,yg."""
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    return J


# ---------------------------------------------------------------------------
# GF(2)

def rank_mod2(rows, ncols) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        r = 0
        for j in range(ncols):
            if row[j] & 1:
                r |= 1 << j
        while r:
            low = (r & -r).bit_length() - 1
            if low in pivots:
                r ^= pivots[low]
            else:
                pivots[low] = r
                rank += 1
                break
    return rank


def solve_mod2(rows, rhs, ncols):
    """One GF(2) solution x of rows @ x == rhs, or None if inconsistent.

    Rows are bit-reduced; the right-hand side rides along as bit ``ncols``
    of the augmented masks.
    """
    col_mask = (1 << ncols) - 1
    pivots: dict[int, int] = {}
    for row, b in zip(rows, rhs):
        r = (b & 1) << ncols
        for j in range(ncols):
            if row[j] & 1:
                r |= 1 << j
        while r & col_mask:
            low = (r & -r).bit_length() - 1
            if low in pivots:
                r ^= pivots[low]
            else:
                pivots[low] = r
                break
        else:
            if r:
                return None
    x = [0] * ncols
    for col in sorted(pivots, reverse=True):
        r = pivots[col]
        val = (r >> ncols) & 1
        rest = (r & col_mask) ^ (1 << col)
        while rest:
            j = (rest & -rest).bit_length() - 1
            val ^= x[j]
            rest &= rest - 1
        x[col] = val
    return x
