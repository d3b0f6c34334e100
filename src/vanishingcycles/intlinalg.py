"""Exact integer linear algebra: Smith normal form, extended gcd, the
symplectic reduction of alternating forms, and GF(2) solving.

All routines work on lists of lists of Python ints so there is no precision
ceiling.  numpy is deliberately not used here; callers that want numpy convert
at the boundary.

The program no longer calls ``smith_normal_form``, ``elementary_divisors`` or
``symplectic_gram_schmidt``; they stay as oracles of the tests, and because
``bench/tracer.py`` binds them by name.
"""

from __future__ import annotations


def eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def support(v) -> list[tuple[int, int]]:
    """The nonzero entries (j, v_j) of a vector."""
    return [(j, x) for j, x in enumerate(v) if x]


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


def ext_gcd(a: int, b: int):
    """g, x, y with x*a + y*b == g == gcd(a, b) >= 0."""
    # Euclid's algorithm run forward: (a, b) = (x0, y0).(a0, b0) and
    # (x1, y1).(a0, b0) throughout, which gives the coefficients the
    # recursive back-substitution gives, in constant stack depth
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    if a < 0:
        return (-a, -x0, -y0)
    return (a, x0, y0)


def _pairing(u: dict, Mw: dict) -> int:
    # u.(M w) for sparse u and M w, summed over the smaller support
    if len(u) <= len(Mw):
        return sum(c * Mw.get(j, 0) for j, c in u.items())
    return sum(c * u.get(j, 0) for j, c in Mw.items())


def _add_multiple(u: dict, c: int, v: dict) -> None:
    # u += c v in place, keeping only nonzero entries
    for j, x in v.items():
        t = u.get(j, 0) + c * x
        if t:
            u[j] = t
        else:
            del u[j]


def symplectic_reduction(rows):
    """Split Z^n, paired by <u, w> = u.M.w for the antisymmetric n x n matrix
    M whose rows have the given supports (see ``support``), into an
    orthogonal sum of hyperbolic pairs and the radical.

    Returns ``(pairs, radical)``.  Each pair is ``(d, x, Mx, y, My)`` with
    <x, y> = d > 0; every vector v is a dict {coordinate: entry} carried with
    its product M v, so a pairing is a dot product over the smaller support.
    Together the pairs and the radical vectors are a basis of Z^n in which M
    is d_1 J_1 + d_2 J_1 + ... + 0: the rank of M is twice the number of
    pairs, its largest elementary divisor is the lcm of the d_i, and M is
    unimodular modulo its radical exactly when every d_i is 1.

    Each step takes the first vector x still left.  If it pairs with none of
    the others it joins the radical; otherwise its partner y is the first
    with the least nonzero |<x, y>|.  Every other vector w
    is reduced modulo the pair, w - q x + q' y, which leaves its pairings
    with x and y as remainders mod d; only a vector that pairs with x or y
    changes.  When d = 1 this is the projection off the pair.  A nonzero
    remainder is a smaller pairing, which becomes the new pair, so a pivot
    d > 1 is kept only once it divides every pairing of x and y with the
    rest (Newman, Integral Matrices, ch. IV).
    """
    # M e_i is column i of M, which is minus row i
    live = [({i: 1}, {j: -x for j, x in row}) for i, row in enumerate(rows)]
    pairs = []
    radical = []
    while live:
        x, Mx = live.pop(0)
        p = [_pairing(x, Mw) for _, Mw in live]
        k = min((i for i, v in enumerate(p) if v), key=lambda i: abs(p[i]),
                default=None)
        if k is None:
            radical.append((x, Mx))
            continue
        y, My = live.pop(k)
        d = p[k]
        if d < 0:
            y, My, d = ({j: -c for j, c in y.items()},
                        {j: -c for j, c in My.items()}, -d)
        while True:
            best = None  # (remainder, index, pairs with y)
            for i, (w, Mw) in enumerate(live):
                a, b = _pairing(w, My), _pairing(w, Mx)  # <w, y>, <w, x>
                if not (a or b):
                    continue
                qa, qb = a // d, b // d
                if qa:
                    _add_multiple(w, -qa, x)
                    _add_multiple(Mw, -qa, Mx)
                if qb:
                    _add_multiple(w, qb, y)
                    _add_multiple(Mw, qb, My)
                # now <w, y> = a - qa d and <w, x> = b - qb d
                for r, with_y in ((a - qa * d, True), (b - qb * d, False)):
                    if r and (best is None or r < best[0]):
                        best = (r, i, with_y)
            if best is None:
                pairs.append((d, x, Mx, y, My))
                break
            d, i, with_y = best
            w, Mw = live[i]
            if with_y:
                # <w, y> = d: w replaces x
                live[i] = (x, Mx)
                x, Mx = w, Mw
            else:
                # <x, -w> = <w, x> = d: -w replaces y
                live[i] = (y, My)
                y, My = ({j: -c for j, c in w.items()},
                         {j: -c for j, c in Mw.items()})
    return pairs, radical


def symplectic_gram_schmidt(M):
    """Given an antisymmetric unimodular pairing matrix M on Z^(2n), return a
    list of 2n integer vectors b_1..b_2n (in the original coordinates, paired
    as x1,y1,x2,y2,...) with b_i^T M b_j the standard interleaved form.

    The basis is the one ``symplectic_reduction`` finds; ``ValueError`` is
    raised when M has a radical or is not unimodular."""
    n2 = len(M)
    assert n2 % 2 == 0
    for i in range(n2):
        assert M[i][i] == 0
        for j in range(n2):
            assert M[i][j] == -M[j][i]

    pairs, radical = symplectic_reduction([support(row) for row in M])
    if radical:
        raise ValueError("degenerate pairing")
    d = max((d for d, *_ in pairs), default=1)
    if d != 1:
        raise ValueError("pairing not unimodular (gcd %d)" % d)
    return [[v.get(j, 0) for j in range(n2)]
            for _, x, _, y, _ in pairs for v in (x, y)]


def standard_j(g: int) -> list[list[int]]:
    """Interleaved symplectic form: <x_i, y_i> = +1 on basis x1,y1,...,xg,yg."""
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    return J


# ---------------------------------------------------------------------------
# GF(2)

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
