"""Exact symplectic-matrix layer: twist images on homology and their relations.

Every Dehn twist acts on the homology lattice of the doubled surface by a
transvection x -> x + <x,v>v.  This module carries those matrices with exact
integer arithmetic and verifies the classical relations between twists at the
matrix level: the braid relation for once-intersecting pairs, the chain
relations (the twist word around a linear chain equals the multitwist about
the chain's boundary), and the type-D relations for a chain with a forked end
(Dynkin diagram D_n), including the certified powers of the nested boundary
twists that the fork configuration produces.

Mod-2 questions - stabilizers of quadratic forms inside Sp(2g, Z/2), closure
under anisotropic transvections, and the orbit census of forms by Arf
invariant - are answered by brute-force enumeration with bit-packed matrices.
The mod-2 path evaluates the same transvection formula as the integer path,
only with coefficients reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .spin import MarkedCurve, QuadraticFormZ2, twist, _pairing


class SympError(ValueError):
    pass


class NotSymplectic(SympError):
    """The matrix does not preserve the standard alternating form."""


class NonPrimitive(SympError):
    """Transvection vectors must have coprime entries."""


class BadPairing(SympError):
    """The braid relation needs a pair of classes with pairing +-1."""


class NotAChain(SympError):
    """Consecutive pairings must be +-1 and all others zero."""


class NotDnPattern(SympError):
    """The configuration does not match the forked-chain pattern."""


class TooLarge(SympError):
    """Brute-force enumeration is restricted to small genus."""


class ConditionsViolated(SympError):
    """The vectors do not satisfy the square-transvection hypotheses."""


@dataclass(frozen=True)
class SpMatrix:
    """Integer matrix preserving the standard alternating form.

    The form pairs basis vectors in adjacent couples: <e_{2k}, e_{2k+1}> = 1.
    Matrices act on column vectors; ``a @ b`` composes so that ``b`` acts
    first.  The symplectic condition is checked on construction, and the
    inverse is computed exactly from the form, so arbitrary integer powers
    stay in the group.
    """

    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or n % 2 or any(len(row) != n for row in rows):
            raise NotSymplectic("entries must form a square matrix of even size")
        cols = list(zip(*rows))
        for i in range(n):
            for j in range(i + 1, n):
                want = 1 if (j == i + 1 and i % 2 == 0) else 0
                if _pairing(cols[i], cols[j]) != want:
                    raise NotSymplectic(
                        "columns do not preserve the alternating form")

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def genus(self) -> int:
        return len(self.rows) // 2

    @classmethod
    def identity(cls, n: int) -> "SpMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n))
                         for i in range(n)))

    def apply(self, v: Sequence[int]) -> Tuple[int, ...]:
        if len(v) != self.dimension:
            raise SympError("vector has the wrong length")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def __matmul__(self, other: "SpMatrix") -> "SpMatrix":
        if self.dimension != other.dimension:
            raise SympError("dimension mismatch")
        cols = list(zip(*other.rows))
        return SpMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def inverse(self) -> "SpMatrix":
        # M^T J M = J  =>  M^{-1} = J^{-1} M^T J, all integral.
        n = self.dimension
        sign = [1 if i % 2 == 0 else -1 for i in range(n)]
        mate = [i + 1 if i % 2 == 0 else i - 1 for i in range(n)]
        # (J^{-1} M^T J)[i][j] = sign[i] * sign[j] * M[mate[j]][mate[i]]
        return SpMatrix(tuple(
            tuple(sign[i] * sign[j] * self.rows[mate[j]][mate[i]]
                  for j in range(n))
            for i in range(n)))

    def __pow__(self, k: int) -> "SpMatrix":
        base = self if k >= 0 else self.inverse()
        out = SpMatrix.identity(self.dimension)
        for _ in range(abs(k)):
            out = out @ base
        return out

    def mod(self, m: int) -> Tuple[Tuple[int, ...], ...]:
        if m < 1:
            raise SympError("modulus must be positive")
        return tuple(tuple(x % m for x in row) for row in self.rows)


def _twist_matrix(v: Sequence[int]) -> SpMatrix:
    """Matrix of the twist about a curve of class v; the zero class (a
    separating curve) acts trivially."""
    n = len(v)
    if n == 0 or n % 2:
        raise SympError("classes have even positive length")
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        k = _pairing(basis[j], v)
        if k:
            for i in range(n):
                ident[i][j] += k * v[i]
    return SpMatrix(tuple(tuple(row) for row in ident))


def transvection(v: Sequence[int]) -> SpMatrix:
    """x -> x + <x,v>v for a primitive integer vector v."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g != 1:
        raise NonPrimitive("vector entries must be coprime")
    return _twist_matrix(v)


def word_matrix(word: Sequence[MarkedCurve]) -> SpMatrix:
    """Product of the twist matrices of the word, leftmost letter outermost."""
    if not word:
        raise SympError("empty word")
    out = SpMatrix.identity(len(word[0].h))
    for letter in word:
        out = out @ _twist_matrix(letter.h)
    return out


def apply_word(word: Sequence[MarkedCurve], target: MarkedCurve,
               repeat: int = 1) -> MarkedCurve:
    """Apply the twist word to a marked curve, rightmost letter first."""
    out = target
    for _ in range(repeat):
        for letter in reversed(word):
            out = twist(out, letter)
    return out


def _unit(dim: int, idx: int, sign: int = 1) -> tuple:
    return tuple(sign if k == idx else 0 for k in range(dim))


def model_chain(n: int, r: int = 2):
    """Standard homological realization of an ``n``-chain with its boundary.

    Curves alternate x/y classes on consecutive handles; all values are zero.
    Returns ``(chain, boundary)`` ready for :func:`verify_chain`: two opposite
    boundary classes for odd ``n``, a single separating (zero) class for even
    ``n``.
    """
    if n < 2:
        raise NotAChain("a chain needs at least two curves")
    handles = (n + 1) // 2
    dim = 2 * handles
    chain = []
    for m in range(1, n + 1):
        if m == 1:
            h = _unit(dim, 0)                       # x_1
        elif m % 2 == 0:
            h = _unit(dim, 2 * (m // 2 - 1) + 1)    # y_{m/2}
        else:
            i = (m - 1) // 2                        # x_i + x_{i+1}
            h = tuple((1 if k in (2 * (i - 1), 2 * i) else 0)
                      for k in range(dim))
        chain.append(MarkedCurve(h, 0, r))
    if n % 2:
        delta = _unit(dim, 2 * ((n + 1) // 2 - 1))  # x_{(n+1)/2}
        boundary = (MarkedCurve(delta, 0, r),
                    MarkedCurve(tuple(-x for x in delta), 0, r))
    else:
        boundary = (MarkedCurve((0,) * dim, 0, r),)
    return tuple(chain), boundary


def model_dn(n: int, r: int = 2):
    """Standard realization of the forked chain on ``n`` curves.

    Returns ``(config, boundary)`` for :func:`verify_dn`: the two fork
    curves, the chain of length ``n - 2``, and the boundary classes of the
    configuration's neighborhood (two opposite classes for odd ``n``, three
    classes summing to zero for even ``n``).  All values are zero.
    """
    if n < 3:
        raise NotDnPattern("the forked chain needs at least three curves")
    handles = (n - 1) // 2 if n % 2 else (n - 2) // 2
    extra = 1 if n % 2 else 2
    dim = 2 * (handles + extra)
    a = _unit(dim, 1)                                # y_1
    last_x = 2 * (handles + extra - 1)
    a_prime = tuple((1 if k in (1, last_x) else 0) for k in range(dim))
    config = [MarkedCurve(a, 0, r), MarkedCurve(a_prime, 0, r)]
    for m in range(1, n - 1):
        i = (m + 1) // 2
        if m % 2:
            h = _unit(dim, 2 * (i - 1))              # x_i
        else:                                        # y_i - y_{i+1}
            h = tuple(1 if k == 2 * (i - 1) + 1 else
                      -1 if k == 2 * i + 1 else 0 for k in range(dim))
        config.append(MarkedCurve(h, 0, r))
    z = _unit(dim, last_x)                           # a' - a
    if n % 2:
        boundary = (MarkedCurve(z, 0, r),
                    MarkedCurve(tuple(-x for x in z), 0, r))
    else:
        delta1 = _unit(dim, 2 * handles + 1)         # y_{handles+1}
        delta1p = tuple(-zz - dd for zz, dd in zip(z, delta1))
        boundary = (MarkedCurve(z, 0, r), MarkedCurve(delta1, 0, r),
                    MarkedCurve(delta1p, 0, r))
    return tuple(config), boundary


def _same_marked(u: MarkedCurve, v: MarkedCurve) -> bool:
    """Equality of unoriented marked curves (orientation reversal allowed)."""
    if u.r != v.r:
        return False
    if u.h == v.h:
        return (u.phi - v.phi) % u.r == 0
    if u.h == tuple(-x for x in v.h):
        return (u.phi + v.phi) % u.r == 0
    return False


def verify_braid(a: MarkedCurve, b: MarkedCurve) -> bool:
    """Braid relation for a once-intersecting pair.

    Checks the matrix identity T_a T_b T_a = T_b T_a T_b and that the twist
    word T_a T_b carries the marked curve a to b (up to orientation), value
    included.
    """
    if len(a.h) != len(b.h) or a.r != b.r:
        raise SympError("curves live under different structures")
    if abs(_pairing(a.h, b.h)) != 1:
        raise BadPairing("braid relation needs pairing +-1")
    ma, mb = _twist_matrix(a.h), _twist_matrix(b.h)
    if ma @ mb @ ma != mb @ ma @ mb:
        return False
    image = twist(twist(a, b), a)
    return _same_marked(image, b)


def _check_chain_pattern(chain: Sequence[MarkedCurve]) -> None:
    if not chain:
        raise NotAChain("empty chain")
    r = chain[0].r
    n = len(chain[0].h)
    if any(c.r != r or len(c.h) != n for c in chain):
        raise NotAChain("chain curves live under different structures")
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            got = abs(_pairing(chain[i].h, chain[j].h))
            want = 1 if j == i + 1 else 0
            if got != want:
                raise NotAChain(
                    f"pairing of chain members {i} and {j} is {got},"
                    f" expected {want}")


def _phi_word_check(word: Sequence[MarkedCurve], repeat: int,
                    boundary: Sequence[MarkedCurve],
                    tests: Sequence[MarkedCurve]) -> bool:
    for t in tests:
        lhs = apply_word(word, t, repeat=repeat)
        rhs = apply_word(boundary, t)
        if lhs.h != rhs.h or (lhs.phi - rhs.phi) % t.r != 0:
            return False
    return True


def _relation_holds(word: Sequence[MarkedCurve],
                    boundary: Sequence[MarkedCurve], exponent: int,
                    multitwist: Sequence[MarkedCurve],
                    tests: Optional[Sequence[MarkedCurve]],
                    error: type, disjoint: bool = False) -> bool:
    """Whether the word to the ``exponent`` equals the multitwist, on
    matrices and on the test curves (by default the word and the boundary).
    The boundary must live under the word's structure, sum to zero and, if
    ``disjoint``, miss every curve of the word; else ``error`` is raised."""
    dim, r = len(word[0].h), word[0].r
    for b in boundary:
        if len(b.h) != dim or b.r != r:
            raise error("boundary curves live under different structures")
        if disjoint and any(_pairing(b.h, c.h) for c in word):
            raise error("boundary curves are disjoint from the configuration")
    if any(sum(col) for col in zip(*(b.h for b in boundary))):
        raise error("boundary classes must sum to zero")
    if word_matrix(word) ** exponent != word_matrix(multitwist):
        return False
    if tests is None:
        tests = list(word) + list(boundary)
    return _phi_word_check(word, exponent, multitwist, tests)


def verify_chain(chain: Sequence[MarkedCurve],
                 boundary: Sequence[MarkedCurve],
                 tests: Optional[Sequence[MarkedCurve]] = None) -> bool:
    """Chain relation: the (n+1)-st or (2n+2)-nd power of the chain word
    equals the multitwist about the boundary of the chain's neighborhood.

    A chain of odd length has a two-component boundary (classes summing to
    zero); a chain of even length has a single separating boundary curve
    (class zero), so its twist word must act trivially on homology.  The
    identity is checked on matrices and, through the value-tracking twist
    rule, on a test set of marked curves.
    """
    _check_chain_pattern(chain)
    n = len(chain)
    expected = 2 if n % 2 else 1
    if len(boundary) != expected:
        raise NotAChain(
            f"a chain of length {n} bounds {expected} curve(s),"
            f" got {len(boundary)}")
    exponent = n + 1 if n % 2 else 2 * n + 2
    return _relation_holds(chain, boundary, exponent, boundary, tests,
                           NotAChain)


def _check_dn_pattern(config: Sequence[MarkedCurve]) -> None:
    if len(config) < 3:
        raise NotDnPattern("need the two fork curves and at least one more")
    a, ap = config[0], config[1]
    cs = config[2:]
    r = a.r
    dim = len(a.h)
    if any(c.r != r or len(c.h) != dim for c in config):
        raise NotDnPattern("curves live under different structures")
    if _pairing(a.h, ap.h) != 0:
        raise NotDnPattern("the two fork curves must be disjoint")
    for fork in (a, ap):
        if abs(_pairing(fork.h, cs[0].h)) != 1:
            raise NotDnPattern("each fork curve must meet the first chain"
                               " curve exactly once")
        for j in range(1, len(cs)):
            if _pairing(fork.h, cs[j].h) != 0:
                raise NotDnPattern("fork curves meet only the first chain"
                                   " curve")
    if len(cs) > 1:
        _check_chain_pattern(cs)


def verify_dn(config: Sequence[MarkedCurve],
              boundary: Sequence[MarkedCurve],
              tests: Optional[Sequence[MarkedCurve]] = None) -> bool:
    """Forked-chain (type D_n) relation.

    ``config`` lists the two fork curves followed by the chain curves; with
    n curves in total the twist word raised to the 2n-2 (n odd) or n-1
    (n even) power equals the boundary multitwist: for n odd the fork-side
    boundary twisted n-2 times together with the far boundary curve, for
    n even the fork-side boundary twisted (n-2)/2 times together with the
    two far boundary curves.  Checked on matrices and on marked-curve tests.
    """
    _check_dn_pattern(config)
    n = len(config)
    if len(boundary) != (2 if n % 2 else 3):
        raise NotDnPattern("boundary must list the fork-side curve followed"
                           " by the far boundary curve(s)")
    if n % 2:
        exponent = 2 * n - 2
        multitwist = [boundary[0]] * (n - 2) + [boundary[1]]
    else:
        exponent = n - 1
        multitwist = [boundary[0]] * ((n - 2) // 2) + list(boundary[1:])
    return _relation_holds(config, boundary, exponent, multitwist, tests,
                           NotDnPattern, disjoint=True)


def nested_twist_power_check(config: Sequence[MarkedCurve],
                             delta0: MarkedCurve,
                             delta1: MarkedCurve,
                             m: int) -> bool:
    """Certify powers of the nested boundary twists of a forked chain.

    For the odd configuration (a, a', c_1..c_{2G+1}) each truncation
    (a, a', c_1..c_{2k-1}) spans a subsurface whose boundary is the
    fork-side curve plus a nested curve of opposite class.  The relation for
    the truncation expresses the product of those boundary twists as a word
    in the configuration twists; combined with the even-truncation relation
    (which certifies the G-th power of the fork-side twist, using ``delta1``)
    this yields each nested twist to the power m as an explicit word whenever
    G divides (2k-1)m.  All equalities are checked as exact matrix
    identities.
    """
    _check_dn_pattern(config)
    n = len(config)
    if n % 2 == 0 or n < 5:
        raise NotDnPattern("need an odd configuration with at least one full"
                           " fork truncation")
    big_g = (n - 3) // 2
    z = delta0.h
    dim = len(config[0].h)
    if len(z) != dim or len(delta1.h) != dim:
        raise NotDnPattern("boundary curves live under different structures")
    for c in config:
        if _pairing(z, c.h) != 0:
            raise NotDnPattern("fork-side boundary must be disjoint from the"
                               " configuration")
    for c in config[:-1]:
        if _pairing(delta1.h, c.h) != 0:
            raise NotDnPattern("the even-truncation boundary must be disjoint"
                               " from the truncation")
    t_z = _twist_matrix(z)
    # Even truncation certifies T_z^G as a configuration word.
    even_cfg = list(config[:-1])
    d1p_class = tuple(-a - b for a, b in zip(z, delta1.h))
    w_even = word_matrix(even_cfg) ** (len(even_cfg) - 1)
    if w_even != (t_z ** big_g) @ _twist_matrix(delta1.h) \
            @ _twist_matrix(d1p_class):
        return False
    certified_tzg = w_even @ _twist_matrix(d1p_class).inverse() \
        @ _twist_matrix(delta1.h).inverse()
    for k in range(1, big_g + 2):
        t = (2 * k - 1) * m
        if t % big_g:
            raise ConditionsViolated(
                f"power {m} of nested curve {k} is not certified: {big_g}"
                f" does not divide {t}")
        sub = list(config[:2 + 2 * k - 1])
        w_k = word_matrix(sub) ** (4 * k)
        if w_k != t_z ** (2 * k):
            return False
        target = t_z ** m          # the nested curve has class -z
        if target != (certified_tzg ** (-(t // big_g))) @ (w_k ** m):
            return False
    return True


def square_transvection_identity(w: Sequence[int], v1: Sequence[int],
                                 v2: Sequence[int], v3: Sequence[int],
                                 q: Optional[QuadraticFormZ2] = None,
                                 modulus: Optional[int] = None) -> bool:
    """(T_{v1} T_{v2} T_{v3})^4 = T_w^2 for a 3-chain with w = v1 + v3.

    Requires <v1,v2> = <v2,v3> = 1, <v1,v3> = 0, each v_i orthogonal to w,
    and w = v1 + v3.  When a mod-2 form is supplied, each v_i must be
    anisotropic for it, so that the twist about v_i fixes the form.  With a
    modulus the comparison happens in the reduced matrix ring instead of
    over the integers.
    """
    if _pairing(v1, v2) != 1 or _pairing(v2, v3) != 1:
        raise ConditionsViolated("consecutive pairings must equal 1")
    if _pairing(v1, v3) != 0:
        raise ConditionsViolated("outer vectors must be disjoint")
    if tuple(w) != tuple(a + b for a, b in zip(v1, v3)):
        raise ConditionsViolated("w must equal v1 + v3")
    for v in (v1, v2, v3):
        if _pairing(v, w) != 0:
            raise ConditionsViolated("each v_i must be orthogonal to w")
    if q is not None:
        for v in (v1, v2, v3):
            if q.evaluate(v) != 1:
                raise ConditionsViolated(
                    "each v_i must be anisotropic so its twist fixes the"
                    " form")
    lhs = (transvection(v1) @ transvection(v2) @ transvection(v3)) ** 4
    rhs = transvection(w) ** 2
    if modulus is None:
        return lhs == rhs
    return lhs.mod(modulus) == rhs.mod(modulus)


# ---------------------------------------------------------------------------
# Mod-2 brute force: bit-packed matrices over Z/2.


_ALT = 0x5555555555555555


def _swap_adjacent_bits(v: int) -> int:
    return ((v & _ALT) << 1) | ((v >> 1) & _ALT)


def _pair2(u: int, v: int) -> int:
    return bin(u & _swap_adjacent_bits(v)).count("1") & 1


def _value_table(values: Sequence[int]) -> List[int]:
    n = len(values)
    tab = [0] * (1 << n)
    for v in range(1, 1 << n):
        low = v & (-v)
        i = low.bit_length() - 1
        rest = v ^ low
        # q(rest + e_i) = q(rest) + q(e_i) + <rest, e_i>
        tab[v] = tab[rest] ^ (values[i] & 1) ^ _pair2(rest, low)
    return tab


def _transvection_bits(v: int, n: int) -> int:
    p = _swap_adjacent_bits(v) & ((1 << n) - 1)  # p bit i = <e_i, v>
    mat = 0
    for j in range(n):
        row = 1 << j
        if (v >> j) & 1:
            row ^= p
        mat |= row << (j * n)
    return mat


def _identity_bits(n: int) -> int:
    mat = 0
    for i in range(n):
        mat |= (1 << i) << (i * n)
    return mat


def _row_tables(mat: int, n: int) -> List[int]:
    mask = (1 << n) - 1
    rows = [(mat >> (i * n)) & mask for i in range(n)]
    tab = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & (-m)
        tab[m] = tab[m ^ low] ^ rows[low.bit_length() - 1]
    return tab


def _closure_bits(generators: Sequence[int], n: int) -> Set[int]:
    tabs = [_row_tables(g, n) for g in generators]
    mask = (1 << n) - 1
    ident = _identity_bits(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for mat in frontier:
            rows = [(mat >> (i * n)) & mask for i in range(n)]
            for tab in tabs:
                out = 0
                for i in range(n):
                    out |= tab[rows[i]] << (i * n)
                if out not in seen:
                    seen.add(out)
                    fresh.append(out)
        frontier = fresh
    return seen


def _columns_bits(mat: int, n: int) -> List[int]:
    cols = [0] * n
    for i in range(n):
        row = (mat >> (i * n)) & ((1 << n) - 1)
        while row:
            low = row & (-row)
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def sp_mod2_order(g: int) -> int:
    """Order of Sp(2g, Z/2) from the standard product formula."""
    order = 1
    for i in range(1, g + 1):
        order *= 4 ** i - 1
    return order << (g * g)


def sp_mod2_bfs_order(g: int) -> int:
    """Order of Sp(2g, Z/2) found by breadth-first closure of all
    transvections; restricted to g <= 2 where the group is small."""
    if g < 1:
        raise SympError("genus must be positive")
    if g > 2:
        raise TooLarge("direct closure is restricted to g <= 2")
    n = 2 * g
    gens = [_transvection_bits(v, n) for v in range(1, 1 << n)]
    return len(_closure_bits(gens, n))


def _form_orbit(start: Tuple[int, ...]) -> Set[Tuple[int, ...]]:
    """The orbit of a mod-2 form (its values on the basis) under the
    transvections, found by breadth-first search."""
    n = len(start)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for form in frontier:
            for v in range(1, 1 << n):
                qv = 0
                vv = v
                while vv:
                    low = vv & (-vv)
                    qv ^= form[low.bit_length() - 1]
                    vv ^= low
                for k in range(0, n, 2):
                    if (v >> k) & 1 and (v >> (k + 1)) & 1:
                        qv ^= 1
                out = tuple(form[i] ^ (_pair2(1 << i, v) & (qv ^ 1))
                            for i in range(n))
                if out not in seen:
                    seen.add(out)
                    fresh.append(out)
        frontier = fresh
    return seen


def _anisotropic_generators(g: int, q: QuadraticFormZ2
                            ) -> Tuple[List[int], List[int]]:
    """The value table of a genus-g form and the transvections about its
    anisotropic vectors, for the g <= 3 that enumeration allows."""
    if g < 1:
        raise SympError("genus must be positive")
    if g > 3:
        raise TooLarge("full enumeration is restricted to g <= 3")
    n = 2 * g
    if len(q.values) != n:
        raise SympError("form does not match the requested genus")
    tab = _value_table(q.values)
    return tab, [_transvection_bits(v, n)
                 for v in range(1, 1 << n) if tab[v] == 1]


def anisotropic_closure_order(g: int, q: QuadraticFormZ2) -> int:
    """Order of the subgroup of Sp(2g, Z/2) generated by the transvections
    about anisotropic vectors of the form."""
    return len(_closure_bits(_anisotropic_generators(g, q)[1], 2 * g))


def sp_q_stabilizer_bruteforce(g: int, q: QuadraticFormZ2
                               ) -> Tuple[int, bool]:
    """Order of the stabilizer of a mod-2 form in Sp(2g, Z/2), and whether
    the anisotropic transvections generate it.

    A transvection fixes the form exactly when its vector is anisotropic
    (value 1).  For g <= 2 the whole group is enumerated by closure and the
    stabilizer filtered out; for g = 3 the stabilizer's order comes from the
    orbit of the form (orbit times stabilizer equals the group order, and
    the product formula for the group order is itself reproduced by the
    g <= 2 closures).  In both cases the subgroup generated by anisotropic
    transvections is enumerated by closure and compared.
    """
    tab, aniso_gens = _anisotropic_generators(g, q)
    n = 2 * g
    generated = _closure_bits(aniso_gens, n)
    if g <= 2:
        everything = _closure_bits(
            [_transvection_bits(v, n) for v in range(1, 1 << n)], n)
        if len(everything) != sp_mod2_order(g):
            raise SympError("group closure does not match the product"
                            " formula")
        stabilizer = set()
        for mat in everything:
            cols = _columns_bits(mat, n)
            if all(tab[cols[i]] == tab[1 << i] for i in range(n)):
                stabilizer.add(mat)
        if not generated <= stabilizer:
            raise SympError("anisotropic closure left the stabilizer")
        return len(stabilizer), generated == stabilizer
    orbit = len(_form_orbit(tuple(v & 1 for v in q.values)))
    order, rem = divmod(sp_mod2_order(g), orbit)
    if rem:
        raise SympError("orbit size does not divide the group order")
    return order, len(generated) == order


def quadratic_form_orbits(g: int) -> Dict[int, int]:
    """Census of all 2^(2g) mod-2 forms: orbit sizes keyed by Arf invariant.

    The transvection action partitions the forms; the partition must consist
    of exactly two orbits, one per Arf value, or an error is raised.
    """
    if g < 1:
        raise SympError("genus must be positive")
    n = 2 * g
    unassigned = {tuple((v >> i) & 1 for i in range(n))
                  for v in range(1 << n)}
    orbits = []
    while unassigned:
        orbit = _form_orbit(min(unassigned))
        orbits.append(orbit)
        unassigned -= orbit
    census: Dict[int, int] = {}
    for orbit in orbits:
        arfs = {QuadraticFormZ2(f).arf() for f in orbit}
        if len(arfs) != 1:
            raise SympError("an orbit mixes Arf invariants")
        census[arfs.pop()] = len(orbit)
    if len(orbits) != 2 or set(census) != {0, 1}:
        raise SympError("expected exactly one orbit per Arf value")
    return census
