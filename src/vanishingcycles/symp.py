"""Exact symplectic layer: twist images on homology and their relations.

Every Dehn twist acts on the homology lattice of the doubled surface by a
transvection x -> x + <x,v>v, and on the value of a marked curve by
phi -> phi + <x,v>phi(v).  A word in twists about curves c_1..c_m moves
(h, phi) by sum a_i (c_i, phi(c_i)), with a linear in the pairing vector
(<h, c_i>)_i alone; so two words act alike on every marked curve once they
act alike on the pairing vectors of the basis classes, replayed in m
coordinates instead of 2g.  That decides the braid relation for
once-intersecting pairs, the chain relations (the twist word around a
chain equals the multitwist about its boundary) and the type-D relations
for a chain with a forked end (Dynkin diagram D_n).  The square-transvection
identity is an exact integer matrix identity.

Mod-2 questions - stabilizers of quadratic forms inside Sp(2g, Z/2), the
subgroup generated by anisotropic transvections, and the orbit census of
forms by Arf invariant - work on the vectors of F_2^(2g) as bitmasks, and a
form is the mask f of its basis values: q(v) is the parity of the bits of
v & f plus the handles (bit pairs 2k, 2k+1) that v fills, and its Arf
invariant the parity of the handles that f fills.  The twist about an
isotropic v moves the form to f ^ sv, where sv swaps the bits of each
handle of v (bit i of sv is <e_i, v>); an anisotropic v fixes it.  A
stabilizer's order is one orbit-stabilizer count at every genus.  A
generated subgroup is never listed: the transvections permute the 2^(2g)
vectors, and Schreier-Sims gives the order of the permutation group from a
base and strong generating set.  The mod-2 path evaluates the same
transvection formula as the integer path, only with coefficients reduced.
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
    """The mod-2 computations are restricted to small genus."""


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
        for bit in bin(abs(k))[2:]:     # binary powering, high bit first
            out = out @ out
            if bit == "1":
                out = out @ base
        return out


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


def _pairings(curves: Sequence[MarkedCurve]):
    """The Gram rows of the curves, row j mapping i to <c_j, c_i> where
    that is nonzero, and the distinct nonzero pairing vectors (<e_k, c_i>)_i
    of the basis classes as (i, value) tuples, both from the supports."""
    at: Dict[int, List[Tuple[int, int]]] = {}     # k -> [(i, <e_k, c_i>)]
    for i, c in enumerate(curves):
        for k, x in enumerate(c.h):
            if x:
                at.setdefault(k ^ 1, []).append((i, x if k % 2 else -x))
    gram = []
    for c in curves:
        row: Dict[int, int] = {}
        for k, x in enumerate(c.h):
            for i, y in at.get(k, ()) if x else ():
                row[i] = row.get(i, 0) + x * y
        gram.append({i: v for i, v in row.items() if v})
    return gram, {tuple(p) for p in at.values()}


def _same_action(curves: Sequence[MarkedCurve], pairings,
                 lhs: Sequence[int], repeat: int, rhs: Sequence[int]) -> bool:
    """Whether the word ``lhs`` to the ``repeat`` and the word ``rhs``,
    letters given as indices into ``curves`` with their :func:`_pairings`,
    move every marked curve alike.  Replayed rightmost first on a pairing
    vector p, the letter c_j adds p_j to a_j and p_j <c_j, c_i> to each p_i.
    The words agree when, for the p of every basis class, d = a_lhs - a_rhs
    has sum d_i phi(c_i) = 0 mod r and sum d_i c_i = 0 (it pairs to 0 with
    every basis class).  Other p are not tested: the true odd-chain
    relation, whose boundary lists delta and -delta, fails on some."""
    gram, gens = pairings
    rows = [list(row.items()) for row in gram]
    for gen in gens:
        d = [0] * len(curves)
        for word, sign in (([*reversed(lhs)] * repeat, 1), (rhs[::-1], -1)):
            p = [0] * len(curves)
            for i, x in gen:
                p[i] = x
            for j in word:
                k = p[j]
                if k:
                    d[j] += sign * k
                    for i, v in rows[j]:
                        p[i] += k * v
        if sum(x * c.phi for x, c in zip(d, curves)) % curves[0].r or any(
                sum(d[i] * y for i, y in q) for q in gens):
            return False
    return True


def verify_braid(a: MarkedCurve, b: MarkedCurve) -> bool:
    """Braid relation for a once-intersecting pair.

    Checks that T_a T_b T_a and T_b T_a T_b move every marked curve alike
    and that the twist word T_a T_b carries the marked curve a to b (up to
    orientation), value included.
    """
    if len(a.h) != len(b.h) or a.r != b.r:
        raise SympError("curves live under different structures")
    pairings = _pairings((a, b))
    if abs(pairings[0][0].get(1, 0)) != 1:
        raise BadPairing("braid relation needs pairing +-1")
    if not _same_action((a, b), pairings, (0, 1, 0), 1, (1, 0, 1)):
        return False
    image = twist(twist(a, b), a)
    return _same_marked(image, b)


def _check_chain_pattern(chain: Sequence[MarkedCurve], gram: List[dict],
                         first: int = 0) -> None:
    if not chain:
        raise NotAChain("empty chain")
    r = chain[0].r
    n = len(chain[0].h)
    if any(c.r != r or len(c.h) != n for c in chain):
        raise NotAChain("chain curves live under different structures")
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            got = abs(gram[first + i].get(first + j, 0))
            want = 1 if j == i + 1 else 0
            if got != want:
                raise NotAChain(
                    f"pairing of chain members {i} and {j} is {got},"
                    f" expected {want}")


def _relation_holds(curves: Sequence[MarkedCurve], pairings, n: int,
                    exponent: int, multitwist: Sequence[int],
                    error: type, disjoint: bool = False) -> bool:
    """Whether the word of the first ``n`` curves to the ``exponent`` equals
    the multitwist (indices into ``curves``) on every marked curve.  The
    boundary, the curves after the word, must live under the word's
    structure, sum to zero and, if ``disjoint``, miss every curve of the
    word; else ``error`` is raised."""
    dim, r = len(curves[0].h), curves[0].r
    for b in range(n, len(curves)):
        if len(curves[b].h) != dim or curves[b].r != r:
            raise error("boundary curves live under different structures")
        if disjoint and any(j < n for j in pairings[0][b]):
            raise error("boundary curves must be disjoint from the"
                        " configuration")
    if any(sum(col) for col in zip(*(b.h for b in curves[n:]))):
        raise error("boundary classes must sum to zero")
    return _same_action(curves, pairings, range(n), exponent, multitwist)


def verify_chain(chain: Sequence[MarkedCurve],
                 boundary: Sequence[MarkedCurve]) -> bool:
    """Chain relation: the (n+1)-st or (2n+2)-nd power of the chain word
    equals the multitwist about the boundary of the chain's neighborhood.

    A chain of odd length has a two-component boundary (classes summing to
    zero); a chain of even length has a single separating boundary curve
    (class zero), so its twist word must act trivially on homology.  Both
    sides are replayed with the value-tracking twist rule on the pairing
    vectors of the basis classes with the chain and boundary curves, which
    decides the identity on every marked curve: classes and values mod r.
    """
    curves = (*chain, *boundary)
    pairings = _pairings(curves)
    _check_chain_pattern(chain, pairings[0])
    n = len(chain)
    expected = 2 if n % 2 else 1
    if len(boundary) != expected:
        raise NotAChain(
            f"a chain of length {n} bounds {expected} curve(s),"
            f" got {len(boundary)}")
    exponent = n + 1 if n % 2 else 2 * n + 2
    return _relation_holds(curves, pairings, n, exponent,
                           range(n, len(curves)), NotAChain)


def _check_dn_pattern(config: Sequence[MarkedCurve], gram: List[dict]
                      ) -> None:
    if len(config) < 3:
        raise NotDnPattern("need the two fork curves and at least one more")
    r, dim = config[0].r, len(config[0].h)
    if any(c.r != r or len(c.h) != dim for c in config):
        raise NotDnPattern("curves live under different structures")
    if gram[0].get(1, 0) != 0:
        raise NotDnPattern("the two fork curves must be disjoint")
    for fork in (0, 1):
        if abs(gram[fork].get(2, 0)) != 1:
            raise NotDnPattern("each fork curve must meet the first chain"
                               " curve exactly once")
        if any(gram[fork].get(j, 0) for j in range(3, len(config))):
            raise NotDnPattern("fork curves meet only the first chain"
                               " curve")
    if len(config) > 3:
        _check_chain_pattern(config[2:], gram, first=2)


def verify_dn(config: Sequence[MarkedCurve],
              boundary: Sequence[MarkedCurve]) -> bool:
    """Forked-chain (type D_n) relation.

    ``config`` lists the two fork curves followed by the chain curves; with
    n curves in total the twist word raised to the 2n-2 (n odd) or n-1
    (n even) power equals the boundary multitwist: for n odd the fork-side
    boundary twisted n-2 times together with the far boundary curve, for
    n even the fork-side boundary twisted (n-2)/2 times together with the
    two far boundary curves.  Decided, like the chain relation, by one
    replay per distinct pairing vector of a basis class with the n + 2 or
    n + 3 curves, which covers every marked curve.
    """
    curves = (*config, *boundary)
    pairings = _pairings(curves)
    _check_dn_pattern(config, pairings[0])
    n = len(config)
    if len(boundary) != (2 if n % 2 else 3):
        raise NotDnPattern("boundary must list the fork-side curve followed"
                           " by the far boundary curve(s)")
    if n % 2:
        exponent, multitwist = 2 * n - 2, [n] * (n - 2) + [n + 1]
    else:
        exponent, multitwist = n - 1, [n] * ((n - 2) // 2) + [n + 1, n + 2]
    return _relation_holds(curves, pairings, n, exponent, multitwist,
                           NotDnPattern, disjoint=True)


def square_transvection_identity(w: Sequence[int], v1: Sequence[int],
                                 v2: Sequence[int], v3: Sequence[int],
                                 q: Optional[QuadraticFormZ2] = None) -> bool:
    """(T_{v1} T_{v2} T_{v3})^4 = T_w^2 for a 3-chain with w = v1 + v3.

    Requires <v1,v2> = <v2,v3> = 1, <v1,v3> = 0, each v_i orthogonal to w,
    and w = v1 + v3.  When a mod-2 form is supplied, each v_i must be
    anisotropic for it, so that the twist about v_i fixes the form.
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
    return lhs == transvection(w) ** 2


# ---------------------------------------------------------------------------
# Mod-2 layer: vectors of F_2^(2g) as bitmasks, groups as permutations of them.


_ALT = 0x5555555555555555


def _swap_adjacent_bits(v: int) -> int:
    return ((v & _ALT) << 1) | ((v >> 1) & _ALT)


def _form_value(f: int, v: int) -> int:
    """q(v) for the form whose basis values are the bits of f:
    sum v_i q(e_i) + sum v_2k v_2k+1, mod 2."""
    return ((v & f).bit_count() + (v & (v >> 1) & _ALT).bit_count()) & 1


def _form_mask(q: QuadraticFormZ2) -> int:
    return sum(x << i for i, x in enumerate(q.values))


def _transvection_perm(v: int, n: int) -> Tuple[int, ...]:
    """The permutation x -> x + <x,v>v of the 2^n vectors of F_2^n, built
    by linearity one lowest bit at a time: the image of e_i is e_i, plus v
    when <e_i, v>, bit i of the swapped v, is 1."""
    sv = _swap_adjacent_bits(v)
    tab = [0] * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        tab[x] = tab[x ^ low] ^ low ^ (v if sv & low else 0)
    return tuple(tab)


def _generated_order(gens: Sequence[Tuple[int, ...]], degree: int) -> int:
    """Order of the group that the permutations ``gens`` of
    ``range(degree)`` generate, by deterministic Schreier-Sims.

    A permutation p sends x to p[x].  Each level of the stabilizer chain
    holds a base point, the strong generators that fix the earlier base
    points, and the orbit of its base point with, for each orbit point, a
    representative u carrying the base point there and its inverse.  The
    generators are added one at a time: one that sifts to the identity is
    already in the group.  Otherwise it joins the levels down to the one it
    drops out of, and every Schreier generator u_b s u_{b^s}^-1 not tested
    yet is sifted through the (complete) levels below; a residue joins the
    chain the same way.  The order is the product of the orbit sizes.
    """
    ident = tuple(range(degree))
    base: List[int] = []
    strong: List[List[Tuple[int, ...]]] = []
    orbits: List[Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]]] = []
    tested: List[Set[Tuple[int, int]]] = []

    def inverse(p):
        out = [0] * degree
        for x, y in enumerate(p):
            out[y] = x
        return tuple(out)

    def sift(h, level):
        # strip h through the levels from ``level`` on; return the residue
        # and the level it drops out of (len(base) if it passes them all)
        for i in range(level, len(base)):
            rep = orbits[i].get(h[base[i]])
            if rep is None:
                return h, i
            h = tuple(map(rep[1].__getitem__, h))
        return h, len(base)

    def insert(h, low, high):
        # h fixes base[:high]: make it a strong generator of the levels
        # low..high, opening a new level if high is past the last one
        if high == len(base):
            base.append(next(x for x in range(degree) if h[x] != x))
            strong.append([])
            orbits.append({base[-1]: (ident, ident)})
            tested.append(set())
        for i in range(low, high + 1):
            strong[i].append(h)
            orbit = orbits[i]
            frontier = list(orbit)
            while frontier:
                fresh = []
                for b in frontier:
                    u = orbit[b][0]
                    for s in strong[i]:
                        c = s[b]
                        if c not in orbit:
                            us = tuple(map(s.__getitem__, u))
                            orbit[c] = (us, inverse(us))
                            fresh.append(c)
                frontier = fresh

    def close(level):
        # test the Schreier generators from ``level`` up to level 0; a
        # residue at level j sends the work back down to j
        while level >= 0:
            orbit = orbits[level]
            for b in list(orbit):
                for k, s in enumerate(strong[level]):
                    if (b, k) in tested[level]:
                        continue
                    tested[level].add((b, k))
                    us = tuple(map(s.__getitem__, orbit[b][0]))
                    schreier = tuple(map(orbit[s[b]][1].__getitem__, us))
                    h, drop = sift(schreier, level + 1)
                    if h != ident:
                        insert(h, level + 1, drop)
                        return drop
            level -= 1
        return -1

    for g in gens:
        h, drop = sift(g, 0)
        if h == ident:
            continue
        insert(h, 0, drop)
        level = drop
        while level >= 0:
            level = close(level)
    order = 1
    for orbit in orbits:
        order *= len(orbit)
    return order


def sp_mod2_order(g: int) -> int:
    """Order of Sp(2g, Z/2) from the standard product formula."""
    order = 1
    for i in range(1, g + 1):
        order *= 4 ** i - 1
    return order << (g * g)


def sp_mod2_bfs_order(g: int) -> int:
    """Order of Sp(2g, Z/2) re-derived as the order of the group that all
    transvections generate, by Schreier-Sims on their action on the
    vectors of F_2^(2g); restricted to the g <= 4 of the mod-2 stabilizers,
    where it serves as a check of the product formula."""
    if g < 1:
        raise SympError("genus must be positive")
    if g > 4:
        raise TooLarge("the re-derivation is restricted to g <= 4")
    n = 2 * g
    return _generated_order(
        [_transvection_perm(v, n) for v in range(1, 1 << n)], 1 << n)


def _form_orbit(start: int, n: int) -> Set[int]:
    """The orbit of a mod-2 form on F_2^n (the mask of its basis values)
    under the transvections, found by breadth-first search.  The twist about
    an isotropic v sends the form f to f ^ sv, sv the swapped v, whose bit i
    is <e_i, v>; an anisotropic v fixes the form."""
    swapped = [_swap_adjacent_bits(v) for v in range(1 << n)]
    handles = [(v & (v >> 1) & _ALT).bit_count() for v in range(1 << n)]
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for f in frontier:
            for v in range(1, 1 << n):
                if ((v & f).bit_count() + handles[v]) & 1:
                    continue    # an anisotropic v: its twist fixes the form
                out = f ^ swapped[v]
                if out not in seen:
                    seen.add(out)
                    fresh.append(out)
        frontier = fresh
    return seen


def _anisotropic_vectors(g: int, q: QuadraticFormZ2) -> List[int]:
    """The anisotropic vectors of a genus-g form, as bitmasks, for the
    g <= 4 whose stabilizer chains stay small."""
    if g < 1:
        raise SympError("genus must be positive")
    if g > 4:
        raise TooLarge("mod-2 stabilizers are restricted to g <= 4")
    n = 2 * g
    if len(q.values) != n:
        raise SympError("form does not match the requested genus")
    f = _form_mask(q)
    return [v for v in range(1, 1 << n) if _form_value(f, v)]


def anisotropic_closure_order(g: int, q: QuadraticFormZ2) -> int:
    """Order of the subgroup of Sp(2g, Z/2) generated by the transvections
    about anisotropic vectors of the form, for g <= 4.

    Found by Schreier-Sims on the permutations these transvections induce
    on the 2^(2g) vectors of F_2^(2g); the action is linear, hence
    faithful, so the permutation group has the order of the matrix group.
    """
    n = 2 * g
    return _generated_order(
        [_transvection_perm(v, n) for v in _anisotropic_vectors(g, q)],
        1 << n)


def sp_q_stabilizer_bruteforce(g: int, q: QuadraticFormZ2
                               ) -> Tuple[int, bool]:
    """Order of the stabilizer of a mod-2 form in Sp(2g, Z/2), and whether
    the anisotropic transvections generate it, for g <= 4.

    A transvection fixes the form exactly when its vector is anisotropic
    (value 1).  The stabilizer's order is one orbit-stabilizer count: the
    group order from the product formula (which :func:`sp_mod2_bfs_order`
    re-derives) divided by the size of the form's orbit.  The order of the
    subgroup the anisotropic transvections generate comes from
    :func:`anisotropic_closure_order` and is compared with it.
    """
    generated = anisotropic_closure_order(g, q)
    orbit = len(_form_orbit(_form_mask(q), 2 * g))
    order, rem = divmod(sp_mod2_order(g), orbit)
    if rem:
        raise SympError("orbit size does not divide the group order")
    return order, generated == order


def quadratic_form_orbits(g: int) -> Dict[int, int]:
    """Census of all 2^(2g) mod-2 forms: orbit sizes keyed by Arf invariant.

    The transvection action partitions the forms; the partition must consist
    of exactly two orbits, one per Arf value, or an error is raised.
    """
    if g < 1:
        raise SympError("genus must be positive")
    n = 2 * g
    unassigned = set(range(1 << n))
    orbits = []
    while unassigned:
        orbit = _form_orbit(min(unassigned), n)
        orbits.append(orbit)
        unassigned -= orbit
    census: Dict[int, int] = {}
    for orbit in orbits:
        arfs = {(f & (f >> 1) & _ALT).bit_count() & 1 for f in orbit}
        if len(arfs) != 1:
            raise SympError("an orbit mixes Arf invariants")
        census[arfs.pop()] = len(orbit)
    if len(orbits) != 2 or set(census) != {0, 1}:
        raise SympError("expected exactly one orbit per Arf value")
    return census
