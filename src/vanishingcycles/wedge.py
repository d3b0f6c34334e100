"""Exterior-cube calculus on the homology lattice.

The third exterior power of the homology lattice carries the values of the
bounding-pair homomorphism from the kernel of the homology action.  This
module keeps exact integer coordinates on the basis of ordered triples,
embeds the homology lattice by wedging with the total symplectic class,
reduces modulo that image with a fixed section, and contracts triples back
to homology vectors with the symplectic pairing.

Two constructive verifications live here: the generator families whose span
is the contraction kernel, and a budgeted round closure that replays a fixed
list of symplectic transformations on the seed triple x1^y1^x4 until the
images span the whole exterior cube (read off the echelon pivots).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

from .intlinalg import ext_gcd
from .spin import _pairing
from .symp import SpMatrix, transvection


class WedgeError(ValueError):
    pass


class BadModulus(WedgeError):
    """The requested modulus does not make the map well defined."""


class NotSymplecticSubspace(WedgeError):
    """The vectors do not span a standard symplectic subspace away from c."""


class BudgetExceeded(WedgeError):
    """The round closure was still growing when the budget ran out."""


@lru_cache(maxsize=None)
def _triples(n: int) -> Tuple[Tuple[int, int, int], ...]:
    return tuple((a, b, c)
                 for a in range(n)
                 for b in range(a + 1, n)
                 for c in range(b + 1, n))


@lru_cache(maxsize=None)
def _triple_index(n: int) -> Dict[Tuple[int, int, int], int]:
    return {t: i for i, t in enumerate(_triples(n))}


def _sort_with_sign(a: int, b: int, c: int) -> Tuple[Tuple[int, int, int], int]:
    sign = 1
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return (a, b, c), sign


@dataclass(frozen=True)
class Wedge3:
    """Integer element of the third exterior power of Z^n.

    Coordinates run over the ordered triples (a < b < c) of basis indices in
    lexicographic order.
    """

    n: int
    coords: Tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or self.n % 2:
            raise WedgeError("ambient rank must be even and nonnegative")
        coords = tuple(int(x) for x in self.coords)
        if len(coords) != len(_triples(self.n)):
            raise WedgeError("coordinate count does not match the triple"
                             " basis")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def zero(cls, n: int) -> "Wedge3":
        return cls(n, (0,) * len(_triples(n)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _binary(self, other: "Wedge3", op) -> "Wedge3":
        if not isinstance(other, Wedge3) or other.n != self.n:
            raise WedgeError("mixed ambient ranks")
        return Wedge3(self.n, tuple(op(a, b)
                                    for a, b in zip(self.coords, other.coords)))

    def __add__(self, other: "Wedge3") -> "Wedge3":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "Wedge3") -> "Wedge3":
        return self._binary(other, lambda a, b: a - b)

    def __neg__(self) -> "Wedge3":
        return Wedge3(self.n, tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "Wedge3":
        return Wedge3(self.n, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def apply(self, m: Union[SpMatrix, Sequence[Sequence[int]]]) -> "Wedge3":
        """Image under the cube of a matrix acting on column vectors."""
        rows = m.rows if isinstance(m, SpMatrix) else [list(r) for r in m]
        n = self.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise WedgeError("matrix does not act on this ambient rank")
        cols = list(zip(*rows))
        acc: Dict[Tuple[int, int, int], int] = {}
        for (a, b, c), coeff in zip(_triples(n), self.coords):
            if coeff:
                _accumulate_wedge(acc, cols[a], cols[b], cols[c], coeff)
        return _from_accumulator(n, acc)


def _accumulate_wedge(acc, u, v, w, scale):
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj or j == i:
                continue
            uv = scale * ui * vj
            for k, wk in enumerate(w):
                if not wk or k == i or k == j:
                    continue
                key, sign = _sort_with_sign(i, j, k)
                acc[key] = acc.get(key, 0) + sign * uv * wk


def _from_accumulator(n, acc) -> Wedge3:
    index = _triple_index(n)
    coords = [0] * len(index)
    for key, val in acc.items():
        if val:
            coords[index[key]] = val
    return Wedge3(n, tuple(coords))


def wedge(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> Wedge3:
    """The alternating product u ^ v ^ w."""
    n = len(u)
    if len(v) != n or len(w) != n:
        raise WedgeError("factors live in different ambient ranks")
    acc: Dict[Tuple[int, int, int], int] = {}
    _accumulate_wedge(acc, [int(x) for x in u], [int(x) for x in v],
                      [int(x) for x in w], 1)
    return _from_accumulator(n, acc)


def embed_homology(v: Sequence[int]) -> Wedge3:
    """v wedged with the total class x1^y1 + ... + xg^yg."""
    n = len(v)
    if n % 2:
        raise WedgeError("ambient rank must be even")
    out = Wedge3.zero(n)
    for i in range(0, n, 2):
        xi = tuple(int(j == i) for j in range(n))
        yi = tuple(int(j == i + 1) for j in range(n))
        out = out + wedge(v, xi, yi)
    return out


@lru_cache(maxsize=None)
def _section_pivots(n: int) -> Tuple[Tuple[int, Tuple[int, int, int]], ...]:
    """For each basis vector, the triple coordinate its embedding owns.

    The embedding of a vector outside the last handle shows up on the triple
    made with the last handle; the two last-handle vectors show up on the
    triples made with the first handle.  Those 2g coordinates are pairwise
    distinct and each embedded basis vector has coefficient one on its own
    pivot and zero on all others, so zeroing them is a fixed section of the
    quotient.
    """
    if n < 4:
        raise WedgeError("the quotient needs at least two handles")
    out = []
    for t in range(n - 2):
        out.append((t, (t, n - 2, n - 1)))
    out.append((n - 2, (0, 1, n - 2)))
    out.append((n - 1, (0, 1, n - 1)))
    return tuple(out)


@dataclass(frozen=True)
class QuotientW3:
    """Coset of the embedded homology lattice, held by a fixed representative.

    Construction reduces the given element so that the coordinates owned by
    the embedded basis vectors vanish; two elements of the same coset reduce
    to the same representative, keeping all arithmetic integral.
    """

    representative: Wedge3

    def __post_init__(self):
        w = self.representative
        if not isinstance(w, Wedge3):
            raise WedgeError("a quotient element wraps a cube element")
        n = w.n
        index = _triple_index(n)
        for t, pivot in _section_pivots(n):
            coeff = w.coords[index[pivot]]
            if coeff:
                basis_vec = tuple(int(j == t) for j in range(n))
                w = w - coeff * embed_homology(basis_vec)
        object.__setattr__(self, "representative", w)

    @property
    def n(self) -> int:
        return self.representative.n

    def __add__(self, other: "QuotientW3") -> "QuotientW3":
        return QuotientW3(self.representative + other.representative)

    def __sub__(self, other: "QuotientW3") -> "QuotientW3":
        return QuotientW3(self.representative - other.representative)

    def __neg__(self) -> "QuotientW3":
        return QuotientW3(-self.representative)

    def __mul__(self, k: int) -> "QuotientW3":
        return QuotientW3(self.representative * k)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.representative.is_zero()


def contraction(w: Union[Wedge3, QuotientW3],
                modulus: int = 0) -> Tuple[int, ...]:
    """<x,y>z + <y,z>x + <z,x>y extended linearly, reduced mod the modulus.

    On a plain cube element any nonnegative modulus is allowed (zero means
    exact integers).  On a quotient element the modulus must be positive and
    divide g - 1, since the embedded lattice contracts to g - 1 times the
    vector; otherwise the map is not defined on cosets.
    """
    if isinstance(w, QuotientW3):
        g = w.n // 2
        if modulus < 1 or (g - 1) % modulus:
            raise BadModulus(
                f"the quotient map needs a positive modulus dividing {g - 1}")
        w = w.representative
    elif not isinstance(w, Wedge3):
        raise WedgeError("contraction applies to cube or quotient elements")
    if modulus < 0:
        raise BadModulus("the modulus is nonnegative")
    n = w.n
    out = [0] * n

    def mate_pair(i, j):
        # pairing of basis vectors: +-1 on handle mates, else 0
        if j == i + 1 and i % 2 == 0:
            return 1
        if i == j + 1 and j % 2 == 0:
            return -1
        return 0

    for (a, b, c), coeff in zip(_triples(n), w.coords):
        if not coeff:
            continue
        out[c] += mate_pair(a, b) * coeff
        out[a] += mate_pair(b, c) * coeff
        out[b] += mate_pair(c, a) * coeff
    if modulus:
        out = [x % modulus for x in out]
    return tuple(out)


def johnson_bp(h: int, subsurface_basis: Sequence[Sequence[int]],
               c_class: Sequence[int]) -> Wedge3:
    """Value of a bounding-pair map on homology: (x1^y1 + ... + xh^yh) ^ c.

    The basis lists the h dual pairs of the subsurface the pair cobounds,
    interleaved; it must pair like the standard basis and the curve class
    must be disjoint from it.
    """
    if h < 1 or len(subsurface_basis) != 2 * h:
        raise NotSymplecticSubspace(
            "the subsurface basis holds two vectors per handle")
    vecs = [tuple(int(x) for x in v) for v in subsurface_basis]
    c = tuple(int(x) for x in c_class)
    n = len(c)
    if any(len(v) != n for v in vecs):
        raise NotSymplecticSubspace("vectors live in different ambient ranks")
    for i in range(2 * h):
        for j in range(i + 1, 2 * h):
            want = 1 if (j == i + 1 and i % 2 == 0) else 0
            if _pairing(vecs[i], vecs[j]) != want:
                raise NotSymplecticSubspace(
                    "the vectors do not pair like a standard basis")
    for v in vecs:
        if _pairing(v, c) != 0:
            raise NotSymplecticSubspace(
                "the curve class meets the subsurface")
    out = Wedge3.zero(n)
    for i in range(h):
        out = out + wedge(vecs[2 * i], vecs[2 * i + 1], c)
    return out


def generators_K(g: int, r: int) -> List[Wedge3]:
    """The three generator families of the contraction kernel.

    Family one: r times a basis vector wedged with a handle; family two: a
    basis vector wedged with a difference of handles; family three: triples
    drawn from three distinct handles.  Every element contracts to zero mod
    r; on the quotient this needs r | g - 1.
    """
    if g < 2:
        raise WedgeError("need at least two handles")
    if r < 1:
        raise WedgeError("the modulus is positive")
    n = 2 * g
    def unit(t):
        return tuple(int(j == t) for j in range(n))
    def handle(i):
        return unit(2 * i), unit(2 * i + 1)
    out: List[Wedge3] = []
    for t in range(n):
        for i in range(g):
            if t in (2 * i, 2 * i + 1):
                continue
            xi, yi = handle(i)
            out.append(r * wedge(unit(t), xi, yi))
    for t in range(n):
        for i in range(g):
            for j in range(i + 1, g):
                if t in (2 * i, 2 * i + 1, 2 * j, 2 * j + 1):
                    continue
                xi, yi = handle(i)
                xj, yj = handle(j)
                out.append(wedge(unit(t), xi, yi) - wedge(unit(t), xj, yj))
    for i in range(g):
        for j in range(i + 1, g):
            for k in range(j + 1, g):
                for a in (2 * i, 2 * i + 1):
                    for b in (2 * j, 2 * j + 1):
                        for c in (2 * k, 2 * k + 1):
                            out.append(wedge(unit(a), unit(b), unit(c)))
    return out


def contraction_section(g: int) -> List[Wedge3]:
    """Cube elements contracting to the basis vectors, one each.

    A vector wedged with a handle it avoids contracts back to the vector, so
    these complete any spanning set of the contraction kernel to the full
    lattice.
    """
    n = 2 * g
    out = []
    for t in range(n):
        i = 1 if t in (0, 1) else 0
        xi = tuple(int(j == 2 * i) for j in range(n))
        yi = tuple(int(j == 2 * i + 1) for j in range(n))
        vt = tuple(int(j == t) for j in range(n))
        out.append(wedge(vt, xi, yi))
    return out


# --- round closure of the seed triple under fixed transformations ---------------


def _swap_matrix(n: int, i: int, j: int) -> Tuple[Tuple[int, ...], ...]:
    """Exchange handles i and j (zero-indexed)."""
    perm = list(range(n))
    perm[2 * i], perm[2 * j] = perm[2 * j], perm[2 * i]
    perm[2 * i + 1], perm[2 * j + 1] = perm[2 * j + 1], perm[2 * i + 1]
    return tuple(tuple(int(perm[r] == c) for c in range(n)) for r in range(n))


def _rotation_matrix(n: int, i: int) -> Tuple[Tuple[int, ...], ...]:
    """Quarter turn of handle i: x -> y, y -> -x."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[2 * i][2 * i] = 0
    rows[2 * i + 1][2 * i + 1] = 0
    rows[2 * i + 1][2 * i] = 1
    rows[2 * i][2 * i + 1] = -1
    return tuple(tuple(row) for row in rows)


def closure_transformations(g: int, parity: int
                            ) -> List[Tuple[Tuple[int, ...], ...]]:
    """The fixed transformation list replayed by the round closure.

    Handle swaps and quarter turns on the first g - 1 handles plus the
    transvection about x4 - x1 are always available; when the form value on
    the last upward basis curve makes the last handle look like the others,
    the swaps and the turn extend to it, and otherwise three transvections
    mixing the last handle in are used instead.
    """
    if g < 5:
        raise WedgeError("the span argument starts at five handles")
    if parity not in (0, 1):
        raise WedgeError("parity is a bit")
    n = 2 * g
    def unit(t):
        return [int(j == t) for j in range(n)]
    def combo(*terms):
        out = [0] * n
        for coeff, t in terms:
            out[t] += coeff
        return out
    mats: List[Tuple[Tuple[int, ...], ...]] = []
    for i in range(g - 1):
        for j in range(i + 1, g - 1):
            mats.append(_swap_matrix(n, i, j))
    for i in range(g - 1):
        mats.append(_rotation_matrix(n, i))
    mats.append(transvection(combo((1, 6), (-1, 0))).rows)   # x4 - x1
    if parity == 0:
        for i in range(g - 1):
            mats.append(_swap_matrix(n, i, g - 1))
        mats.append(_rotation_matrix(n, g - 1))
    else:
        mats.append(transvection(combo((1, n - 3), (1, n - 1))).rows)
        mats.append(transvection(unit(n - 2)).rows)
        mats.append(transvection(
            combo((1, 0), (1, n - 2), (-1, n - 1))).inverse().rows)
    return mats


def _induced_columns(mat, n: int) -> List[List[Tuple[int, int]]]:
    """Sparse columns of the cube of a matrix: per source triple, the list of
    (target index, coefficient)."""
    cols = list(zip(*mat))
    out = []
    for (a, b, c) in _triples(n):
        image = wedge(cols[a], cols[b], cols[c])
        out.append([(i, v) for i, v in enumerate(image.coords) if v])
    return out


class _LatticeBasis:
    """Row lattice in echelon form supporting growth detection; each row
    is keyed by its pivot column and is zero before it."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: Dict[int, List[int]] = {}

    def insert(self, row: Sequence[int]) -> bool:
        r = list(row)
        changed = False
        c = 0
        while c < self.ncols:
            if r[c] == 0:
                c += 1
                continue
            if c not in self.rows:
                self.rows[c] = r
                return True
            b = self.rows[c]
            if r[c] % b[c] == 0:
                q = r[c] // b[c]
                r = [u - q * v for u, v in zip(r, b)]
                continue
            gg, x, y = ext_gcd(b[c], r[c])
            pb, pr = b[c] // gg, r[c] // gg
            nb = [x * u + y * v for u, v in zip(b, r)]
            nr = [pb * v - pr * u for u, v in zip(b, r)]
            self.rows[c] = nb
            r = nr
            changed = True
        return changed

    def basis_rows(self) -> List[List[int]]:
        return [self.rows[c] for c in sorted(self.rows)]

    def is_full(self) -> bool:
        """Whether the rows span all of Z^ncols: a triangular basis does
        exactly when it has full rank and every pivot is a unit."""
        return (len(self.rows) == self.ncols
                and all(abs(row[c]) == 1 for c, row in self.rows.items()))


def lemma_next_closure(g: int, parity: int, max_rounds: int = 12) -> bool:
    """Whether the replayed transformations span the whole cube from the
    seed x1^y1^x4.

    Each round applies every transformation to every current lattice basis
    row and inserts the images.  Rounds stop when the lattice stabilizes;
    the result is whether the stable lattice is the full cube, read off the
    echelon pivots (full rank, every pivot a unit).  If the lattice is
    still growing after ``max_rounds`` rounds a BudgetExceeded error is
    raised; with ``max_rounds=0`` the seed alone is evaluated.
    """
    if max_rounds < 0:
        raise WedgeError("the budget is nonnegative")
    n = 2 * g
    mats = closure_transformations(g, parity)
    induced = [_induced_columns(m, n) for m in mats]
    dim = len(_triples(n))
    seed = wedge([int(t == 0) for t in range(n)],
                 [int(t == 1) for t in range(n)],
                 [int(t == 6) for t in range(n)])
    lattice = _LatticeBasis(dim)
    lattice.insert(list(seed.coords))

    def round_images(rows):
        images = []
        for row in rows:
            support = [(i, v) for i, v in enumerate(row) if v]
            for columns in induced:
                out = [0] * dim
                for i, v in support:
                    for target, coeff in columns[i]:
                        out[target] += v * coeff
                images.append(out)
        return images

    grew = True
    for _ in range(max_rounds):
        grew = False
        for image in round_images(lattice.basis_rows()):
            if lattice.insert(image):
                grew = True
        if not grew:
            break
    if max_rounds and grew:
        # the last round still changed the lattice: growth status unknown
        if any(lattice.insert(image)
               for image in round_images(lattice.basis_rows())):
            raise BudgetExceeded(
                f"lattice still growing after {max_rounds} rounds")
    return lattice.is_full()
