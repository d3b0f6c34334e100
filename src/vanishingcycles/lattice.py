"""Convex lattice polygons and the polygon-side dictionary.

A polygon here encodes a projective embedding of a toric surface, smooth or
not; its interior lattice points count the genus of a smooth curve in the
linear system, the convex hull of those interior points ("the adjoint")
governs hyperellipticity, and the lattice divisibility of the adjoint is the
modulus r of the invariant spin structure.

All arithmetic is exact; no floating point is used in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


Point = tuple[int, int]


class LatticeError(ValueError):
    pass


class CollinearInput(LatticeError):
    pass


class TooFewPoints(LatticeError):
    pass


class DegenerateDimension(LatticeError):
    pass


class EmptyAdjoint(LatticeError):
    pass


class NotAVertex(LatticeError):
    pass


class NoUnimodularNormalization(LatticeError):
    pass


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _point(v) -> Point:
    """A lattice point (or a matrix row), from Python or from JSON: a pair
    of integers.  A float, a string or a boolean is refused, not rounded or
    converted."""
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(type(x) is not int for x in v)):
        raise LatticeError(f"expected a pair of integers, got {v!r}")
    return (v[0], v[1])


def primitive(v: Point) -> Point:
    """Primitive vector in the direction of v."""
    assert v != (0, 0)
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


@dataclass(frozen=True)
class Segment:
    """Primitive integer segment: endpoints are lattice points, no lattice
    point in between.  Stored with the lexicographically smaller endpoint
    first so that equal segments compare equal."""

    a: Point
    b: Point

    def __post_init__(self):
        a, b = self.a, self.b
        if a == b:
            raise LatticeError("degenerate segment %r" % (a,))
        if gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) != 1:
            raise LatticeError("segment %r-%r is not primitive" % (a, b))
        if b < a:
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    def endpoints(self) -> tuple[Point, Point]:
        return (self.a, self.b)

    def other(self, p: Point) -> Point:
        assert p in (self.a, self.b)
        return self.b if p == self.a else self.a


def line_meets_open_segment(p: Point, d: Point, seg: Segment) -> bool:
    """Does the line through p with direction d meet the relative interior
    of seg?  Exact rational test."""
    sa = _cross(p, (p[0] + d[0], p[1] + d[1]), seg.a)
    sb = _cross(p, (p[0] + d[0], p[1] + d[1]), seg.b)
    return (sa > 0 > sb) or (sa < 0 < sb)


@dataclass(frozen=True)
class Polygon:
    """Strictly convex lattice polygon, vertices counterclockwise, stored
    starting from the lexicographically least vertex."""

    vertices: tuple[Point, ...]
    _interior: tuple[Point, ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    _adjoint: Adjoint | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vs = tuple(map(_point, self.vertices))
        if len(vs) < 3:
            raise TooFewPoints("need at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise LatticeError("repeated vertex")
        n = len(vs)
        area2 = sum(vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1] for i in range(n))
        if area2 < 0:
            vs = (vs[0],) + tuple(reversed(vs[1:]))
        for i in range(n):
            if _cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) <= 0:
                raise CollinearInput("vertices not strictly convex at %r" % (vs[(i + 1) % n],))
        k = vs.index(min(vs))
        object.__setattr__(self, "vertices", vs[k:] + vs[:k])

    def edges(self) -> list[tuple[Point, Point]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def contains(self, p: Point, strict: bool = False) -> bool:
        a = self.vertices[-1]
        for b in self.vertices:
            c = _cross(a, b, p)
            if c < 0 or (strict and c == 0):
                return False
            a = b
        return True

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def _scan(self, strict: bool) -> list[Point]:
        """The lattice points of the polygon (``strict``: of its interior),
        column by column in lexicographic order.  The polygon lies left of
        each counterclockwise edge (a, b): with (dx, dy) = b - a, the point
        (x, y) is in it when dx (y - ay) - dy (x - ax) >= s for every edge,
        where s is 1 for the interior (between integers, > 0 is >= 1) and 0
        otherwise.  An edge with dx > 0 bounds y from below, one with dx < 0
        from above, and a vertical edge keeps or drops the whole column."""
        s = 1 if strict else 0
        below, above, walls = [], [], []
        for (ax, ay), (bx, by) in self.edges():
            dx, dy = bx - ax, by - ay
            (below if dx > 0 else above if dx < 0 else walls).append((ax, ay, dx, dy))
        x0, _, x1, _ = self.bounding_box()
        points = []
        for x in range(x0, x1 + 1):
            if walls and any(-dy * (x - ax) < s for ax, _, _, dy in walls):
                continue
            # y - ay >= or <= (dy (x - ax) + s) / dx, by ceiling or floor division
            lo = max(ay - (-dy * (x - ax) - s) // dx for ax, ay, dx, dy in below)
            hi = min(ay + (dy * (x - ax) + s) // dx for ax, ay, dx, dy in above)
            points.extend((x, y) for y in range(lo, hi + 1))
        return points

    def lattice_points(self) -> list[Point]:
        return self._scan(strict=False)

    def interior_points(self) -> list[Point]:
        """The interior lattice points, found once per polygon, or carried
        from the polygon it is an image of (``UnimodularMap.apply_polygon``);
        every call returns a fresh list, which the caller may change."""
        if self._interior is None:
            object.__setattr__(self, "_interior", tuple(self._scan(strict=True)))
        return list(self._interior)


def convex_hull(points) -> Polygon:
    """Convex hull of a finite set of lattice points (monotone chain).
    Collinear points are dropped from the hull boundary."""
    pts = sorted(set(map(_point, points)))
    if len(pts) < 3:
        raise TooFewPoints("need at least 3 distinct points")
    return _monotone_chain(pts)


def _monotone_chain(pts: list[Point]) -> Polygon:
    """The hull of two or more sorted, distinct integer points."""
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise CollinearInput("points are collinear")
    return Polygon(tuple(hull))


def genus(P: Polygon) -> int:
    """Number of interior lattice points."""
    return len(P.interior_points())


@dataclass(frozen=True)
class Adjoint:
    """Convex hull of the interior lattice points, tagged by dimension."""

    kind: str  # "empty" | "point" | "segment" | "polygon"
    polygon: Polygon | None = None
    point: Point | None = None
    segment_ends: tuple[Point, Point] | None = None


def adjoint(P: Polygon) -> Adjoint:
    """The convex hull of the interior points, found once per polygon."""
    if P._adjoint is None:
        object.__setattr__(P, "_adjoint", _inner_hull(P))
    return P._adjoint


def _inner_hull(P: Polygon) -> Adjoint:
    pts = P.interior_points()
    if not pts:
        return Adjoint("empty")
    if len(pts) == 1:
        return Adjoint("point", point=pts[0])
    try:
        # the scan's points are sorted, distinct integer pairs already
        return Adjoint("polygon", polygon=_monotone_chain(pts))
    except CollinearInput:
        return Adjoint("segment", segment_ends=(pts[0], pts[-1]))


def divisibility(P: Polygon) -> int:
    """Largest d such that P is a translate of d * (lattice polygon)."""
    v0 = P.vertices[0]
    d = 0
    for x, y in P.vertices[1:]:
        d = gcd(d, gcd(abs(x - v0[0]), abs(y - v0[1])))
    assert d >= 1
    return d


def adjoint_divisibility(P: Polygon) -> int:
    """Divisibility of the adjoint; this is the spin modulus r."""
    adj = adjoint(P)
    if adj.kind != "polygon":
        raise DegenerateDimension("adjoint of dimension < 2 has no divisibility")
    return divisibility(adj.polygon)


def is_hyperelliptic(P: Polygon) -> bool:
    """True iff the adjoint is a line segment (or a single point in the
    degenerate genus-1 case, which we do not call hyperelliptic)."""
    adj = adjoint(P)
    if adj.kind == "empty":
        raise EmptyAdjoint("polygon has no interior lattice points")
    return adj.kind == "segment"


@dataclass(frozen=True)
class UnimodularMap:
    """Affine map p -> L p + t with L integer of determinant +-1."""

    lin: tuple[tuple[int, int], tuple[int, int]]
    shift: Point = (0, 0)

    def __post_init__(self):
        (a, b), (c, d) = self.lin
        if a * d - b * c not in (1, -1):
            raise LatticeError("linear part not unimodular")

    def apply(self, p: Point) -> Point:
        (a, b), (c, d) = self.lin
        return (a * p[0] + b * p[1] + self.shift[0], c * p[0] + d * p[1] + self.shift[1])

    def apply_polygon(self, P: Polygon) -> Polygon:
        """The image of P; P itself under the identity.  The image carries
        the images of the facts P has found (interior points, adjoint), so
        they are not found again; the facts P has not found stay lazy.  This
        is exact: an affine unimodular map is a bijection of Z^2 that sends
        interiors to interiors and hulls to hulls."""
        if self == IDENTITY_MAP:
            return P
        Q = Polygon(tuple(self.apply(v) for v in P.vertices))
        if P._interior is not None:
            # sorting gives back the scan order
            object.__setattr__(Q, "_interior", tuple(sorted(map(self.apply, P._interior))))
        if P._adjoint is not None:
            object.__setattr__(Q, "_adjoint", self._apply_adjoint(P._adjoint))
        return Q

    def _apply_adjoint(self, adj: Adjoint) -> Adjoint:
        if adj.kind == "polygon":
            # the constructor fixes the vertex order under determinant -1
            return Adjoint("polygon", polygon=self.apply_polygon(adj.polygon))
        if adj.kind == "point":
            return Adjoint("point", point=self.apply(adj.point))
        if adj.kind == "segment":
            return Adjoint("segment", segment_ends=tuple(sorted(map(self.apply, adj.segment_ends))))
        return adj


IDENTITY_MAP = UnimodularMap(((1, 0), (0, 1)))


def kappa_standard_embedding(P: Polygon, kappa: Point) -> UnimodularMap:
    """Unimodular map sending the adjoint corner kappa to the origin and the
    two adjoint edges at kappa onto the nonnegative x- and y-axes (the
    counterclockwise-outgoing edge goes to the x-axis)."""
    adj = adjoint(P)
    if adj.kind != "polygon":
        raise DegenerateDimension("kappa-standard embedding needs a 2-dimensional adjoint")
    A = adj.polygon
    if kappa not in A.vertices:
        raise NotAVertex("%r is not a vertex of the adjoint" % (kappa,))
    vs = A.vertices
    i = vs.index(kappa)
    nxt = vs[(i + 1) % len(vs)]
    prv = vs[(i - 1) % len(vs)]
    e1 = primitive((nxt[0] - kappa[0], nxt[1] - kappa[1]))
    e2 = primitive((prv[0] - kappa[0], prv[1] - kappa[1]))
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if det != 1:
        raise NoUnimodularNormalization(
            "adjoint corner at %r is not unimodular (det %d); input is not smooth" % (kappa, det))
    # send e1 -> (1,0), e2 -> (0,1): the linear part is the inverse of [e1 e2]
    lin = ((e2[1], -e2[0]), (-e1[1], e1[0]))
    m = UnimodularMap(lin)
    shift = m.apply(kappa)
    return UnimodularMap(lin, (-shift[0], -shift[1]))


def canonical_form(P: Polygon):
    """Canonical representative of P under the unimodular maps of
    determinant +1: the kappa-standardization, over all adjoint corners,
    with the least vertex tuple.  Reports built from it are byte-identical
    across the images of determinant +1 of one polygon; a mirror image may
    get another form.

    The corners are ranked by the vertex tuple of their image, and only the
    winning image is built as a ``Polygon``, carrying the facts of P."""
    adj = adjoint(P)
    if adj.kind != "polygon":
        raise DegenerateDimension("canonical form needs a 2-dimensional adjoint")
    best = None
    for kappa in adj.polygon.vertices:
        m = kappa_standard_embedding(P, kappa)
        # the linear part has det(e1, e2) = +1, so the image keeps the
        # counterclockwise order; rotating it to its least vertex gives the
        # vertex tuple the image Polygon would store
        image = [m.apply(v) for v in P.vertices]
        k = image.index(min(image))
        key = tuple(image[k:] + image[:k])
        if best is None or key < best[0]:
            best = (key, m)
    m = best[1]
    return m.apply_polygon(P), m


def polygon_to_json(P: Polygon) -> dict:
    return {"vertices": [[x, y] for x, y in P.vertices]}


def polygon_from_json(data) -> Polygon:
    if not isinstance(data, dict) or "vertices" not in data:
        raise LatticeError("polygon JSON needs a 'vertices' key")
    return Polygon(tuple(map(_point, data["vertices"])))


def is_smooth(P: Polygon) -> bool:
    """Every corner cone of P is unimodular (the associated toric surface is
    smooth)."""
    vs = P.vertices
    n = len(vs)
    for i in range(n):
        k = vs[i]
        e1 = primitive((vs[(i + 1) % n][0] - k[0], vs[(i + 1) % n][1] - k[1]))
        e2 = primitive((vs[(i - 1) % n][0] - k[0], vs[(i - 1) % n][1] - k[1]))
        if e1[0] * e2[1] - e1[1] * e2[0] != 1:
            return False
    return True
