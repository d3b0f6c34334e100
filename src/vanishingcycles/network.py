"""Curve networks on doubled lattice polygons.

A two-dimensional "inner hull" polygon (the convex hull of the interior
lattice points) determines a family of simple closed curves on the doubled
surface: one circle per interior lattice point, and one curve per eligible
primitive lattice segment.  This module builds the standard network of those
curves anchored at a chosen inner-hull corner, together with its intersection
graph, the distinguished subnetwork obtained by deleting the circle at (0,1),
and the chain configuration used by the disk-bundle relation checks.

All coordinates are normalized so that the anchor corner sits at the origin
with its two inner-hull edges along the positive axes.  That frame makes
every built network valid and crossing-free (see ``build_network``), so
only a network read from outside, by ``network_from_json``, has all its
segment pairs checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .lattice import (
    IDENTITY_MAP,
    NoUnimodularNormalization,
    Point,
    Polygon,
    Segment,
    UnimodularMap,
    _point,
    adjoint,
    canonical_form,
    divisibility,
    kappa_standard_embedding,
    line_meets_open_segment,
    polygon_from_json,
    polygon_to_json,
    primitive,
)


class NetworkError(ValueError):
    """Base class for network construction and query failures."""


class DegenerateAdjoint(NetworkError):
    """The inner hull is not two-dimensional, so no network exists."""


class NonSmoothCorner(NetworkError):
    """The anchor corner admits no unimodular normalization."""


class UnsupportedPair(NetworkError):
    """Two segment curves cross transversally away from lattice points."""


class MissingCurve(NetworkError):
    """A requested curve is not present in the network."""


class ConfigurationUnavailable(NetworkError):
    """The chain configuration cannot be assembled from this network."""


@dataclass(frozen=True)
class ACurve:
    """Circle around the interior lattice point ``point``."""

    point: Point

    def __str__(self) -> str:
        return f"A{self.point}"


@dataclass(frozen=True)
class BCurve:
    """Doubled curve lying over the primitive segment ``segment``."""

    segment: Segment

    def __str__(self) -> str:
        a, b = self.segment.endpoints()
        return f"B({a},{b})"


CurveId = Union[ACurve, BCurve]

#: Sort key giving a deterministic curve ordering: circles first.
def curve_sort_key(curve: CurveId):
    if isinstance(curve, ACurve):
        return (0, curve.point, curve.point)
    return (1,) + curve.segment.endpoints()


@dataclass
class Network:
    """A finite curve collection on the doubled surface of ``polygon``.

    ``clauses`` maps each curve to the 1-based defining clause that produced
    it (1 = circles, 2 = the hull-top segment, 3 = the closing segment,
    4 = segments on lines through the anchor).  User-assembled networks may
    use clause 0.  ``embedding`` records the normalization applied to the
    original input polygon.
    """

    polygon: Polygon
    kappa: Point
    clauses: dict
    embedding: UnimodularMap
    r: int
    adjoint_polygon: Polygon
    # facts of the curve set, each built once: the sorted curves and the
    # segment curves at each point; a network's clauses do not change
    _curves: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)
    _incident: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False)

    def __contains__(self, curve: CurveId) -> bool:
        return curve in self.clauses

    def __len__(self) -> int:
        return len(self.clauses)

    def curve_list(self) -> list:
        if self._curves is None:
            self._curves = tuple(sorted(self.clauses, key=curve_sort_key))
        return list(self._curves)

    def segments_at(self, p: Point) -> tuple:
        """The segment curves with an endpoint at ``p``, in curve order."""
        if self._incident is None:
            incident = {}
            for b in self.b_curves():
                for q in b.segment.endpoints():
                    incident.setdefault(q, []).append(b)
            self._incident = {q: tuple(bs) for q, bs in incident.items()}
        return self._incident.get(p, ())

    def a_curves(self) -> list:
        return [c for c in self.curve_list() if isinstance(c, ACurve)]

    def b_curves(self) -> list:
        return [c for c in self.curve_list() if isinstance(c, BCurve)]

    def without(self, curve: CurveId) -> "Network":
        if curve not in self.clauses:
            raise MissingCurve(f"curve {curve} not in network")
        return replace(self, clauses={c: k for c, k in self.clauses.items()
                                      if c != curve})


@dataclass(frozen=True)
class DnConfiguration:
    """The explicit chain configuration anchored on the x-axis.

    ``chain`` holds the 2r+1 alternating circle/segment curves; ``delta1``
    closes the separating cycle; ``b_segment`` is the segment under the
    distinguished curve that is deliberately absent from the network; ``d``
    is the circle meeting it once.
    """

    a: BCurve
    a_prime: BCurve
    chain: tuple
    delta1: BCurve
    b_segment: Segment
    d: ACurve

    def curves(self) -> list:
        return [self.a, self.a_prime, *self.chain, self.delta1]

    @property
    def n(self) -> int:
        return len(self.chain) + 2


@dataclass
class IntersectionGraph:
    vertices: list
    edges: list


def _direction_angle_cmp(d1: Point, d2: Point) -> int:
    """Compare primitive directions by counterclockwise angle from +x."""
    def half(d):
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1
    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


_angle_key = functools.cmp_to_key(_direction_angle_cmp)


def _canonical_line_direction(d: Point) -> Point:
    """Normalize a primitive direction up to sign (lines are unoriented)."""
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        return (-d[0], -d[1])
    return d


def _sigma_segment(adj: Polygon) -> Segment:
    """Clause-2 segment: from the adjoint vertex kappa' = (0, k) on the +y
    axis, one primitive step along its other adjoint edge.  In the standard
    frame the adjoint's vertices run (0, 0), (a, 0), ..., (0, k), so kappa'
    is the last vertex and the far end of that edge the one before it."""
    kappa_prime, far = adj.vertices[-1], adj.vertices[-2]
    step = primitive((far[0] - kappa_prime[0], far[1] - kappa_prime[1]))
    return Segment(kappa_prime, (kappa_prime[0] + step[0],
                                 kappa_prime[1] + step[1]))


def _clause4_segments(P: Polygon, excluded: list) -> list:
    """The segments between consecutive lattice points of P on the lines
    through the origin whose line avoids the open excluded segments."""
    points = P.lattice_points()
    lines = {}
    for p in points:
        if p == (0, 0):
            continue
        d = _canonical_line_direction(primitive(p))
        lines.setdefault(d, []).append(p)
    segments = []
    for d in sorted(lines):
        if any(line_meets_open_segment((0, 0), d, seg) for seg in excluded):
            continue
        # collect every lattice point on the line, ordered along it
        on_line = [(0, 0)] + lines[d]
        on_line.sort(key=lambda p: p[0] * d[0] + p[1] * d[1])
        segments.extend(Segment(p, q) for p, q in zip(on_line, on_line[1:]))
    return segments


def build_network(P: Polygon, kappa: Optional[Point] = None) -> Network:
    """Assemble the standard network anchored at inner-hull corner ``kappa``.

    ``kappa`` is a vertex of the inner hull in the coordinates of ``P``; when
    omitted, the corner selected by ``canonical_form`` is used.  The returned
    network carries the normalized polygon and the map that produced it.

    A segment curve lies over a valid segment: its ends are lattice points
    of the polygon that do not lie on one edge of it.  The standard frame
    guarantees every fact but one, so only that one is checked.  The anchor
    is the origin and the adjoint's edges there run along +x and +y, so the
    adjoint lies in the closed first quadrant and its vertices run (0, 0),
    (a, 0), ..., (0, k), with r dividing a.  Adjoint points are interior to
    the polygon, so none of them lies on an edge:

    1. sigma joins two adjoint points, so it is valid.
    2. tau = (0, -1)-(r, 0) ends at the adjoint point (r, 0), so it is valid
       exactly when (0, -1) lies in the polygon.  This is the one refusal.
    3. A clause-4 segment joins lattice points of the polygon that are
       consecutive on a line through the interior origin.  That line is no
       edge line, so the two points share no edge.

    No two segment curves cross, so no pair is checked either:

    4. Clause-4 segments join consecutive lattice points on lines through
       the origin, so two of them meet at most at a shared endpoint.  No
       such line contains sigma (it leaves the y-axis) or tau (its line
       misses the origin), and each one avoids the open sigma and tau, so
       no clause-4 segment crosses sigma or tau.
    5. sigma runs from (0, k), k >= 1, along an adjoint edge, so it lies in
       x >= 0, y >= 0.
    6. tau lies in y <= 0 and reaches y = 0 only at its endpoint.
    7. b = (-1, 1)-(0, 1), the segment kept out of the network, lies on
       y = 1 with x <= 0.  A line through the origin that meets the open b
       at (t, 1), -1 < t < 0, meets the open tau at u = -t/(r - t) along
       it, so no clause-4 segment crosses b either.

    So sigma, tau and b meet pairwise at most at an endpoint, which
    ``_segment_intersection`` never counts as a crossing.  The same frame
    puts the distinguished configuration in every built network: the
    circles at (0, 0), ..., (r, 0) and (0, 1) are at adjoint points, the
    axes are clause-4 lines (sigma and tau only end on them) holding
    (0, -1)-(0, 0)-(0, 1) and the steps from (0, 0) to (r, 0), and tau
    closes the chain.  No curve lies over b: its line misses the origin,
    and (-1, 1) is no end of sigma or tau.  (-1, 1) is no adjoint point
    either, so b meets the network once, at the circle at (0, 1), and no
    other curve.
    """
    adj = adjoint(P)
    if adj.kind != "polygon":
        raise DegenerateAdjoint(
            f"inner hull is {adj.kind}; a two-dimensional hull is required")
    try:
        if kappa is None:
            Q, emb = canonical_form(P)
        else:
            emb = kappa_standard_embedding(P, kappa)
            Q = emb.apply_polygon(P)
    except NoUnimodularNormalization as exc:
        raise NonSmoothCorner(str(exc)) from exc

    adjQ = adjoint(Q).polygon
    r = divisibility(adjQ)

    clauses = {}
    # clause 1: one circle per interior lattice point
    for v in Q.interior_points():
        clauses[ACurve(v)] = 1

    # clause 2: the hull-top segment
    sigma = _sigma_segment(adjQ)
    clauses.setdefault(BCurve(sigma), 2)

    # clause 3: the closing segment from (r, 0) to (0, -1)
    tau = Segment((r, 0), (0, -1))
    if not Q.contains((0, -1)):
        raise NetworkError(f"clause-3 segment {tau} is not a valid segment")
    clauses.setdefault(BCurve(tau), 3)

    # clause 4: lines through the anchor avoiding sigma and tau
    for seg in _clause4_segments(Q, [sigma, tau]):
        clauses.setdefault(BCurve(seg), 4)

    return Network(Q, (0, 0), clauses, emb, r, adjQ)


def geometric_intersection(c1: CurveId, c2: CurveId) -> int:
    """Minimal intersection number of two network curves (0 or 1)."""
    if c1 == c2:
        return 0
    if isinstance(c1, ACurve) and isinstance(c2, ACurve):
        return 0
    if isinstance(c1, ACurve) and isinstance(c2, BCurve):
        return 1 if c1.point in c2.segment.endpoints() else 0
    if isinstance(c1, BCurve) and isinstance(c2, ACurve):
        return geometric_intersection(c2, c1)
    return _segment_intersection(c1.segment, c2.segment)


def _segment_intersection(s1: Segment, s2: Segment) -> int:
    """0 unless the segments cross at a point inside both, which is not
    representable at this level.  Distinct segments are primitive, so they
    share no subsegment and neither holds a lattice point of the other
    inside it: every other meeting is a common endpoint."""
    (a, b), (c, d) = s1.endpoints(), s2.endpoints()

    def orient(p, q, t):
        return (q[0] - p[0]) * (t[1] - p[1]) - (q[1] - p[1]) * (t[0] - p[0])

    if (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0):
        raise UnsupportedPair(
            f"segments {s1} and {s2} cross at a non-lattice point")
    return 0


def check_network_invariants(net: Network) -> None:
    """Validate a network from outside: pairwise intersections are 0/1 with
    no transversal interior crossings.

    Only two segment curves can cross badly (``geometric_intersection`` of a
    circle is always 0 or 1), so every segment pair is checked on each call;
    ``UnsupportedPair`` is raised for a bad pair.  ``build_network`` needs no
    such check."""
    segments = [b.segment for b in net.b_curves()]
    for i, s in enumerate(segments):
        for t in segments[i + 1:]:
            _segment_intersection(s, t)


def intersection_graph(net: Network) -> IntersectionGraph:
    """Curves and the pairs of them that meet once: each circle with the
    segment curves ending at its point (``geometric_intersection`` is the
    pairwise definition)."""
    edges = [(a, b) for a in net.a_curves() for b in net.segments_at(a.point)]
    return IntersectionGraph(net.curve_list(), edges)


def _find(parent, x):
    """The root of ``x`` in a union-find forest: ``parent`` maps each element
    to its parent, as a dict or as a list indexed by element; paths are
    halved on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y) -> bool:
    """Merge the classes of ``x`` and ``y``; False if they were one class."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return False
    parent[rx] = ry
    return True


def graph_stats(G: IntersectionGraph):
    """(connected, first Betti number, is_tree); an empty graph is not
    connected by convention."""
    V = len(G.vertices)
    if V == 0:
        return (False, 0, False)
    index = {v: i for i, v in enumerate(G.vertices)}
    parent = list(range(V))
    for a, b in G.edges:
        _union(parent, index[a], index[b])
    components = sum(parent[i] == i for i in range(V))
    betti = len(G.edges) - V + components
    connected = components == 1
    return (connected, betti, connected and betti == 0)


def subnetwork_nprime(net: Network) -> Network:
    """Remove the circle at (0, 1)."""
    target = ACurve((0, 1))
    if target not in net:
        raise MissingCurve("circle at (0, 1) not present")
    return net.without(target)


def dn_configuration(net: Network) -> DnConfiguration:
    """The explicit alternating chain along the x-axis, its two starting
    segments, the closing curve, and the marked circle at (0, 1)."""
    r = net.r
    a = BCurve(Segment((0, 0), (0, -1)))
    a_prime = BCurve(Segment((0, 0), (0, 1)))
    chain = []
    for k in range(1, r + 2):
        chain.append(ACurve((k - 1, 0)))
        if k <= r:
            chain.append(BCurve(Segment((k - 1, 0), (k, 0))))
    delta1 = BCurve(Segment((r, 0), (0, -1)))
    d = ACurve((0, 1))
    for curve in [a, a_prime, *chain, delta1, d]:
        if curve not in net:
            raise ConfigurationUnavailable(f"missing curve {curve}")
    return DnConfiguration(a, a_prime, tuple(chain), delta1,
                           Segment((-1, 1), (0, 1)), d)


def network_to_json(net: Network) -> dict:
    curves = []
    for curve in net.curve_list():
        if isinstance(curve, ACurve):
            curves.append({"type": "A", "data": list(curve.point),
                           "clause": net.clauses[curve]})
        else:
            a, b = curve.segment.endpoints()
            curves.append({"type": "B", "data": [list(a), list(b)],
                           "clause": net.clauses[curve]})
    return {
        "polygon": polygon_to_json(net.polygon),
        "kappa": list(net.kappa),
        "r": net.r,
        "adjoint": polygon_to_json(net.adjoint_polygon),
        "embedding": {"lin": [list(row) for row in net.embedding.lin],
                      "shift": list(net.embedding.shift)},
        "curves": curves,
    }


def network_from_json(data: dict) -> Network:
    P = polygon_from_json(data["polygon"])
    adjP = polygon_from_json(data["adjoint"])
    clauses = {}
    for entry in data["curves"]:
        if entry["type"] == "A":
            curve = ACurve(_point(entry["data"]))
        elif entry["type"] == "B":
            a, b = entry["data"]
            curve = BCurve(Segment(_point(a), _point(b)))
        else:
            raise NetworkError(f"unknown curve type {entry['type']!r}")
        clause = entry.get("clause", 0)
        if type(clause) is not int:
            raise NetworkError(f"a clause is an integer, got {clause!r}")
        clauses[curve] = clause
    emb = IDENTITY_MAP
    if "embedding" in data:
        emb = UnimodularMap(tuple(map(_point, data["embedding"]["lin"])),
                            _point(data["embedding"]["shift"]))
    r = data["r"]
    if type(r) is not int:
        raise NetworkError(f"the modulus r is an integer, got {r!r}")
    net = Network(P, _point(data["kappa"]), clauses, emb, r, adjP)
    check_network_invariants(net)
    return net
