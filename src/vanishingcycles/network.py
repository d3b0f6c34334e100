"""Curve networks on doubled lattice polygons.

A two-dimensional "inner hull" polygon (the convex hull of the interior
lattice points) determines a family of simple closed curves on the doubled
surface: one circle per interior lattice point, and one curve per eligible
primitive lattice segment.  This module builds the standard network of those
curves anchored at a chosen inner-hull corner, together with its intersection
graph, the distinguished subnetwork obtained by deleting the circle at (0,1),
and the chain configuration used by the disk-bundle relation checks.

All coordinates are normalized so that the anchor corner sits at the origin
with its two inner-hull edges along the positive axes.  No two segment
curves of a built network cross (see ``build_network``), so only a network
read from outside, by ``network_from_json``, has all its segment pairs
checked.
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

    def clause(self, curve: CurveId) -> int:
        if curve not in self.clauses:
            raise MissingCurve(f"curve {curve} not in network")
        return self.clauses[curve]

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


def _same_edge(P: Polygon, p: Point, q: Point) -> bool:
    """True if p and q lie on a common edge of P."""
    for a, b in P.edges():
        ab = (b[0] - a[0], b[1] - a[1])
        ap = (p[0] - a[0], p[1] - a[1])
        aq = (q[0] - a[0], q[1] - a[1])
        if ab[0] * ap[1] - ab[1] * ap[0] != 0:
            continue
        if ab[0] * aq[1] - ab[1] * aq[0] != 0:
            continue
        # both on the edge line; confirm within the edge's span
        def within(v):
            t = v[0] * ab[0] + v[1] * ab[1]
            return 0 <= t <= ab[0] * ab[0] + ab[1] * ab[1]
        if within(ap) and within(aq):
            return True
    return False


def valid_b_segment(P: Polygon, seg: Segment) -> bool:
    """Endpoints are lattice points of P not lying on one edge of P."""
    p, q = seg.endpoints()
    if not (P.contains(p) and P.contains(q)):
        return False
    return not _same_edge(P, p, q)


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
    """Clause-2 segment: from the +y-adjacent hull vertex one primitive
    step along its far edge."""
    verts = adj.vertices
    n = len(verts)
    k = verts.index((0, 0))
    neighbours = [verts[(k + 1) % n], verts[(k - 1) % n]]
    kappa_prime = None
    other = None
    for i, v in enumerate(neighbours):
        if v[0] == 0 and v[1] > 0:
            kappa_prime = v
            other = neighbours[1 - i]
    if kappa_prime is None:
        raise NonSmoothCorner("no hull vertex adjacent along the +y axis")
    # edge at kappa_prime not containing the origin corner
    idx = verts.index(kappa_prime)
    cand = [verts[(idx + 1) % n], verts[(idx - 1) % n]]
    far = cand[0] if cand[0] != (0, 0) else cand[1]
    if far == kappa_prime or far == (0, 0):
        raise DegenerateAdjoint("inner hull has no second edge at the top vertex")
    step = primitive((far[0] - kappa_prime[0], far[1] - kappa_prime[1]))
    w = (kappa_prime[0] + step[0], kappa_prime[1] + step[1])
    return Segment(kappa_prime, w)


def _line_blocked(d: Point, seg: Segment) -> bool:
    """Does the line through the origin with direction d meet the open
    segment, including the degenerate case of containing it?"""
    if line_meets_open_segment((0, 0), d, seg):
        return True
    a, b = seg.endpoints()
    return (d[0] * a[1] - d[1] * a[0] == 0) and (d[0] * b[1] - d[1] * b[0] == 0)


def _clause4_segments(P: Polygon, excluded: list) -> list:
    """All eligible primitive segments on lines through the origin whose
    line avoids the interiors of the excluded segments."""
    points = P.lattice_points()
    lines = {}
    for p in points:
        if p == (0, 0):
            continue
        d = _canonical_line_direction(primitive(p))
        lines.setdefault(d, []).append(p)
    segments = []
    for d in sorted(lines):
        if any(_line_blocked(d, seg) for seg in excluded):
            continue
        # collect every lattice point on the line, ordered along it
        on_line = [(0, 0)] + lines[d]
        on_line.sort(key=lambda p: p[0] * d[0] + p[1] * d[1])
        for p, q in zip(on_line, on_line[1:]):
            seg = Segment(p, q)
            if valid_b_segment(P, seg):
                segments.append(seg)
    return segments


def build_network(P: Polygon, kappa: Optional[Point] = None) -> Network:
    """Assemble the standard network anchored at inner-hull corner ``kappa``.

    ``kappa`` is a vertex of the inner hull in the coordinates of ``P``; when
    omitted, the corner selected by ``canonical_form`` is used.  The returned
    network carries the normalized polygon and the map that produced it.

    No two segment curves cross, so no pair is checked.  In the normalized
    frame the anchor is the origin and the adjoint lies in the closed first
    quadrant:

    1. Clause-4 segments join consecutive lattice points on lines through
       the origin, so two of them meet at most at a shared endpoint; their
       lines avoid the open sigma and tau (``_line_blocked``), so none of
       them crosses sigma or tau.
    2. sigma runs from (0, k), k >= 1, along an adjoint edge, so it lies in
       x >= 0, y >= 0.
    3. tau = (0, -1)-(r, 0) lies in y <= 0 and reaches y = 0 only at its
       endpoint.
    4. b = (-1, 1)-(0, 1), the segment kept out of the network, lies on
       y = 1 with x <= 0.  A line through the origin that meets the open b
       at (t, 1), -1 < t < 0, meets the open tau at u = -t/(r - t) along
       it, so no clause-4 segment crosses b either.

    So sigma, tau and b meet pairwise at most at an endpoint, which
    ``_segment_intersection`` never counts as a crossing.
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
    if not valid_b_segment(Q, sigma):
        raise NetworkError(f"clause-2 segment {sigma} is not a valid segment")
    clauses.setdefault(BCurve(sigma), 2)

    # clause 3: the closing segment from (r, 0) to (0, -1)
    tau = Segment((r, 0), (0, -1))
    if not valid_b_segment(Q, tau):
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
            curve = ACurve(tuple(entry["data"]))
        elif entry["type"] == "B":
            a, b = entry["data"]
            curve = BCurve(Segment(tuple(a), tuple(b)))
        else:
            raise NetworkError(f"unknown curve type {entry['type']!r}")
        clauses[curve] = int(entry.get("clause", 0))
    emb = IDENTITY_MAP
    if "embedding" in data:
        emb = UnimodularMap(tuple(tuple(row) for row in data["embedding"]["lin"]),
                            tuple(data["embedding"]["shift"]))
    net = Network(P, tuple(data["kappa"]), clauses, emb,
                  int(data["r"]), adjP)
    check_network_invariants(net)
    return net
