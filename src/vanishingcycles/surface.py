"""The doubled surface spanned by a curve network, as a ribbon graph.

The smooth curve modelled by a polygon is built combinatorially by doubling
the polygon (minus a small disk at each interior lattice point) along its
full boundary.  Circles live on the seams, segment curves run through the
front copy and return through the back copy.  Every transverse crossing of a
circle and a segment curve becomes a 4-valent vertex of a ribbon graph; the
cyclic dart order at each vertex encodes the embedding, so Euler
characteristic, faces and complementary regions are exact combinatorial
computations.

Homology is generated by the network curves themselves: their pairing is the
crossing-sign matrix below.  One symplectic reduction of that matrix splits
the lattice of curve combinations into pairs of pairing d and a radical;
when it finds g pairs, each of pairing 1, the matrix has rank 2g and unit
elementary divisors, so the curve classes span a full-rank unimodular
sublattice of H_1, which is all of H_1.

Sign conventions (pinned here, used by every downstream module):
  * circles are oriented counterclockwise as seen in the front copy;
  * a segment curve is oriented along its segment in the front copy, from
    the lexicographically smaller endpoint to the larger one;
  * with these orientations the crossing of circle A(v) with segment curve
    B(s) counts +1 when s exits v, and -1 when s enters v.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .intlinalg import standard_j, support, symplectic_reduction
from .lattice import Polygon, Segment, genus
from .network import (
    ACurve,
    Arc,
    BCurve,
    Crossing,
    CurveId,
    Network,
    NetworkError,
    _find,
    _union,
    check_network_invariants,
    crossing_sort_key,
    curve_arcs,
    curve_crossings,
    curve_sort_key,
)


class SurfaceError(ValueError):
    pass


class NotClosedSurface(SurfaceError):
    pass


class UnknownCurve(SurfaceError):
    pass


class EmptySurface(SurfaceError):
    pass


@dataclass(frozen=True)
class PhantomVertex:
    """Placeholder vertex for a curve without any crossings; its regular
    neighborhood is an annulus and capping it off yields a genus-0 piece."""

    curve: CurveId


Vertex = Union[Crossing, PhantomVertex]
Dart = Tuple[Arc, int]  # (arc, 0) leaves arc.start, (arc, 1) leaves arc.end


def _vertex_key(v: Vertex):
    if isinstance(v, PhantomVertex):
        return (2, curve_sort_key(v.curve))
    return (0,) + crossing_sort_key(v)


def _arc_key(a: Arc):
    return (curve_sort_key(a.curve), a.index)


def _dart_key(d: Dart):
    return (_arc_key(d[0]), d[1])


def dart_partner(d: Dart) -> Dart:
    return (d[0], 1 - d[1])


def dart_vertex(d: Dart) -> Vertex:
    """Vertex a dart is attached to (the one it leaves when traversed)."""
    arc, end = d
    x = arc.start if end == 0 else arc.end
    if x is None:
        return PhantomVertex(arc.curve)
    return x


@dataclass
class RibbonSurface:
    """Rotation system of the doubled surface cut out by a network."""

    network: Network
    vertices: Tuple[Vertex, ...]
    arcs: Tuple[Arc, ...]
    rotation: Dict[Vertex, Tuple[Dart, ...]]
    faces: Tuple[Tuple[Dart, ...], ...]
    curve_arcs: Dict[CurveId, Tuple[Arc, ...]]
    # derived facts, each computed on first use
    _homology: Optional["IntersectionForm"] = field(
        default=None, init=False, repr=False, compare=False)
    _components: Optional[Tuple[FrozenSet[CurveId], ...]] = field(
        default=None, init=False, repr=False, compare=False)
    _fills: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False)
    _face_of_dart: Optional[Dict[Dart, int]] = field(
        default=None, init=False, repr=False, compare=False)

    def euler(self) -> int:
        if not self.arcs:
            raise EmptySurface("surface of an empty network has no Euler number")
        return len(self.vertices) - len(self.arcs) + len(self.faces)

    def components(self) -> List[FrozenSet[CurveId]]:
        if self._components is not None:
            return list(self._components)
        parent = {c: c for c in self.network.curve_list()}
        for v in self.vertices:
            if isinstance(v, Crossing):
                _union(parent, v.a, v.b)
        groups: Dict[CurveId, set] = {}
        for c in parent:
            groups.setdefault(_find(parent, c), set()).add(c)
        self._components = tuple(frozenset(g) for g in groups.values())
        return list(self._components)

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def fills(self) -> bool:
        """True iff the network cuts the polygon's closed surface into disks:
        it has arcs, it is connected, and chi = 2 - 2g."""
        if self._fills is None:
            self._fills = (bool(self.arcs) and self.is_connected()
                           and self.euler() == 2 - 2 * genus(self.network.polygon))
        return self._fills

    def genus(self) -> int:
        if not self.is_connected():
            raise NotClosedSurface("surface is not connected")
        chi = self.euler()
        assert chi % 2 == 0 and chi <= 2
        return (2 - chi) // 2

    def face_of_dart(self) -> Dict[Dart, int]:
        """The index of the face each dart runs along; the one map is shared
        by every caller and must not be changed."""
        if self._face_of_dart is None:
            self._face_of_dart = {d: i for i, walk in enumerate(self.faces)
                                  for d in walk}
        return self._face_of_dart


@dataclass
class IntersectionForm:
    """Symplectic homology data of a closed ribbon surface, generated by the
    network curves.

    ``chords`` holds the generating curves in network order and
    ``chord_gram`` their crossing-sign matrix.  ``base_change`` expresses
    each symplectic basis class x1, y1, ..., xg, yg as an integer combination
    of those curves; their pairing is exactly ``matrix`` (the standard
    interleaved form).  ``classes`` is the table of curve classes: each
    curve's coordinates in that basis, read off the products G.b that the
    check of ``matrix`` computes.
    """

    genus: int
    matrix: Tuple[Tuple[int, ...], ...]
    base_change: Tuple[Tuple[int, ...], ...]
    chords: Tuple[CurveId, ...]
    chord_gram: Tuple[Tuple[int, ...], ...]
    classes: Dict[CurveId, Tuple[int, ...]]


@dataclass(frozen=True)
class Region:
    """A complementary region of a subfamily of network curves, obtained by
    merging ribbon faces across every arc not cut along."""

    faces: FrozenSet[int]
    chi: int
    boundary_curves: FrozenSet[CurveId]
    internal_curves: FrozenSet[CurveId]
    internal_arcs: int
    internal_vertices: int


def inflate(P: Polygon, net: Network) -> RibbonSurface:
    """Build the rotation system of the doubled surface cut out by ``net``.

    ``net`` carries its own normalized polygon; ``P`` is accepted in either
    the original or the normalized coordinates and checked for consistency.
    """
    if genus(P) != genus(net.polygon):
        raise SurfaceError("network does not belong to this polygon")

    arcs_by_curve: Dict[CurveId, Tuple[Arc, ...]] = {}
    for c in net.curve_list():
        arcs_by_curve[c] = tuple(curve_arcs(net, c))

    rotation: Dict[Vertex, Tuple[Dart, ...]] = {}
    for a in net.a_curves():
        xs = curve_crossings(net, a)
        arcs = arcs_by_curve[a]
        if not xs:
            loop = arcs[0]
            rotation[PhantomVertex(a)] = ((loop, 0), (loop, 1))
            continue
        k = len(xs)
        for i, x in enumerate(xs):
            a_next = (arcs[i], 0)
            a_prev = (arcs[i - 1], 1)
            b = x.b
            bxs = curve_crossings(net, b)
            barcs = arcs_by_curve[b]
            if len(bxs) == 2:
                if x == bxs[0]:
                    b_front, b_back = (barcs[0], 0), (barcs[1], 1)
                else:
                    b_front, b_back = (barcs[0], 1), (barcs[1], 0)
            elif x.a.point == b.segment.a:
                # lone crossing at the start of the segment: the curve
                # departs on the front sheet and returns on the back
                b_front, b_back = (barcs[0], 0), (barcs[0], 1)
            else:
                # lone crossing at the far end: it arrives on the front
                b_front, b_back = (barcs[0], 1), (barcs[0], 0)
            # counterclockwise in the front copy: segment out, circle
            # forward, segment back-copy, circle backward
            rotation[x] = (b_front, a_next, b_back, a_prev)
    for b in net.b_curves():
        if not curve_crossings(net, b):
            loop = arcs_by_curve[b][0]
            rotation[PhantomVertex(b)] = ((loop, 0), (loop, 1))

    vertices = tuple(sorted(rotation, key=_vertex_key))
    arcs = tuple(a for c in net.curve_list() for a in arcs_by_curve[c])
    faces = _trace_faces(rotation)
    surf = RibbonSurface(net, vertices, arcs, rotation, faces, arcs_by_curve)
    if arcs:
        chi = surf.euler()
        assert chi % 2 == 0 and chi <= 2 * len(surf.components())
    return surf


def _trace_faces(rotation: Dict[Vertex, Tuple[Dart, ...]]):
    succ: Dict[Dart, Dart] = {}
    for darts in rotation.values():
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]
    faces = []
    seen = set()
    for d0 in sorted(succ, key=_dart_key):
        if d0 in seen:
            continue
        walk = []
        d = d0
        while True:
            walk.append(d)
            seen.add(d)
            d = succ[dart_partner(d)]
            if d == d0:
                break
        faces.append(tuple(walk))
    return tuple(faces)


def is_filling(P: Polygon, net: Network) -> bool:
    """True iff every complementary piece of the network is a disk."""
    return inflate(P, net).fills()


# --- homology ----------------------------------------------------------------

def _crossing_signs(curves: Sequence[CurveId],
                   vertices: Sequence[Vertex]) -> List[List[int]]:
    """Pairing matrix of the network curves, read off their crossings.

    A(v).B(s) = +1 where s leaves v, -1 where s arrives at v; every other
    entry (no common crossing, or two curves of one family) is 0.
    """
    index = {c: i for i, c in enumerate(curves)}
    M = [[0] * len(curves) for _ in curves]
    for x in vertices:
        if isinstance(x, Crossing):
            i, j = index[x.a], index[x.b]
            sign = 1 if x.b.segment.a == x.a.point else -1
            M[i][j], M[j][i] = sign, -sign
    return M


def homology_basis(S: RibbonSurface) -> IntersectionForm:
    """Symplectic basis of the closed surface obtained by capping the faces.

    The surface must be connected.  The network curves generate: one
    symplectic reduction of their crossing-sign matrix G splits Z^n into
    pairs and the radical of G, and the pairs are returned as a symplectic
    basis with the standard form, together with the class of every curve in
    that basis.  The curves generate H_1 exactly when G has rank 2 - chi and
    unit elementary divisors, that is, when the reduction finds (2 - chi)/2
    pairs, each of pairing 1; otherwise ``SurfaceError`` is raised.

    The reduction carries G.v with every vector v, so every pairing, in it
    and in the check of the form below, is a sparse dot product.
    """
    if S._homology is not None:
        return S._homology
    if not S.arcs:
        raise EmptySurface("no homology for the empty surface")
    if not S.is_connected():
        raise NotClosedSurface("surface is not connected")
    curves = tuple(S.network.curve_list())
    G = _crossing_signs(curves, S.vertices)
    n = len(curves)

    pairs, _ = symplectic_reduction([support(row) for row in G])
    pivots = [d for d, *_ in pairs]
    chi = S.euler()
    if 2 * len(pairs) != 2 - chi or any(d != 1 for d in pivots):
        raise SurfaceError(
            f"the curves do not generate H_1: their pairing has rank "
            f"{2 * len(pairs)} and largest elementary divisor "
            f"{lcm(*pivots) if pivots else 0}, the Euler number is {chi}")
    g = len(pairs)
    basis = [v for _, x, _, y, _ in pairs for v in (x, y)]
    Gb = [Gv for _, _, Gx, _, Gy in pairs for Gv in (Gx, Gy)]

    J = standard_j(g)
    for i, b in enumerate(basis):
        for j in range(2 * g):
            assert sum(c * Gb[j].get(k, 0) for k, c in b.items()) == J[i][j]

    # the class a of curve c solves a.J = p with p_k = <c, b_k> = (G b_k)[c],
    # so a = -p.J; for the interleaved J and p indexed from 1 that is
    # (p_2, -p_1, p_4, -p_3, ...)
    classes = {c: tuple(v for _, _, Gx, _, Gy in pairs
                        for v in (Gy.get(i, 0), -Gx.get(i, 0)))
               for i, c in enumerate(curves)}

    form = IntersectionForm(
        genus=g,
        matrix=tuple(tuple(row) for row in J),
        base_change=tuple(tuple(b.get(k, 0) for k in range(n)) for b in basis),
        chords=curves,
        chord_gram=tuple(tuple(row) for row in G),
        classes=classes,
    )
    S._homology = form
    return form


def curve_class(S: RibbonSurface, c: CurveId) -> Tuple[int, ...]:
    """Coordinates of a network curve in the symplectic basis, ordered
    x1, y1, ..., xg, yg: a lookup in the class table of ``homology_basis``."""
    if not isinstance(c, (ACurve, BCurve)) or c not in S.curve_arcs:
        raise UnknownCurve(f"curve {c!r} is not on this surface")
    return homology_basis(S).classes[c]


# --- complementary regions ----------------------------------------------------

def complement_regions(S: RibbonSurface, cut) -> List[Region]:
    """Regions of the closed surface cut along ``cut`` only: ribbon faces
    merged across every arc of a curve outside ``cut``."""
    cut = set(cut)
    for c in cut:
        if c not in S.curve_arcs:
            raise UnknownCurve(f"curve {c} is not on this surface")
    if not S.arcs:
        raise EmptySurface("no regions on the empty surface")
    if not S.fills():
        raise NotClosedSurface("region bookkeeping needs a filling network")

    fmap = S.face_of_dart()
    parent = list(range(len(S.faces)))
    deleted_arcs = [a for a in S.arcs if a.curve not in cut]
    for a in deleted_arcs:
        _union(parent, fmap[(a, 0)], fmap[(a, 1)])

    root = [_find(parent, i) for i in range(len(S.faces))]
    groups: Dict[int, List[int]] = {}
    for i, r in enumerate(root):
        groups.setdefault(r, []).append(i)

    n_arcs: Dict[int, int] = {r: 0 for r in groups}
    internal: Dict[int, set] = {r: set() for r in groups}
    for a in deleted_arcs:
        r = root[fmap[(a, 0)]]
        n_arcs[r] += 1
        internal[r].add(a.curve)
    n_verts: Dict[int, int] = {r: 0 for r in groups}
    for v in S.vertices:
        if isinstance(v, PhantomVertex):
            dead = v.curve not in cut
            darts = S.rotation[v]
        else:
            dead = v.a not in cut and v.b not in cut
            darts = S.rotation[v]
        if dead:
            n_verts[root[fmap[darts[0]]]] += 1
    boundary: Dict[int, set] = {r: set() for r in groups}
    for a in S.arcs:
        if a.curve in cut:
            for end in (0, 1):
                boundary[root[fmap[(a, end)]]].add(a.curve)

    out = []
    for r, fs in sorted(groups.items()):
        out.append(Region(
            faces=frozenset(fs),
            chi=len(fs) - n_arcs[r] + n_verts[r],
            boundary_curves=frozenset(boundary[r]),
            internal_curves=frozenset(internal[r]),
            internal_arcs=n_arcs[r],
            internal_vertices=n_verts[r],
        ))
    return out


def relative_filling(P: Polygon, nprime: Network, b_segment: Segment) -> bool:
    """Decide whether ``nprime`` fills the complement of the extra curve b.

    The check runs inside the closed surface of the completed network
    (``nprime`` plus b plus the circles at b's interior endpoints): cutting
    along ``nprime`` and b must leave disks and exactly two annuli meeting
    b, and cutting along ``nprime`` alone must leave disks and exactly one
    annulus with core b.
    """
    b = BCurve(b_segment)
    clauses = dict(nprime.clauses)
    if b in clauses:
        return False
    clauses[b] = 0
    for p in b_segment.endpoints():
        if nprime.polygon.contains(p, strict=True):
            clauses.setdefault(ACurve(p), 0)
    try:
        completed = replace(nprime, clauses=clauses)
        check_network_invariants(completed)
    except NetworkError:
        return False
    S = inflate(P, completed)
    if not S.fills():
        return False
    kept = set(nprime.clauses)

    with_b = complement_regions(S, kept | {b})
    annuli = [r for r in with_b if r.chi == 0]
    if len(annuli) != 2 or any(r.chi not in (0, 1) for r in with_b):
        return False
    if any(b not in r.boundary_curves for r in annuli):
        return False

    without_b = complement_regions(S, kept)
    annuli2 = [r for r in without_b if r.chi == 0]
    if len(annuli2) != 1 or any(r.chi not in (0, 1) for r in without_b):
        return False
    return b in annuli2[0].internal_curves
