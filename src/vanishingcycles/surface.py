"""The doubled surface spanned by a curve network, as a ribbon graph.

The smooth curve modelled by a polygon is built combinatorially by doubling
the polygon (minus a small disk at each interior lattice point) along its
full boundary.  Circles live on the seams, segment curves run through the
front copy and return through the back copy.  Every transverse crossing of a
circle and a segment curve becomes a 4-valent vertex of a ribbon graph; the
cyclic dart order at each vertex encodes the embedding, so Euler
characteristic, faces and complementary regions are exact combinatorial
computations.

The ribbon graph is held as integers only.  Curves are numbered in network
order (``Network.curve_list``), arcs in curve order, each curve's in index
order, and arc ``i`` owns two darts: ``2i`` leaves its start and ``2i + 1``
its end, so the partner of dart ``d`` is ``d ^ 1``.  A face is the orbit of
a dart under "step to the partner, then to the next dart in the rotation
there"; faces are traced from the least unvisited dart, so they come out
sorted by their least dart with no sort.

Homology is generated by the network curves themselves: their pairing is the
crossing-sign matrix G below, held as sparse rows.  One symplectic reduction
of G splits the lattice of curve combinations into pairs of pairing d and a
radical; when it finds g pairs, each of pairing 1, G has rank 2g and unit
elementary divisors, so the curve classes span a full-rank unimodular
sublattice of H_1, which is all of H_1.  Every vector of the reduction is
sparse and carried with its product by G, and the reduction, the exact check
of the form and the class table each cost in proportion to the nonzeros
they touch: an index from each coordinate to the vectors whose product
holds it says which pairings can be nonzero.  The index only filters, so
the reduction's pivots are the ones a scan over every vector picks.

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
from typing import Dict, FrozenSet, List, Optional, Tuple

from .intlinalg import _pairing, symplectic_reduction
from .lattice import Segment, genus
from .network import (
    ACurve,
    BCurve,
    CurveId,
    Network,
    UnsupportedPair,
    _angle_key,
    _find,
    _union,
    geometric_intersection,
)


class SurfaceError(ValueError):
    pass


class NotClosedSurface(SurfaceError):
    pass


class UnknownCurve(SurfaceError):
    pass


class EmptySurface(SurfaceError):
    pass


@dataclass
class RibbonSurface:
    """Rotation system of the doubled surface cut out by a network, with
    the integer darts of the module docstring.

    ``curves`` holds the network curves in network order, ``curve_index``
    their positions there, and ``arcs`` the curve index of each arc.
    ``vertices`` holds the curve indices meeting at each vertex (circle,
    then segment curve, at a crossing; the one curve of a curve without
    crossings at its phantom vertex) and ``rotation`` its cyclic dart
    order, counterclockwise in the front copy; at a crossing it starts with
    the segment curve's front-copy dart.  ``faces`` holds the dart walks
    and ``dart_face`` the face of each dart.  Vertices list the crossings
    circle by circle, each circle's by segment curve, then the phantom
    vertices in curve order.
    """

    network: Network
    curves: Tuple[CurveId, ...]
    arcs: Tuple[int, ...]
    vertices: Tuple[Tuple[int, ...], ...]
    rotation: Tuple[Tuple[int, ...], ...]
    faces: Tuple[Tuple[int, ...], ...]
    dart_face: Tuple[int, ...]
    curve_index: Dict[CurveId, int] = field(repr=False, compare=False)
    # derived facts, each computed on first use
    _homology: Optional["IntersectionForm"] = field(
        default=None, init=False, repr=False, compare=False)
    _components: Optional[Tuple[FrozenSet[CurveId], ...]] = field(
        default=None, init=False, repr=False, compare=False)
    _fills: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False)

    def euler(self) -> int:
        if not self.arcs:
            raise EmptySurface("surface of an empty network has no Euler number")
        return len(self.vertices) - len(self.arcs) + len(self.faces)

    def components(self) -> List[FrozenSet[CurveId]]:
        if self._components is None:
            parent = list(range(len(self.curves)))
            for at in self.vertices:
                if len(at) == 2:
                    _union(parent, *at)
            groups: Dict[int, List[CurveId]] = {}
            for i, c in enumerate(self.curves):
                groups.setdefault(_find(parent, i), []).append(c)
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


@dataclass
class IntersectionForm:
    """Symplectic homology data of a closed ribbon surface, generated by the
    network curves, all of it sparse: a vector is a dict {index: entry} over
    its nonzero entries.

    ``chords`` holds the generating curves in network order.  ``basis``
    expresses each symplectic basis class x1, y1, ..., xg, yg as an integer
    combination of those curves, over curve indices; with G their
    crossing-sign matrix, B.G.B^T is exactly the standard interleaved form,
    checked entry by entry.  ``classes`` is the table of curve classes: each
    curve's nonzero coordinates in that basis, as (coordinate, value) pairs
    in coordinate order, read off the products G.b of the reduction.
    """

    genus: int
    chords: Tuple[CurveId, ...]
    basis: Tuple[Dict[int, int], ...]
    classes: Dict[CurveId, Tuple[Tuple[int, int], ...]]


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


def inflate(net: Network) -> RibbonSurface:
    """Build the rotation system of the doubled surface cut out by ``net``,
    on the surface of ``net.polygon``.

    The crossings come from the network's incidence index: a circle at v
    crosses the segment curves of ``net.segments_at(v)``, in counterclockwise
    order of their directions away from v, and a segment curve crosses the
    circles at its ends.
    """
    curves = tuple(net.curve_list())
    index = {c: i for i, c in enumerate(curves)}
    around = {}  # the segment curves crossing each circle, counterclockwise
    degree = []  # the number of crossings along each curve
    for i, c in enumerate(curves):
        if isinstance(c, ACurve):
            v = c.point

            def away(b):  # the direction of b leaving v
                w = b.segment.other(v)
                return _angle_key((w[0] - v[0], w[1] - v[1]))

            around[i] = sorted(net.segments_at(v), key=away)
            degree.append(len(around[i]))
        else:
            degree.append(sum(ACurve(p) in net for p in c.segment.endpoints()))
    first = []  # the index of each curve's first arc
    arcs = []
    for i, k in enumerate(degree):
        first.append(len(arcs))
        arcs += [i] * max(k, 1)

    vertices, rotation = [], []
    for i, bs in around.items():
        a0, k, v = first[i], len(bs), curves[i].point
        js = [index[b] for b in bs]
        for t in sorted(range(k), key=js.__getitem__):
            j = js[t]
            b0, b1 = first[j], first[j] + degree[j] - 1
            if v == bs[t].segment.a:
                # the segment curve departs from its first crossing on the
                # front sheet and returns to it on the back
                b_front, b_back = 2 * b0, 2 * b1 + 1
            else:
                # it arrives at its last crossing on the front sheet
                b_front, b_back = 2 * b0 + 1, 2 * b1
            # counterclockwise in the front copy: segment out, circle
            # forward, segment back-copy, circle backward
            vertices.append((i, j))
            rotation.append((b_front, 2 * (a0 + t), b_back,
                             2 * (a0 + (t - 1) % k) + 1))
    for i, k in enumerate(degree):
        if not k:  # the phantom vertex of a curve without crossings
            vertices.append((i,))
            rotation.append((2 * first[i], 2 * first[i] + 1))

    succ = [0] * (2 * len(arcs))
    for darts in rotation:
        for t, d in enumerate(darts):
            succ[d] = darts[(t + 1) % len(darts)]
    dart_face = [-1] * len(succ)
    faces = []
    for d0 in range(len(succ)):
        d, walk = d0, []
        while dart_face[d] < 0:
            dart_face[d] = len(faces)
            walk.append(d)
            d = succ[d ^ 1]
        if walk:
            faces.append(tuple(walk))

    surf = RibbonSurface(
        network=net,
        curves=curves,
        arcs=tuple(arcs),
        vertices=tuple(vertices),
        rotation=tuple(rotation),
        faces=tuple(faces),
        dart_face=tuple(dart_face),
        curve_index=index,
    )
    if arcs:
        chi = surf.euler()
        assert chi % 2 == 0 and chi <= 2 * len(surf.components())
    return surf


def is_filling(net: Network) -> bool:
    """True iff every complementary piece of ``net`` on the surface of
    ``net.polygon`` is a disk."""
    return inflate(net).fills()


# --- homology ----------------------------------------------------------------

def _crossing_signs(S: RibbonSurface) -> List[Dict[int, int]]:
    """Pairing matrix of the network curves, read off their crossings, as
    one sparse row {j: G_ij} per curve.

    A(v).B(s) = +1 where s leaves v, -1 where s arrives at v; every other
    entry (no common crossing, or two curves of one family) is 0.  The
    rotation at a crossing starts with the segment curve's front-copy dart,
    which is even exactly when the segment leaves v.
    """
    rows = [{} for _ in S.curves]
    for at, darts in zip(S.vertices, S.rotation):
        if len(at) == 2:
            i, j = at
            sign = -1 if darts[0] & 1 else 1
            rows[i][j], rows[j][i] = sign, -sign
    return rows


def _form_rows(basis, Gb):
    """The rows of B.G.B^T for the sparse vectors ``basis`` and their
    products ``Gb`` by G, each as {j: entry} over its nonzero entries.

    Entry (i, j) is b_i.(G b_j), which is 0 unless supp(b_i) meets
    supp(G b_j); an index from each coordinate k to the j whose G b_j holds
    k reaches every other j, so each entry left out is 0 by sparsity.
    """
    reach: Dict[int, List[int]] = {}
    for j, Gv in enumerate(Gb):
        for k in Gv:
            reach.setdefault(k, []).append(j)
    for b in basis:
        row = {}
        for j in {j for k in b for j in reach.get(k, ())}:
            p = _pairing(b, Gb[j])
            if p:
                row[j] = p
        yield row


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
    and in the check of the form below, is a sparse dot product, and only
    the pairings that the supports allow to be nonzero are computed.
    """
    if S._homology is not None:
        return S._homology
    if not S.arcs:
        raise EmptySurface("no homology for the empty surface")
    if not S.is_connected():
        raise NotClosedSurface("surface is not connected")
    curves = S.curves
    G = _crossing_signs(S)

    pairs, _ = symplectic_reduction([row.items() for row in G])
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

    # B.G.B^T must be the interleaved J: <x_k, y_k> = 1, every other 0
    for i, row in enumerate(_form_rows(basis, Gb)):
        assert row == ({i + 1: 1} if i % 2 == 0 else {i - 1: -1})

    # the class a of curve c solves a.J = p with p_k = <c, b_k> = (G b_k)[c],
    # so a = -p.J; for the interleaved J and p indexed from 1 that is
    # (p_2, -p_1, p_4, -p_3, ...), one pass over the pairs' G x and G y
    entries: List[List[Tuple[int, int]]] = [[] for _ in curves]
    for k, (_, _, Gx, _, Gy) in enumerate(pairs):
        for i, v in Gy.items():
            entries[i].append((2 * k, v))
        for i, v in Gx.items():
            entries[i].append((2 * k + 1, -v))

    form = IntersectionForm(
        genus=g,
        chords=curves,
        basis=tuple(basis),
        classes={c: tuple(e) for c, e in zip(curves, entries)},
    )
    S._homology = form
    return form


def curve_class(S: RibbonSurface, c: CurveId) -> Tuple[int, ...]:
    """Coordinates of a network curve in the symplectic basis, ordered
    x1, y1, ..., xg, yg: the row of the sparse class table of
    ``homology_basis``, written out in full."""
    if not isinstance(c, (ACurve, BCurve)) or c not in S.curve_index:
        raise UnknownCurve(f"curve {c!r} is not on this surface")
    form = homology_basis(S)
    h = [0] * (2 * form.genus)
    for k, v in form.classes[c]:
        h[k] = v
    return tuple(h)


# --- complementary regions ----------------------------------------------------

def complement_regions(S: RibbonSurface, cut) -> List[Region]:
    """Regions of the closed surface cut along ``cut`` only: ribbon faces
    merged across every arc of a curve outside ``cut``."""
    kept = [False] * len(S.curves)
    for c in cut:
        if c not in S.curve_index:
            raise UnknownCurve(f"curve {c} is not on this surface")
        kept[S.curve_index[c]] = True
    if not S.arcs:
        raise EmptySurface("no regions on the empty surface")
    if not S.fills():
        raise NotClosedSurface("region bookkeeping needs a filling network")

    face = S.dart_face
    parent = list(range(len(S.faces)))
    for i, c in enumerate(S.arcs):
        if not kept[c]:
            _union(parent, face[2 * i], face[2 * i + 1])

    root = [_find(parent, f) for f in range(len(S.faces))]
    groups: Dict[int, List[int]] = {}
    for f, r in enumerate(root):
        groups.setdefault(r, []).append(f)

    n_arcs = dict.fromkeys(groups, 0)
    n_verts = dict.fromkeys(groups, 0)
    internal: Dict[int, set] = {r: set() for r in groups}
    boundary: Dict[int, set] = {r: set() for r in groups}
    for i, c in enumerate(S.arcs):
        if kept[c]:
            boundary[root[face[2 * i]]].add(c)
            boundary[root[face[2 * i + 1]]].add(c)
        else:
            r = root[face[2 * i]]
            n_arcs[r] += 1
            internal[r].add(c)
    for at, darts in zip(S.vertices, S.rotation):
        if not any(kept[c] for c in at):
            n_verts[root[face[darts[0]]]] += 1

    curves = S.curves
    return [Region(
        faces=frozenset(fs),
        chi=len(fs) - n_arcs[r] + n_verts[r],
        boundary_curves=frozenset(curves[c] for c in boundary[r]),
        internal_curves=frozenset(curves[c] for c in internal[r]),
        internal_arcs=n_arcs[r],
        internal_vertices=n_verts[r],
    ) for r, fs in sorted(groups.items())]


def relative_filling(nprime: Network, b_segment: Segment) -> bool:
    """Decide whether ``nprime`` fills the complement of the extra curve b
    on the surface of ``nprime.polygon``.

    The check runs inside the closed surface of the completed network
    (``nprime`` plus b plus the circles at b's interior endpoints): cutting
    along ``nprime`` and b must leave disks and exactly two annuli meeting
    b (ii), and cutting along ``nprime`` alone must leave disks and exactly
    one annulus with core b (iii).

    The verdict does not call this function: on a built network it decides
    the same question on the network's own surface.  Let ``net`` be a built
    network that fills, S its surface, c the circle at (0, 1),
    N' = net - c and b = (-1, 1)-(0, 1).

    * b is not in ``net`` and meets c once and no other curve
      (``build_network``, point 7), so the completed network is net + b,
      and it fills.  b minus its crossing x is an arc inside one face F of
      S, and F lies on both sides of the arc alpha of c through x.
    * Cutting S along N' merges faces across arcs of c only.  Each region is
      a connected graph with its faces as vertices and its arcs of c as
      edges, and no vertex of S is inside it, so chi = faces - arcs <= 1.
      F's region carries the loop alpha, so its chi is at most 0.
    * (iii) cuts the completed surface along N'.  There b gives F's region
      one more face, two more arcs and one inner vertex, so its chi is the
      same.  So (iii) holds iff S cut along N' leaves exactly one region of
      chi 0 and every other of chi 1; the region of chi 0 is then F's, with
      b inside it.
    * (ii) also cuts along b, which splits F into F1 and F2.  The surface is
      oriented, so the boundary of F runs along the two sides of alpha in
      opposite directions, and each half of alpha has one face on both
      sides, F1 on one half and F2 on the other.  Under (iii), F's region is
      a tree plus the loop alpha; split, it becomes two trees with one loop
      each, two annuli bordered by b.  So (iii) implies (ii).

    Here the network comes from outside, so every condition is checked.
    """
    b = BCurve(b_segment)
    completed = _completed_network(nprime, b)
    if completed is None:
        return False
    S = inflate(completed)
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


def _completed_network(nprime: Network, b: BCurve) -> Optional[Network]:
    """``nprime`` plus b plus the circles at b's interior endpoints, or None
    when b is in ``nprime`` already or crosses one of its segment curves
    badly.  The segment curves of ``nprime`` do not cross each other
    (``build_network``), so only the pairs with b are checked."""
    clauses = dict(nprime.clauses)
    if b in clauses:
        return None
    try:
        for c in nprime.b_curves():
            geometric_intersection(b, c)
    except UnsupportedPair:
        return None
    clauses[b] = 0
    for p in b.segment.endpoints():
        if nprime.polygon.contains(p, strict=True):
            clauses.setdefault(ACurve(p), 0)
    return replace(nprime, clauses=clauses)
