"""Oracles for the ribbon surface, on an object-valued view of it.

``object_view`` rebuilds the ribbon graph from a network with objects: the
crossings along each curve are ``Crossing`` values in the cyclic order of
``curve_crossings``, arcs are ``Arc`` values, a dart is ``(arc, end)``, a
vertex is a crossing or the phantom vertex of a curve without crossings, and
the rotation system, faces and complementary regions are built over dicts
and sets keyed by them, independently of the integer layout that
``surface.inflate`` computes.
``layout_view`` reads that layout in the same objects (dart ``d`` is
``(arcs[d >> 1], d & 1)``), so that the two can be compared.

Ribbon-graph pairing of closed dart paths: an independent oracle for the
crossing-sign matrix that ``surface.homology_basis`` reads off the network.
Contracting a spanning tree of the ribbon graph leaves a single vertex (a
rose) whose cyclic dart order is spliced from the rotation system.  Every
non-tree arc ("chord") closes a fundamental loop, and two chord loops pair by
how their darts interleave around the rose.  A closed dart path pairs through
its signed count of chord traversals.
"""

from dataclasses import dataclass
from typing import Optional

from vanishingcycles.lattice import primitive
from vanishingcycles.network import (
    ACurve,
    BCurve,
    CurveId,
    _angle_key,
    _find,
    _union,
    curve_sort_key,
)
from vanishingcycles.surface import Region


@dataclass(frozen=True)
class Crossing:
    """The single meeting point of a circle and an incident segment curve."""

    a: ACurve
    b: BCurve


def curve_crossings(net, curve: CurveId) -> list:
    """Crossings along ``curve`` in its cyclic order.

    For a circle this is the counterclockwise angular order of the incident
    segments; for a segment curve it is the (at most two) interior endpoints.
    """
    if isinstance(curve, ACurve):
        v = curve.point
        incident = []
        for other in net.segments_at(v):
            w = other.segment.other(v)
            incident.append(((w[0] - v[0], w[1] - v[1]), other))
        incident.sort(key=lambda t: (_angle_key(primitive(t[0])),
                                     curve_sort_key(t[1])))
        return [Crossing(curve, b) for _, b in incident]
    interior = [p for p in curve.segment.endpoints()
                if ACurve(p) in net]
    return [Crossing(ACurve(p), curve) for p in interior]


@dataclass(frozen=True)
class Arc:
    """Edge of the one-complex spanned by a network.

    The ``index``-th arc of ``curve`` runs from its ``index``-th crossing to
    the next one in the curve's cyclic order.  A curve with no crossings is
    represented by a single loop arc at a phantom basepoint (both crossing
    fields None).
    """

    curve: CurveId
    index: int
    start: Optional[Crossing]
    end: Optional[Crossing]


@dataclass(frozen=True)
class PhantomVertex:
    """Placeholder vertex for a curve without any crossings; its regular
    neighborhood is an annulus and capping it off yields a genus-0 piece."""

    curve: CurveId


def curve_arcs(net, curve) -> list:
    """The arcs into which its crossings divide ``curve``."""
    crossings = curve_crossings(net, curve)
    if not crossings:
        return [Arc(curve, 0, None, None)]
    k = len(crossings)
    return [Arc(curve, i, crossings[i], crossings[(i + 1) % k])
            for i in range(k)]


def crossing_sort_key(x: Crossing):
    return (curve_sort_key(x.a), curve_sort_key(x.b))


def vertex_key(v):
    if isinstance(v, PhantomVertex):
        return (2, curve_sort_key(v.curve))
    return (0,) + crossing_sort_key(v)


def dart_key(d):
    arc, end = d
    return (curve_sort_key(arc.curve), arc.index, end)


def dart_partner(d):
    return (d[0], 1 - d[1])


def dart_vertex(d):
    """Vertex a dart is attached to (the one it leaves when traversed)."""
    arc, end = d
    x = arc.start if end == 0 else arc.end
    if x is None:
        return PhantomVertex(arc.curve)
    return x


def rotation_system(net, arcs_of):
    """The cyclic dart order at every vertex, ``{vertex: darts}``, built from
    each curve's arcs ``arcs_of[curve]`` and crossings."""
    rotation = {}
    for a in net.a_curves():
        xs = curve_crossings(net, a)
        arcs = arcs_of[a]
        if not xs:
            rotation[PhantomVertex(a)] = ((arcs[0], 0), (arcs[0], 1))
            continue
        for i, x in enumerate(xs):
            b = x.b
            bxs = curve_crossings(net, b)
            barcs = arcs_of[b]
            if len(bxs) == 2:
                if x == bxs[0]:
                    b_front, b_back = (barcs[0], 0), (barcs[1], 1)
                else:
                    b_front, b_back = (barcs[0], 1), (barcs[1], 0)
            elif x.a.point == b.segment.a:
                b_front, b_back = (barcs[0], 0), (barcs[0], 1)
            else:
                b_front, b_back = (barcs[0], 1), (barcs[0], 0)
            rotation[x] = (b_front, (arcs[i], 0), b_back, (arcs[i - 1], 1))
    for b in net.b_curves():
        if not curve_crossings(net, b):
            loop = arcs_of[b][0]
            rotation[PhantomVertex(b)] = ((loop, 0), (loop, 1))
    return rotation


def trace_faces(rotation):
    """Faces of a rotation system ``{vertex: darts}``, each traced from its
    least dart under ``dart_key``, in that order."""
    succ = {}
    for darts in rotation.values():
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]
    faces = []
    seen = set()
    for d0 in sorted(succ, key=dart_key):
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


@dataclass
class ObjectView:
    """A ribbon graph in objects: vertices sorted by ``vertex_key``, arcs in
    curve order, each curve's arcs, the rotation ``{vertex: darts}`` and the
    faces as dart walks."""

    vertices: tuple
    arcs: tuple
    curve_arcs: dict
    rotation: dict
    faces: tuple


def object_view(net) -> ObjectView:
    """The ribbon graph of ``net``, built from its curves' crossings."""
    arcs_of = {c: tuple(curve_arcs(net, c)) for c in net.curve_list()}
    rotation = rotation_system(net, arcs_of)
    return ObjectView(
        vertices=tuple(sorted(rotation, key=vertex_key)),
        arcs=tuple(a for arcs in arcs_of.values() for a in arcs),
        curve_arcs=arcs_of,
        rotation=rotation,
        faces=trace_faces(rotation),
    )


def layout_view(S, arcs):
    """The integer layout of ``S`` read in objects, as (vertices, rotation,
    faces): ``arcs`` numbers the arcs, dart ``d`` is
    ``(arcs[d >> 1], d & 1)``, and a vertex is the crossing of its two
    curves or the phantom vertex of its one curve."""
    def dart(d):
        return (arcs[d >> 1], d & 1)

    vertices = tuple(Crossing(S.curves[at[0]], S.curves[at[1]]) if len(at) == 2
                     else PhantomVertex(S.curves[at[0]]) for at in S.vertices)
    rotation = {v: tuple(map(dart, ds)) for v, ds in zip(vertices, S.rotation)}
    faces = tuple(tuple(map(dart, walk)) for walk in S.faces)
    return vertices, rotation, faces


def face_of_dart(V):
    return {d: i for i, walk in enumerate(V.faces) for d in walk}


def complement_regions(V, cut):
    """Regions of a filling surface cut along ``cut``: faces merged across
    every arc of a curve outside ``cut``, read off the arcs, the rotation
    and the faces of the view ``V``."""
    cut = set(cut)
    fmap = face_of_dart(V)
    parent = list(range(len(V.faces)))
    deleted_arcs = [a for a in V.arcs if a.curve not in cut]
    for a in deleted_arcs:
        _union(parent, fmap[(a, 0)], fmap[(a, 1)])

    root = [_find(parent, i) for i in range(len(V.faces))]
    groups = {}
    for i, r in enumerate(root):
        groups.setdefault(r, []).append(i)

    n_arcs = {r: 0 for r in groups}
    internal = {r: set() for r in groups}
    for a in deleted_arcs:
        r = root[fmap[(a, 0)]]
        n_arcs[r] += 1
        internal[r].add(a.curve)
    n_verts = {r: 0 for r in groups}
    for v in V.vertices:
        if isinstance(v, PhantomVertex):
            dead = v.curve not in cut
        else:
            dead = v.a not in cut and v.b not in cut
        if dead:
            n_verts[root[fmap[V.rotation[v][0]]]] += 1
    boundary = {r: set() for r in groups}
    for a in V.arcs:
        if a.curve in cut:
            for end in (0, 1):
                boundary[root[fmap[(a, end)]]].add(a.curve)

    return [Region(faces=frozenset(fs), chi=len(fs) - n_arcs[r] + n_verts[r],
                   boundary_curves=frozenset(boundary[r]),
                   internal_curves=frozenset(internal[r]),
                   internal_arcs=n_arcs[r], internal_vertices=n_verts[r])
            for r, fs in sorted(groups.items())]


def spanning_tree(V):
    """Arcs of a spanning tree of the ribbon graph, grown from the first
    vertex."""
    root = V.vertices[0]
    seen = {root}
    tree = []
    frontier = [root]
    incident = {v: [] for v in V.vertices}
    for a in V.arcs:
        incident[dart_vertex((a, 0))].append(a)
        incident[dart_vertex((a, 1))].append(a)
    while frontier:
        v = frontier.pop()
        for a in incident[v]:
            for end in (0, 1):
                w = dart_vertex((a, end))
                if w not in seen:
                    seen.add(w)
                    tree.append(a)
                    frontier.append(w)
    if len(seen) != len(V.vertices):
        raise ValueError("surface is not connected")
    return tree


def rose_rotation(V, tree):
    """Contract every tree arc, splicing rotations; returns the cyclic dart
    list at the single remaining vertex."""
    if len(tree) != len(V.vertices) - 1 or len(set(tree)) != len(tree):
        raise ValueError("not a spanning tree")
    rot = {v: list(ds) for v, ds in V.rotation.items()}
    owner = {v: v for v in V.vertices}

    def find(v):
        while owner[v] != v:
            owner[v] = owner[owner[v]]
            v = owner[v]
        return v

    for a in tree:
        u = find(dart_vertex((a, 0)))
        w = find(dart_vertex((a, 1)))
        if u == w:
            raise ValueError("tree arc joins a vertex to itself")
        ru, rw = rot[u], rot[w]
        iu, iw = ru.index((a, 0)), rw.index((a, 1))
        rot[u] = ru[iu + 1:] + ru[:iu] + rw[iw + 1:] + rw[:iw]
        owner[w] = u
        del rot[w]
    (rose,) = rot.values()
    return rose


def chord_gram(V, tree=None):
    """Chords (non-tree arcs in surface order) and their pairing matrix."""
    if tree is None:
        tree = spanning_tree(V)
    rose = rose_rotation(V, list(tree))
    pos = {d: i for i, d in enumerate(rose)}
    L = len(rose)
    tree_set = set(tree)
    chords = [a for a in V.arcs if a not in tree_set]

    def sign(x, y):
        base = pos[(x, 0)]
        in_x = (pos[(x, 1)] - base) % L
        in_y = (pos[(y, 1)] - base) % L
        out_y = (pos[(y, 0)] - base) % L
        if in_y < in_x < out_y:
            return 1
        if out_y < in_x < in_y:
            return -1
        return 0

    return chords, [[sign(x, y) for y in chords] for x in chords]


def curve_pairing(V, tree=None):
    """Pairing of every two network curves, as {(c1, c2): int}, computed
    from the curves' dart cycles and the chord pairing."""
    chords, G = chord_gram(V, tree)
    index = {a: i for i, a in enumerate(chords)}
    vectors = {}
    for c, arcs in V.curve_arcs.items():
        v = [0] * len(chords)
        for a in arcs:
            if a in index:
                v[index[a]] += 1
        vectors[c] = v
    m = len(chords)
    return {(c1, c2): sum(u[i] * G[i][j] * w[j]
                          for i in range(m) if u[i] for j in range(m) if w[j])
            for c1, u in vectors.items() for c2, w in vectors.items()}
