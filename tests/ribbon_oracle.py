"""Oracles for the ribbon surface, computed on its object-valued fields.

Rotation system, faces and complementary regions: built over dicts and
sets keyed by crossings and by darts ``(arc, end)``, independently of the
integer dart layout that ``surface.inflate`` computes them on.

Ribbon-graph pairing of closed dart paths: an independent oracle for the
crossing-sign matrix that ``surface.homology_basis`` reads off the network.
Contracting a spanning tree of the ribbon graph leaves a single vertex (a
rose) whose cyclic dart order is spliced from the rotation system.  Every
non-tree arc ("chord") closes a fundamental loop, and two chord loops pair by
how their darts interleave around the rose.  A closed dart path pairs through
its signed count of chord traversals.
"""

from vanishingcycles.network import (
    _find,
    _union,
    crossing_sort_key,
    curve_arcs,
    curve_crossings,
    curve_sort_key,
)
from vanishingcycles.surface import PhantomVertex, Region


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


def rotation_system(net):
    """The cyclic dart order at every vertex, ``{vertex: darts}``, built from
    each curve's arcs and crossings."""
    arcs_of = {c: curve_arcs(net, c) for c in net.curve_list()}
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


def face_of_dart(S):
    return {d: i for i, walk in enumerate(S.faces) for d in walk}


def complement_regions(S, cut):
    """Regions of a filling surface cut along ``cut``: faces merged across
    every arc of a curve outside ``cut``, read off the arcs, the rotation
    and the faces of ``S``."""
    cut = set(cut)
    fmap = face_of_dart(S)
    parent = list(range(len(S.faces)))
    deleted_arcs = [a for a in S.arcs if a.curve not in cut]
    for a in deleted_arcs:
        _union(parent, fmap[(a, 0)], fmap[(a, 1)])

    root = [_find(parent, i) for i in range(len(S.faces))]
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
    for v in S.vertices:
        if isinstance(v, PhantomVertex):
            dead = v.curve not in cut
        else:
            dead = v.a not in cut and v.b not in cut
        if dead:
            n_verts[root[fmap[S.rotation[v][0]]]] += 1
    boundary = {r: set() for r in groups}
    for a in S.arcs:
        if a.curve in cut:
            for end in (0, 1):
                boundary[root[fmap[(a, end)]]].add(a.curve)

    return [Region(faces=frozenset(fs), chi=len(fs) - n_arcs[r] + n_verts[r],
                   boundary_curves=frozenset(boundary[r]),
                   internal_curves=frozenset(internal[r]),
                   internal_arcs=n_arcs[r], internal_vertices=n_verts[r])
            for r, fs in sorted(groups.items())]


def spanning_tree(S):
    """Arcs of a spanning tree of the ribbon graph, grown from the first
    vertex."""
    root = S.vertices[0]
    seen = {root}
    tree = []
    frontier = [root]
    incident = {v: [] for v in S.vertices}
    for a in S.arcs:
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
    if len(seen) != len(S.vertices):
        raise ValueError("surface is not connected")
    return tree


def rose_rotation(S, tree):
    """Contract every tree arc, splicing rotations; returns the cyclic dart
    list at the single remaining vertex."""
    if len(tree) != len(S.vertices) - 1 or len(set(tree)) != len(tree):
        raise ValueError("not a spanning tree")
    rot = {v: list(ds) for v, ds in S.rotation.items()}
    owner = {v: v for v in S.vertices}

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


def chord_gram(S, tree=None):
    """Chords (non-tree arcs in surface order) and their pairing matrix."""
    if tree is None:
        tree = spanning_tree(S)
    rose = rose_rotation(S, list(tree))
    pos = {d: i for i, d in enumerate(rose)}
    L = len(rose)
    tree_set = set(tree)
    chords = [a for a in S.arcs if a not in tree_set]

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


def curve_pairing(S, tree=None):
    """Pairing of every two network curves, as {(c1, c2): int}, computed
    from the curves' dart cycles and the chord pairing."""
    chords, G = chord_gram(S, tree)
    index = {a: i for i, a in enumerate(chords)}
    vectors = {}
    for c, arcs in S.curve_arcs.items():
        v = [0] * len(chords)
        for a in arcs:
            if a in index:
                v[index[a]] += 1
        vectors[c] = v
    m = len(chords)
    return {(c1, c2): sum(u[i] * G[i][j] * w[j]
                          for i in range(m) if u[i] for j in range(m) if w[j])
            for c1, u in vectors.items() for c2, w in vectors.items()}
