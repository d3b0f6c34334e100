"""Ribbon-graph pairing of closed dart paths: an independent oracle for the
crossing-sign matrix that ``surface.homology_basis`` reads off the network.

Contracting a spanning tree of the ribbon graph leaves a single vertex (a
rose) whose cyclic dart order is spliced from the rotation system.  Every
non-tree arc ("chord") closes a fundamental loop, and two chord loops pair by
how their darts interleave around the rose.  A closed dart path pairs through
its signed count of chord traversals.
"""

from vanishingcycles.surface import dart_vertex


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
