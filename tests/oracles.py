"""Independent re-derivations used only by the tests.

Each function here recomputes something the package decides another way, so
that the tests can compare the two: integer matrix products, Bareiss
determinants, integer solving and GF(2) ranks; the lattice points by a
scan of the bounding box, the genus by Pick's theorem and the validity of a
segment curve; the symplectic reduction as a scan over every vector, and the dense views of the sparse intersection form (the crossing-sign matrix, the base change and
B.G.B^T multiplied out in full); the spanning tree of an arboreal network's
one-complex; isotopic pairs of segment curves; and a planar filling
criterion that needs no ribbon surface; twist relations decided by integer
matrix identities plus a replay on chosen test curves, and twist words
compared by replaying them on the 2g basis curves; the coherence sum of
boundary values against a subsurface's Euler number; mod-2 forms as tuples
of basis values with every value tabulated, their transvection orbits and the
transvection permutations one pairing at a time; mod-2 groups enumerated
element by element as bit-packed matrices, with form stabilizers found by
filtering all of Sp(2g, Z/2); the embedded homology lattice, a section of
the contraction and the cube of a matrix acting on the exterior cube; and
the exterior-cube span closure on dense echelon rows, re-mapping the whole
basis every round.
"""

import functools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from ribbon_oracle import Crossing, crossing_sort_key, curve_arcs, curve_crossings

from vanishingcycles.intlinalg import _add_multiple, ext_gcd, smith_normal_form
from vanishingcycles.intlinalg import _pairing as _sparse_pairing
from vanishingcycles.lattice import genus
from vanishingcycles.network import (
    ACurve,
    NetworkError,
    _find,
    _union,
    curve_sort_key,
    graph_stats,
    intersection_graph,
)
from vanishingcycles.spin import ModulusMismatch, SpinError, _pairing, twist
from vanishingcycles.surface import (
    SurfaceError,
    _crossing_signs,
    complement_regions,
    homology_basis,
)
from vanishingcycles.symp import (
    _anisotropic_vectors,
    _same_marked,
    _swap_adjacent_bits,
    apply_word,
    sp_mod2_order,
    word_matrix,
)
from vanishingcycles.wedge import (
    BudgetExceeded,
    Wedge3,
    WedgeError,
    _induced_columns,
    _triples,
    closure_transformations,
    wedge,
)


class NotArboreal(NetworkError):
    """The operation requires the intersection graph to be a tree."""


# --- integer and GF(2) matrices ----------------------------------------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def det_bareiss(mat) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_integer(mat, rhs):
    """One integer solution x of mat @ x == rhs, or None."""
    D, U, V = smith_normal_form(mat)
    m = len(mat)
    n = len(mat[0]) if m else 0
    b = mat_vec(U, list(rhs))
    z = [0] * n
    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        if d:
            if b[i] % d:
                return None
            z[i] = b[i] // d
        elif b[i]:
            return None
    return mat_vec(V, z)


def rank_mod2(rows, ncols) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        r = 0
        for j in range(ncols):
            if row[j] & 1:
                r |= 1 << j
        while r:
            low = (r & -r).bit_length() - 1
            if low in pivots:
                r ^= pivots[low]
            else:
                pivots[low] = r
                rank += 1
                break
    return rank


def standard_j(g: int) -> list[list[int]]:
    """Interleaved symplectic form: <x_i, y_i> = +1 on basis x1,y1,...,xg,yg."""
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    return J


def scan_reduction(rows):
    """``intlinalg.symplectic_reduction`` as a scan: each step pairs x with
    every vector left and sweeps all of them, with no index.  Same contract
    and the same pivot rule, so the two return equal pairs and radicals."""
    # M e_i is column i of M, which is minus row i
    live = [({i: 1}, {j: -x for j, x in row}) for i, row in enumerate(rows)]
    pairs = []
    radical = []
    while live:
        x, Mx = live.pop(0)
        p = [_sparse_pairing(x, Mw) for _, Mw in live]
        k = min((i for i, v in enumerate(p) if v), key=lambda i: abs(p[i]),
                default=None)
        if k is None:
            radical.append((x, Mx))
            continue
        y, My = live.pop(k)
        d = p[k]
        if d < 0:
            y, My, d = ({j: -c for j, c in y.items()},
                        {j: -c for j, c in My.items()}, -d)
        while True:
            best = None  # (remainder, index, pairs with y)
            for i, (w, Mw) in enumerate(live):
                a, b = _sparse_pairing(w, My), _sparse_pairing(w, Mx)
                if not (a or b):
                    continue
                qa, qb = a // d, b // d
                if qa:
                    _add_multiple(w, -qa, x)
                    _add_multiple(Mw, -qa, Mx)
                if qb:
                    _add_multiple(w, qb, y)
                    _add_multiple(Mw, qb, My)
                # now <w, y> = a - qa d and <w, x> = b - qb d
                for r, with_y in ((a - qa * d, True), (b - qb * d, False)):
                    if r and (best is None or r < best[0]):
                        best = (r, i, with_y)
            if best is None:
                pairs.append((d, x, Mx, y, My))
                break
            d, i, with_y = best
            w, Mw = live[i]
            if with_y:
                # <w, y> = d: w replaces x
                live[i] = (x, Mx)
                x, Mx = w, Mw
            else:
                # <x, -w> = <w, x> = d: -w replaces y
                live[i] = (y, My)
                y, My = ({j: -c for j, c in w.items()},
                         {j: -c for j, c in Mw.items()})
    return pairs, radical


def dense_rows(rows, ncols) -> list:
    """Sparse rows {j: entry} written out as lists of length ``ncols``."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


class DenseForm(NamedTuple):
    gram: list  # the crossing-sign matrix G of the curves
    base_change: list  # B: row i is basis class i over the curves
    matrix: list  # B.G.B^T, multiplied out in full


def dense_form(S) -> DenseForm:
    """The dense views of the sparse intersection form of the surface S: G,
    B and the full product B.G.B^T, which ``homology_basis`` checks row by
    row through its index and which must be the standard J."""
    form = homology_basis(S)
    n = len(form.chords)
    G = dense_rows(_crossing_signs(S), n)
    B = dense_rows(form.basis, n)
    return DenseForm(G, B, mat_mul(mat_mul(B, G), [list(c) for c in zip(*B)]))


# --- lattice polygons ----------------------------------------------------------

def pick_genus(P) -> int:
    """Interior lattice points by Pick's theorem, I = (2A - B + 2) / 2, from
    the shoelace area and the lattice lengths of the edges."""
    two_a = sum(p[0] * q[1] - q[0] * p[1] for p, q in P.edges())
    b = sum(gcd(abs(q[0] - p[0]), abs(q[1] - p[1])) for p, q in P.edges())
    assert (two_a - b) % 2 == 0
    return (two_a - b + 2) // 2


def box_scan_points(P, strict: bool) -> list:
    """The lattice points of P (``strict``: its interior points) in
    lexicographic order, by testing every point of the bounding box."""
    x0, y0, x1, y1 = P.bounding_box()
    return [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)
            if P.contains((x, y), strict=strict)]


def _same_edge(P, p, q) -> bool:
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


def valid_b_segment(P, seg) -> bool:
    """The definition of a valid segment, which ``build_network`` meets by
    construction: its endpoints are lattice points of P not lying on one
    edge of P."""
    p, q = seg.endpoints()
    if not (P.contains(p) and P.contains(q)):
        return False
    return not _same_edge(P, p, q)


# --- networks and surfaces ---------------------------------------------------

def spanning_tree_correspondence(net) -> dict:
    """For an arboreal network, the bijection curve -> leftover arc.

    Rooting the (tree) intersection graph, every curve surrenders exactly
    one arc of its own circle: the arc ending at the crossing with its
    parent (the root surrenders the arc ending at its smallest crossing).
    The surrendered arcs are the non-tree edges of the spanned one-complex;
    the kept arcs form a spanning tree, which is verified before returning.
    """
    G = intersection_graph(net)
    _, _, is_tree = graph_stats(G)
    if not is_tree:
        raise NotArboreal("intersection graph is not a tree")

    adj = {v: [] for v in G.vertices}
    for x, y in G.edges:
        adj[x].append(y)
        adj[y].append(x)

    root = G.vertices[0]
    parent_crossing = {}
    order = [root]
    seen = {root}
    while order:
        cur = order.pop()
        for nxt in sorted(adj[cur], key=curve_sort_key):
            if nxt in seen:
                continue
            seen.add(nxt)
            a, b = (cur, nxt) if isinstance(cur, ACurve) else (nxt, cur)
            parent_crossing[nxt] = Crossing(a, b)
            order.append(nxt)

    mapping = {}
    kept = []
    for curve in G.vertices:
        arcs = curve_arcs(net, curve)
        if arcs[0].start is None:
            # isolated curve: single-vertex complex, whole circle left over
            mapping[curve] = arcs[0]
            continue
        if curve in parent_crossing:
            target = parent_crossing[curve]
        else:
            target = min((a.end for a in arcs), key=crossing_sort_key)
        dropped = [a for a in arcs if a.end == target]
        if len(dropped) != 1:
            raise NetworkError(f"no unique arc of {curve} ends at {target}")
        mapping[curve] = dropped[0]
        kept.extend(a for a in arcs if a != dropped[0])

    _verify_spanning_tree(net, G, kept)
    return mapping


def _verify_spanning_tree(net, G, kept: list) -> None:
    crossings = set()
    for curve in G.vertices:
        crossings.update(curve_crossings(net, curve))
    if not crossings:
        if kept:
            raise NetworkError("kept arcs without crossings")
        return
    if len(kept) != len(crossings) - 1:
        raise NetworkError("kept arcs do not count as a spanning tree")
    parent = {c: c for c in crossings}
    for arc in kept:
        if not _union(parent, arc.start, arc.end):
            raise NetworkError("kept arcs contain a cycle")
    if len({_find(parent, c) for c in crossings}) != 1:
        raise NetworkError("kept arcs do not connect all crossings")


def duplicate_pairs(S) -> list:
    """Pairs of isotopic segment curves: an annular region of the surface
    cut along all segment curves whose two boundary circles are copies of
    two distinct curves exhibits the isotopy."""
    bs = set(S.network.b_curves())
    pairs = []
    for reg in complement_regions(S, bs):
        if reg.chi == 0 and len(reg.boundary_curves) == 2:
            pairs.append(frozenset(reg.boundary_curves))
    return sorted(set(pairs), key=lambda p: sorted(map(curve_sort_key, p)))


# --- planar filling criterion ------------------------------------------------

def _planar_angle_sort(p, targets: list) -> list:
    def cmp(q1, q2):
        v1 = (q1[0] - p[0], q1[1] - p[1])
        v2 = (q2[0] - p[0], q2[1] - p[1])
        h1 = 0 if (v1[1] > 0 or (v1[1] == 0 and v1[0] > 0)) else 1
        h2 = 0 if (v2[1] > 0 or (v2[1] == 0 and v2[0] > 0)) else 1
        if h1 != h2:
            return -1 if h1 < h2 else 1
        cr = v1[0] * v2[1] - v1[1] * v2[0]
        if cr == 0:
            return 0
        return -1 if cr > 0 else 1

    return sorted(targets, key=functools.cmp_to_key(cmp))


def _winding(walk: list, pt) -> int:
    w = 0
    px, py = pt
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if a[0] <= px < b[0] or b[0] <= px < a[0]:
            y = Fraction(a[1] * (b[0] - a[0]) + (b[1] - a[1]) * (px - a[0]),
                         b[0] - a[0])
            if y > py:
                w += 1 if a[0] <= px < b[0] else -1
    return w


def planar_filling_oracle(P, net) -> bool:
    """Planar re-derivation of the filling test, independent of the ribbon
    machinery: every region of the polygon minus the segments must be simply
    connected (no nested walls, no stray interior lattice point) and meet
    the polygon boundary in at most one arc."""
    if genus(P) != genus(net.polygon):
        raise SurfaceError("network does not belong to this polygon")
    Q = net.polygon
    segs = [b.segment for b in net.b_curves()]

    edges = set()
    for s in segs:
        edges.add(s.endpoints())
    boundary_edges = set()
    marked = set(Q.vertices)
    for s in segs:
        for p in s.endpoints():
            if Q.contains(p) and not Q.contains(p, strict=True):
                marked.add(p)
    perimeter = []
    verts = Q.vertices
    for i in range(len(verts)):
        v0, v1 = verts[i], verts[(i + 1) % len(verts)]
        d = (v1[0] - v0[0], v1[1] - v0[1])
        on_edge = [p for p in marked
                   if (p[0] - v0[0]) * d[1] == (p[1] - v0[1]) * d[0]
                   and 0 <= (p[0] - v0[0]) * d[0] + (p[1] - v0[1]) * d[1]
                   < d[0] * d[0] + d[1] * d[1]]
        on_edge.sort(key=lambda p: (p[0] - v0[0]) * d[0] + (p[1] - v0[1]) * d[1])
        perimeter.extend(on_edge)
    for a, b in zip(perimeter, perimeter[1:] + perimeter[:1]):
        edges.add(tuple(sorted((a, b))))
        boundary_edges.add(tuple(sorted((a, b))))

    nodes = set()
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
    neighbors = {p: [] for p in nodes}
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    rotation = {p: _planar_angle_sort(p, qs) for p, qs in neighbors.items()}

    # connected components of the arrangement
    comp = {}
    cid = 0
    for p in sorted(nodes):
        if p in comp:
            continue
        stack = [p]
        comp[p] = cid
        while stack:
            q = stack.pop()
            for t in neighbors[q]:
                if t not in comp:
                    comp[t] = cid
                    stack.append(t)
        cid += 1

    # face tracing: next dart after (a -> b) leaves b one step ccw after the
    # reversed dart
    darts = [(a, b) for a, b in edges] + [(b, a) for a, b in edges]
    seen = set()
    faces = []
    for d0 in sorted(darts):
        if d0 in seen:
            continue
        walk = []
        d = d0
        while True:
            walk.append(d)
            seen.add(d)
            a, b = d
            ring = rotation[b]
            i = ring.index(a)
            d = (b, ring[(i + 1) % len(ring)])
            if d == d0:
                break
        faces.append(walk)

    def doubled_area(walk):
        return sum(a[0] * b[1] - b[0] * a[1] for (a, b) in walk)

    by_comp = {}
    for i, walk in enumerate(faces):
        by_comp.setdefault(comp[walk[0][0]], []).append(i)
    outer = {}
    for c, fs in by_comp.items():
        outer[c] = min(fs, key=lambda i: doubled_area(faces[i]))

    # nest every component inside the smallest bounded face containing it
    children = {}
    for c, fs in by_comp.items():
        probe = min(p for p in nodes if comp[p] == c)
        best = None
        for c2, fs2 in by_comp.items():
            if c2 == c:
                continue
            for i in fs2:
                if i == outer[c2]:
                    continue
                pts = [d[0] for d in faces[i]]
                if _winding(pts, probe) != 0:
                    area = doubled_area(faces[i])
                    if best is None or area < best[0]:
                        best = (area, i)
        if best is not None:
            children[best[1]] = children.get(best[1], 0) + 1

    interior_pts = [p for p in Q.interior_points() if p not in nodes]
    for i, walk in enumerate(faces):
        c = comp[walk[0][0]]
        if i == outer[c]:
            continue
        if children.get(i, 0):
            return False
        pts = [d[0] for d in walk]
        if any(_winding(pts, p) != 0 for p in interior_pts):
            return False
        flags = [tuple(sorted(d)) in boundary_edges for d in walk]
        runs = sum(1 for j, f in enumerate(flags)
                   if f and not flags[j - 1])
        if all(flags):
            runs = 1
        if runs > 1:
            return False
    return True


# --- twist relations -----------------------------------------------------------

def relation_oracle(word, exponent, multitwist, tests) -> bool:
    """Whether word^exponent equals the multitwist: first as integer
    matrices, then by replaying both sides on each test curve, values
    compared mod r.  Only as strong as the test curves: on a set that does
    not span homology it can miss a value the relation moves."""
    if word_matrix(word) ** exponent != word_matrix(multitwist):
        return False
    for t in tests:
        lhs = apply_word(word, t, repeat=exponent)
        rhs = apply_word(multitwist, t)
        if lhs.h != rhs.h or (lhs.phi - rhs.phi) % t.r:
            return False
    return True


def chain_oracle(chain, boundary, tests) -> bool:
    """The chain relation of a valid chain, by :func:`relation_oracle`."""
    n = len(chain)
    exponent = n + 1 if n % 2 else 2 * n + 2
    return relation_oracle(chain, exponent, boundary, tests)


def dn_oracle(config, boundary, tests) -> bool:
    """The forked-chain relation of a valid configuration, by
    :func:`relation_oracle`."""
    n = len(config)
    if n % 2:
        multitwist = [boundary[0]] * (n - 2) + [boundary[1]]
        return relation_oracle(config, 2 * n - 2, multitwist, tests)
    multitwist = [boundary[0]] * ((n - 2) // 2) + list(boundary[1:])
    return relation_oracle(config, n - 1, multitwist, tests)


def _replay(word, h, phi, repeat=1):
    """The class and value of (h, phi) after the word to the ``repeat``,
    rightmost letter first, on plain integers: a letter c sends (h, phi)
    to (h + <h,c>c, phi + <h,c>phi(c)), and one that h does not meet is
    skipped."""
    letters = [(c.h, c.phi) for c in reversed(word)]
    for _ in range(repeat):
        for ch, cphi in letters:
            k = _pairing(h, ch)
            if k:
                h = tuple(x + k * y for x, y in zip(h, ch))
                phi += k * cphi
    return h, phi


def basis_replay_oracle(lhs, repeat, rhs) -> bool:
    """Whether the word ``lhs`` to the ``repeat`` and the word ``rhs`` move
    every marked curve alike, by replaying both on each of the 2g basis
    curves (e_i, 0): the twist rule is linear in (h, phi), so agreement
    there, class and value mod r, is agreement everywhere."""
    dim, r = len(lhs[0].h), lhs[0].r
    for i in range(dim):
        e = tuple(int(k == i) for k in range(dim))
        (hu, pu), (hv, pv) = _replay(lhs, e, 0, repeat), _replay(rhs, e, 0)
        if hu != hv or (pu - pv) % r:
            return False
    return True


def braid_oracle(a, b) -> bool:
    """The braid relation of a once-intersecting pair: the matrix identity
    T_a T_b T_a = T_b T_a T_b, and T_a T_b carrying a to b."""
    ma, mb = word_matrix([a]), word_matrix([b])
    if ma @ mb @ ma != mb @ ma @ mb:
        return False
    return _same_marked(twist(twist(a, b), a), b)


def coherence_check(boundary, chi_sub: int) -> bool:
    """Boundary values of a subsurface must sum to its Euler number mod r.

    Curves are expected oriented with the subsurface to the left.
    """
    curves = list(boundary)
    if not curves:
        raise SpinError("a subsurface has at least one boundary curve")
    r = curves[0].r
    if any(c.r != r for c in curves):
        raise ModulusMismatch("curves live under different structures")
    return (sum(c.phi for c in curves) - chi_sub) % r == 0


# --- mod-2 forms as value tuples -------------------------------------------------

def pair2(u: int, v: int) -> int:
    """<u, v> mod 2 for vectors of F_2^n as bitmasks."""
    return bin(u & _swap_adjacent_bits(v)).count("1") & 1


def value_table(values) -> list:
    """Every value of the mod-2 form with the given basis values, indexed by
    the bitmask of the vector, by q(x + e_i) = q(x) + q(e_i) + <x, e_i>."""
    n = len(values)
    tab = [0] * (1 << n)
    for v in range(1, 1 << n):
        low = v & (-v)
        i = low.bit_length() - 1
        rest = v ^ low
        tab[v] = tab[rest] ^ (values[i] & 1) ^ pair2(rest, low)
    return tab


def transvection_perm_oracle(v: int, n: int) -> tuple:
    """The permutation x -> x + <x,v>v of F_2^n, one pairing per vector."""
    return tuple(x ^ v if pair2(x, v) else x for x in range(1 << n))


def form_orbit_oracle(start: tuple) -> set:
    """The orbit of a mod-2 form, the tuple of its basis values, under the
    transvections: breadth-first search that tabulates every form's values
    and moves basis value i by <e_i, v> for each isotropic v."""
    n = len(start)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for form in frontier:
            tab = value_table(form)
            for v in range(1, 1 << n):
                if tab[v]:
                    continue    # an anisotropic v: its twist fixes the form
                out = tuple(form[i] ^ pair2(1 << i, v) for i in range(n))
                if out not in seen:
                    seen.add(out)
                    fresh.append(out)
        frontier = fresh
    return seen


# --- mod-2 groups by enumeration -------------------------------------------------
# A matrix over Z/2 is bit-packed into one int: row i at bits i*n..i*n+n-1.

def _transvection_bits(v: int, n: int) -> int:
    p = _swap_adjacent_bits(v) & ((1 << n) - 1)  # p bit i = <e_i, v>
    mat = 0
    for j in range(n):
        row = 1 << j
        if (v >> j) & 1:
            row ^= p
        mat |= row << (j * n)
    return mat


def _identity_bits(n: int) -> int:
    mat = 0
    for i in range(n):
        mat |= (1 << i) << (i * n)
    return mat


def _row_tables(mat: int, n: int) -> list:
    mask = (1 << n) - 1
    rows = [(mat >> (i * n)) & mask for i in range(n)]
    tab = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & (-m)
        tab[m] = tab[m ^ low] ^ rows[low.bit_length() - 1]
    return tab


def _closure_bits(generators, n: int) -> set:
    """Every element of the group the bit-packed matrices generate, found
    by breadth-first closure."""
    tabs = [_row_tables(g, n) for g in generators]
    mask = (1 << n) - 1
    ident = _identity_bits(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for mat in frontier:
            rows = [(mat >> (i * n)) & mask for i in range(n)]
            for tab in tabs:
                out = 0
                for i in range(n):
                    out |= tab[rows[i]] << (i * n)
                if out not in seen:
                    seen.add(out)
                    fresh.append(out)
        frontier = fresh
    return seen


def anisotropic_closure_bits(g: int, q) -> set:
    """Every element of the group the anisotropic transvections of a form
    generate, as bit-packed matrices."""
    n = 2 * g
    return _closure_bits(
        [_transvection_bits(v, n) for v in _anisotropic_vectors(g, q)], n)


def _columns_bits(mat: int, n: int) -> list:
    cols = [0] * n
    for i in range(n):
        row = (mat >> (i * n)) & ((1 << n) - 1)
        while row:
            low = row & (-row)
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def stabilizer_filter_oracle(g: int, q) -> tuple:
    """Order of the stabilizer of a mod-2 form in Sp(2g, Z/2), and whether
    the anisotropic transvections generate it, for g <= 2: the whole group
    is enumerated by closure of all transvections and the matrices that keep
    every basis value are kept."""
    n = 2 * g
    everything = _closure_bits(
        [_transvection_bits(v, n) for v in range(1, 1 << n)], n)
    assert len(everything) == sp_mod2_order(g)
    tab = value_table(q.values)
    stabilizer = {mat for mat in everything
                  if all(tab[c] == tab[1 << i]
                         for i, c in enumerate(_columns_bits(mat, n)))}
    generated = anisotropic_closure_bits(g, q)
    assert generated <= stabilizer
    return len(stabilizer), generated == stabilizer


# --- the exterior cube ------------------------------------------------------------

def _unit(n: int, t: int) -> tuple:
    return tuple(int(j == t) for j in range(n))


def embed_homology(v) -> Wedge3:
    """v wedged with the total class x1^y1 + ... + xg^yg."""
    n = len(v)
    out = Wedge3(n, (0,) * len(_triples(n)))
    for i in range(0, n, 2):
        out = out + wedge(v, _unit(n, i), _unit(n, i + 1))
    return out


def contraction_section(g: int) -> list:
    """Cube elements contracting to the basis vectors, one each: a vector
    wedged with a handle it avoids contracts back to the vector."""
    n = 2 * g
    out = []
    for t in range(n):
        i = 1 if t in (0, 1) else 0
        out.append(wedge(_unit(n, t), _unit(n, 2 * i), _unit(n, 2 * i + 1)))
    return out


def wedge3_apply(w: Wedge3, m) -> Wedge3:
    """Image of a cube element under the cube of a matrix acting on column
    vectors: each basis triple goes to the wedge of its image columns."""
    cols = list(zip(*m.rows))
    out = Wedge3(w.n, (0,) * len(w.coords))
    for (a, b, c), coeff in zip(_triples(w.n), w.coords):
        if coeff:
            out = out + coeff * wedge(cols[a], cols[b], cols[c])
    return out


# --- the exterior-cube span closure -----------------------------------------------

class DenseLatticeBasis:
    """Row lattice in echelon form on dense rows; each row is keyed by its
    pivot column and is zero before it."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = {}

    def insert(self, row) -> bool:
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

    def basis_rows(self) -> list:
        return [self.rows[c] for c in sorted(self.rows)]

    def is_full(self) -> bool:
        return (len(self.rows) == self.ncols
                and all(abs(row[c]) == 1 for c, row in self.rows.items()))


def closure_rounds_oracle(g: int, parity: int, max_rounds: int = 12) -> bool:
    """The span closure of the seed x1^y1^x4, with every round mapping
    every basis row of the lattice through every transformation on dense
    rows, and stopping only when a round leaves the lattice unchanged; the
    budget and its probe round mean what they mean for
    :func:`lemma_next_closure`.  The probe round runs in full, so that an
    overrun leaves the lattice of one round past the budget."""
    if max_rounds < 0:
        raise WedgeError("the budget is nonnegative")
    n = 2 * g
    mats = closure_transformations(g, parity)
    induced = [_induced_columns(m, n) for m in mats]
    dim = len(_triples(n))
    seed = wedge([int(t == 0) for t in range(n)],
                 [int(t == 1) for t in range(n)],
                 [int(t == 6) for t in range(n)])
    lattice = DenseLatticeBasis(dim)
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

    def run_round():
        grew = False
        for image in round_images(lattice.basis_rows()):
            if lattice.insert(image):
                grew = True
        return grew

    grew = True
    for _ in range(max_rounds):
        grew = run_round()
        if not grew:
            break
    if max_rounds and grew and run_round():
        raise BudgetExceeded(
            f"lattice still growing after {max_rounds} rounds")
    return lattice.is_full()
