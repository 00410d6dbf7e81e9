"""Shared fixtures and independent reference oracles.

The reference implementations here deliberately share no code with the
library: inside tests use rational ray casting over half-unit subcells, and
slices/pixels are recounted with flood fills whose blocking rule is derived
directly from the definition of the segmentations.
"""
from __future__ import annotations

import collections
from fractions import Fraction

import pytest

import slidecam as sc

RECT = [[(0, 0), (4, 0), (4, 4), (0, 4)]]
LSHAPE = [[(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]]
STAIRCASE8 = [[(0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (6, 4), (6, 6), (0, 6)]]
# square with a wide hole and a top notch: the bottom strip is one pixel
# spanning several grid cells, so pixels and grid cells genuinely differ
NOTCHED_HOLE = [
    [(0, 0), (10, 0), (10, 10), (6, 10), (6, 9), (4, 9), (4, 10), (0, 10)],
    [(1, 4), (1, 6), (9, 6), (9, 4)],
]


@pytest.fixture(scope="session")
def corpus():
    """Polygons exercised by most property tests (all well under 200 crosses)."""
    polys = {
        "rect": sc.validate_polygon(RECT),
        "lshape": sc.validate_polygon(LSHAPE),
        "staircase8": sc.validate_polygon(STAIRCASE8),
        "notched_hole": sc.validate_polygon(NOTCHED_HOLE),
    }
    for k in (1, 2, 3, 4):
        polys[f"comb{k}"] = sc.gen_comb(k)
    for k in (1, 2, 3):
        polys[f"spiral{k}"] = sc.gen_path_lb(k)
    for b, s in [(1, 0), (2, 1), (4, 2)]:
        polys[f"thin{b}_{s}"] = sc.gen_thin_tree(b, s)
    for seed in range(8):
        polys[f"rand{seed}"] = sc.gen_random_simple(4 + 2 * (seed % 5), seed)
    return polys


# ---------------------------------------------------------------------------
# Independent reference implementations
# ---------------------------------------------------------------------------

def ref_point_inside(poly: sc.OrthoPolygon, x: Fraction, y: Fraction) -> bool:
    """Even-odd ray casting at a rational point assumed off the boundary."""
    cnt = 0
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
            if x1 == x2 and x1 > x and min(y1, y2) < y < max(y1, y2):
                cnt += 1
    return cnt % 2 == 1


def ref_counts(poly: sc.OrthoPolygon):
    """(#vertical slices, #horizontal slices, #pixels) recounted from scratch.

    Works on half-unit subcells.  A subcell border on a vertical line is
    impassable for the vertical segmentation iff it lies on a polygon edge
    or its maximal interior interval on that line ends at a polygon vertex:
    any vertex terminating such an interval is a reflex vertex whose ray
    covers the interval entirely.
    """
    xl, yl, xh, yh = poly.bbox()
    nx, ny = 2 * (xh - xl), 2 * (yh - yl)
    inside = {}
    for i in range(nx):
        for j in range(ny):
            cx = xl + Fraction(2 * i + 1, 4)
            cy = yl + Fraction(2 * j + 1, 4)
            if ref_point_inside(poly, cx, cy):
                inside[(i, j)] = True
    cells = set(inside)

    verts = {v for ring in poly.rings() for v in ring}
    vert_edges, horiz_edges = [], []
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
            if x1 == x2:
                vert_edges.append((x1, min(y1, y2), max(y1, y2)))
            else:
                horiz_edges.append((y1, min(x1, x2), max(x1, x2)))

    def x_of_border(i):  # x coordinate of the border left of subcell column i
        return xl + Fraction(i, 2)

    def y_of_border(j):
        return yl + Fraction(j, 2)

    def v_border_on_edge(i, j) -> bool:
        x = x_of_border(i)
        if x.denominator != 1:
            return False
        y0, y1 = y_of_border(j), y_of_border(j + 1)
        return any(ex == x and elo <= y0 and y1 <= ehi for ex, elo, ehi in vert_edges)

    def h_border_on_edge(i, j) -> bool:
        y = y_of_border(j)
        if y.denominator != 1:
            return False
        x0, x1 = x_of_border(i), x_of_border(i + 1)
        return any(ey == y and elo <= x0 and x1 <= ehi for ey, elo, ehi in horiz_edges)

    def v_border_cut(i, j) -> bool:
        """Border between subcells (i-1, j) and (i, j): blocked by a cut ray?"""
        x = x_of_border(i)
        if x.denominator != 1:
            return False
        lo = j
        while (i - 1, lo - 1) in cells and (i, lo - 1) in cells \
                and not v_border_on_edge(i, lo - 1):
            lo -= 1
        hi = j
        while (i - 1, hi + 1) in cells and (i, hi + 1) in cells \
                and not v_border_on_edge(i, hi + 1):
            hi += 1
        ends = (y_of_border(lo), y_of_border(hi + 1))
        return any((int(x), int(e)) in verts for e in ends if e.denominator == 1)

    def h_border_cut(i, j) -> bool:
        y = y_of_border(j)
        if y.denominator != 1:
            return False
        lo = i
        while (lo - 1, j - 1) in cells and (lo - 1, j) in cells \
                and not h_border_on_edge(lo - 1, j):
            lo -= 1
        hi = i
        while (hi + 1, j - 1) in cells and (hi + 1, j) in cells \
                and not h_border_on_edge(hi + 1, j):
            hi += 1
        ends = (x_of_border(lo), x_of_border(hi + 1))
        return any((int(e), int(y)) in verts for e in ends if e.denominator == 1)

    def flood(block_v_cuts: bool):
        comp = {}
        cid = 0
        for cell in sorted(cells):
            if cell in comp:
                continue
            comp[cell] = cid
            stack = [cell]
            while stack:
                i, j = stack.pop()
                steps = []
                if not v_border_on_edge(i, j) and not (block_v_cuts and v_border_cut(i, j)):
                    steps.append((i - 1, j))
                if not v_border_on_edge(i + 1, j) and not (block_v_cuts and v_border_cut(i + 1, j)):
                    steps.append((i + 1, j))
                if not h_border_on_edge(i, j) and not ((not block_v_cuts) and h_border_cut(i, j)):
                    steps.append((i, j - 1))
                if not h_border_on_edge(i, j + 1) and not ((not block_v_cuts) and h_border_cut(i, j + 1)):
                    steps.append((i, j + 1))
                for m in steps:
                    if m in cells and m not in comp:
                        comp[m] = cid
                        stack.append(m)
            cid += 1
        return comp

    vcomp = flood(block_v_cuts=True)
    hcomp = flood(block_v_cuts=False)
    pixels = {(vcomp[c], hcomp[c]) for c in cells}
    return (len(set(vcomp.values())), len(set(hcomp.values())), len(pixels))


def reflex_vertices(poly: sc.OrthoPolygon):
    """Reflex vertices ring by ring, in ring order, holes included: those
    where the ring turns clockwise."""
    out = []
    for ring in poly.rings():
        n = len(ring)
        for i in range(n):
            a, b, c = ring[(i - 1) % n], ring[i], ring[(i + 1) % n]
            if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) < 0:
                out.append(b)
    return out


def ref_path_order(adj):
    """Vertex order of a path graph given as {vertex: set of neighbours},
    from its smaller end, or None if the graph is not a path."""
    if len(adj) == 1:
        return list(adj)
    ends = [v for v, ns in adj.items() if len(ns) == 1]
    if len(ends) != 2 or any(len(ns) > 2 for ns in adj.values()):
        return None
    order = [min(ends)]
    prev = None
    while True:
        nxt = [u for u in adj[order[-1]] if u != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    return order if len(order) == len(adj) else None


def bfs_within_two(adj, sources, targets) -> dict:
    """For each target node, is it within distance 2 of any source?"""
    dist = {s: 0 for s in sources}
    q = collections.deque(sources)
    while q:
        u = q.popleft()
        if dist[u] == 2:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return {t: t in dist for t in targets}


def oriented_instance(pix, orientations=("H", "V")):
    ids = [g.id for g in sc.guard_segments(pix, orientations)]
    return sc.build_instance(pix, gammaprime=ids)


def cross_sets(inst):
    """Per requested cross, the universe guards whose hit set holds it."""
    return {c: frozenset(g for g in inst.universe if inst.pix.guards[g].hit_set >> c & 1)
            for c in inst.xprime}


def support_of(H):
    """The support graph S of the auxiliary graph H, in H's nodes: guards and
    slice-segments, each requested cross contracted into an edge between its
    supports (a segment's cross neighbour becomes the cross's other
    support).  The reference for ``build_support_graph``, which builds S
    from the pixelation's tables."""
    return {v: frozenset(w for u in ns for w in (H.adj[u] - {v} if u[0] == "c" else (u,)))
            for v, ns in H.adj.items() if v[0] != "c"}


def in_nodes(S):
    """The int support graph ``S`` with each id replaced by its node."""
    return {S.node(v): frozenset(map(S.node, ns)) for v, ns in enumerate(S.adj)}


def with_leaf_bags(td, H):
    """``td``, in H's nodes, with each cross replaced by its vertical
    support and a leaf bag {c, sv, sh} per requested cross hung below the
    first bag holding both supports, found by scanning every bag: the
    decomposition of H that ``dp_solve`` carries."""
    vsup = {("c", c): ("s", H.pix.crosses[c].v_support) for c in H.xprime}
    bags = [frozenset(vsup.get(v, v) for v in bag) for bag in td.bags]
    edges = list(td.edges)
    for c in H.xprime:
        supports = H.adj[("c", c)]
        edges.append((next(i for i, bag in enumerate(bags) if supports <= bag), len(bags)))
        bags.append(supports | {("c", c)})
    return sc.TreeDecomposition(bags=tuple(bags), edges=tuple(edges))


def extend_to_maximal(pix, orientation, anchor, lo, hi):
    """The maximal camera through a segment on a grid line, with its hit
    mask: the record of the library's ``_maximal_run``, built afresh."""
    key = pix._maximal_run(orientation, anchor, lo, hi)
    return sc.GuardSegment(*key, id=-1, hit_set=pix._segment_hit_mask(*key))
