"""Instance generators and the constructive guarding procedures.

Generators return validated polygons; the comb and the spiral family come
with known optima (one horizontal camera per comb tooth; one camera per
spiral wrap level), which the test suite re-certifies against the
brute-force solver.  The spiral's ring comes straight from its legs, and
the random generator checks each notch against the ring's edges locally,
so neither validates more than its finished polygon.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import (
    GenerationFailed,
    NotPathSegmentation,
    PolygonError,
    PreconditionViolated,
)
from .exact import Solution, brute_force_min_cover, make_solution
from .geometry import (
    HORIZONTAL,
    VERTICAL,
    GuardSegment,
    OrthoPolygon,
    Pixelation,
    Vertex,
    _rotate_to_min,
    _side_contacts,
    _straight,
    close_cut_arc,
    pixelate,
    validate_polygon,
)
from .hitset import build_instance

Cell = Tuple[int, int]


# ---------------------------------------------------------------------------
# Cell sets -> polygons
# ---------------------------------------------------------------------------

def polygon_from_cells(cells: Set[Cell]) -> OrthoPolygon:
    """Trace the boundary of a union of unit cells into a polygon.

    The cell set must be connected, simply connected and free of pinch
    points.
    """
    return validate_polygon([_boundary_corners(cells)])


def _boundary_corners(cells: Set[Cell]) -> List[Cell]:
    """The corners of a cell set's outer boundary, walked with the interior on the left."""
    if not cells:
        raise GenerationFailed("empty cell set")
    # directed unit boundary edges, interior on the left
    nxt: Dict[Cell, Cell] = {}
    for (x, y) in cells:
        if (x, y - 1) not in cells:
            _add_step(nxt, (x, y), (x + 1, y))
        if (x, y + 1) not in cells:
            _add_step(nxt, (x + 1, y + 1), (x, y + 1))
        if (x - 1, y) not in cells:
            _add_step(nxt, (x, y + 1), (x, y))
        if (x + 1, y) not in cells:
            _add_step(nxt, (x + 1, y), (x + 1, y + 1))
    start = min(nxt)  # the lowest-leftmost boundary point is a corner
    ring = [start]
    prev, cur = start, nxt[start]
    steps = 1
    while cur != start:
        if cur not in nxt:
            raise GenerationFailed("boundary walk left the edge set")
        after = nxt[cur]
        if (after[0] - cur[0], after[1] - cur[1]) != (cur[0] - prev[0], cur[1] - prev[1]):
            ring.append(cur)
        prev, cur = cur, after
        steps += 1
    if steps != len(nxt):
        raise GenerationFailed("cell set is not simply connected")
    return ring


def _add_step(nxt: Dict[Cell, Cell], a: Cell, b: Cell):
    if a in nxt:
        raise GenerationFailed("pinch point in cell set")
    nxt[a] = b


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_comb(k: int) -> OrthoPolygon:
    """Vertical spine with k horizontal teeth; 4k vertices.

    Every tooth needs its own horizontal camera, while a single vertical
    camera along the spine sees everything.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cells = {(0, y) for y in range(2 * k - 1)}
    cells |= {(1, 2 * i) for i in range(k)}
    poly = polygon_from_cells(cells)
    if poly.n != 4 * k:
        raise AssertionError(f"comb({k}) has {poly.n} vertices, expected {4 * k}")
    return poly


def _spiral_ring(k: int) -> List[Cell]:
    """The corners of the unit-width spiral of 3k - 2 legs, counter-clockwise.

    The spiral is a path of unit cells: from cell (0, 0), leg j runs
    3k - 1 - j cells on (3k - 2 on leg 0) in direction right, up, left,
    down, ..., turning left after every leg but the last.  Its boundary
    has two corners at each end, the back ones of the first cell and the
    front ones of the last, and two at each turn: the outer corner of the
    turn cell on the right of the path and the inner one on its left.  The
    ring walks the right side out and the left side back, so the interior
    is on its left.  The corner of cell (x, y) in diagonal direction
    (s, t), s and t each +1 or -1, is (x + (1 + s) / 2, y + (1 + t) / 2).
    At a turn from direction d to direction e the outer corner lies in
    direction d - e and the inner one in e - d; at the end, moving in d,
    the front corners lie in d plus the right and the left normal of d.
    """
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    legs = 3 * k - 2
    x = y = 0
    right, left = [(0, 0)], [(0, 1)]  # the back corners of cell (0, 0)
    for leg in range(legs):
        dx, dy = dirs[leg % 4]
        steps = 3 * k - 1 - leg - (leg == 0)
        x, y = x + steps * dx, y + steps * dy
        if leg < legs - 1:
            ex, ey = dirs[(leg + 1) % 4]
            right.append((x + (1 + dx - ex) // 2, y + (1 + dy - ey) // 2))
            left.append((x + (1 - dx + ex) // 2, y + (1 - dy + ey) // 2))
    right.append((x + (1 + dx + dy) // 2, y + (1 + dy - dx) // 2))  # the front corners
    left.append((x + (1 + dx - dy) // 2, y + (1 + dy + dx) // 2))
    return right + left[::-1]


def gen_path_lb(k: int) -> OrthoPolygon:
    """Unit-width rectangular spiral with 3(k-1) turns; 6k-2 vertices.

    Its vertical segmentation is a path of slices, and the innermost pocket
    of each wrap level carries a cross that no camera shares with another
    level, so k cameras are required (and suffice).  The ring comes straight
    from the spiral's legs (:func:`_spiral_ring`), in time linear in k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    poly = validate_polygon([_spiral_ring(k)])
    if poly.n != 6 * k - 2:
        raise AssertionError(f"spiral({k}) has {poly.n} vertices, expected {6 * k - 2}")
    return poly


def gen_random_simple(n: int, seed: int = 0) -> OrthoPolygon:
    """Random simple hole-free polygon with exactly n vertices.

    Starts from a rectangle and repeatedly carves rectangular notches out of
    convex corners (+2 vertices) or edge middles (+4 vertices) until the
    vertex budget is used up; a notch that would break the ring is redrawn,
    up to 40 times, and a shape that runs out of redraws is started over.

    Each notch is checked on its own, in one scan of the ring's edges: the
    closed box it removes may meet no edge but the one it cuts into (edge
    notch) or the two whose corner it cuts off (corner notch).  That accepts
    exactly the notches whose ring :func:`validate_polygon` accepts:

    - The notch never reaches the other ends of the edges it cuts, so the
      edges next to those miss the box, and the cut edges meet it only
      along the side the notch opens onto.  Its new corners are all turns,
      so the new ring has two or four more vertices than the old one.
    - If no other edge meets the box, the box lies in the polygon, touching
      the boundary only on that open side.  The new ring bounds the polygon
      minus the box: it is simple, counter-clockwise, and has no straight
      vertex, so validation keeps it as it is, rotated to its smallest
      vertex.
    - If another edge meets the box, one such edge meets the box's other
      sides, which are edges of the new ring: an edge that meets only the
      box's inside lies in it, and following the ring from there to the
      cut edges, which the edges next to them do not meet, leaves the box
      across one of those sides.  The contact is not between neighbours,
      so validation rejects the ring.

    Every draw of ``rng`` is therefore made as with full validation of each
    candidate, and each ``(n, seed)`` gives the same polygon, or the same
    :class:`GenerationFailed`.  The finished ring is validated once.
    """
    if n < 4 or n % 2:
        raise ValueError("n must be an even number >= 4")
    rng = random.Random(f"simple:{n}:{seed}")
    for _ in range(300):
        poly = _try_random_simple(n, rng)
        if poly is not None:
            return poly
    raise GenerationFailed(f"could not generate a simple polygon with n={n}")


def _try_random_simple(n: int, rng: random.Random) -> Optional[OrthoPolygon]:
    size = max(6, n)
    w, h = rng.randint(5, size), rng.randint(5, size)
    ring: List[Tuple[int, int]] = [(0, 0), (w, 0), (w, h), (0, h)]
    while len(ring) < n:
        remaining = n - len(ring)
        notch = _edge_notch if remaining >= 4 and rng.random() < 0.35 else _corner_notch
        for _ in range(40):
            cand = notch(ring, rng)
            if cand is not None:
                ring = _rotate_to_min(cand)
                break
        else:
            return None
    try:
        return validate_polygon([ring])
    except PolygonError:
        return None


def _ring_meets(ring, start: int, edges: int, a: Cell, b: Cell) -> bool:
    """Do the ``edges`` edges of ``ring`` that follow vertex ``start`` meet
    the closed box with opposite corners ``a`` and ``b``?  An axis-parallel
    edge meets it iff, on both axes, neither side of the box has both of the
    edge's ends beyond it.  ``start + edges`` is below ``2 * len(ring)``, so
    ``ring[k - len(ring)]`` is vertex k around the ring."""
    x0, x1 = (a[0], b[0]) if a[0] < b[0] else (b[0], a[0])
    y0, y1 = (a[1], b[1]) if a[1] < b[1] else (b[1], a[1])
    n = len(ring)
    px, py = ring[start - n]
    for k in range(start + 1 - n, start + edges + 1 - n):
        x, y = ring[k]
        if ((px <= x1 or x <= x1) and (px >= x0 or x >= x0)
                and (py <= y1 or y <= y1) and (py >= y0 or y >= y0)):
            return True
        px, py = x, y
    return False


def _corner_notch(ring, rng) -> Optional[List[Tuple[int, int]]]:
    """The ring with box [v, M] cut off convex corner v, or None if it does not fit."""
    n = len(ring)
    i = rng.randrange(n)
    (px, py), (vx, vy), (qx, qy) = ring[i - 1], ring[i], ring[i + 1 - n]
    # only convex corners (outer ring is CCW): the edges are axis-parallel,
    # so this cross product has the sign of the turn at v
    if (vx - px) * (qy - vy) <= (vy - py) * (qx - vx):
        return None
    len1 = abs(vx - px) + abs(vy - py)
    len2 = abs(qx - vx) + abs(qy - vy)
    if len1 < 2 or len2 < 2:
        return None
    a = rng.randint(1, min(3, len1 - 1))
    b = rng.randint(1, min(3, len2 - 1))
    # A is a back from v towards p and C is b on towards q; M = A + (C - v)
    ax, ay = vx - a * (vx - px) // len1, vy - a * (vy - py) // len1
    cx, cy = vx + b * (qx - vx) // len2, vy + b * (qy - vy) // len2
    M = (ax + cx - vx, ay + cy - vy)
    if _ring_meets(ring, i + 1, n - 2, (vx, vy), M):  # every edge but p-v and v-q
        return None
    return ring[:i] + [(ax, ay), M, (cx, cy)] + ring[i + 1:]


def _edge_notch(ring, rng) -> Optional[List[Tuple[int, int]]]:
    """The ring with box [e1, e3] cut into edge u-v, or None if it does not fit."""
    n = len(ring)
    i = rng.randrange(n)
    (ux, uy), (vx, vy) = ring[i], ring[i + 1 - n]
    length = abs(vx - ux) + abs(vy - uy)
    if length < 3:
        return None
    off = rng.randint(1, length - 2)
    width = rng.randint(1, min(3, length - off - 1))
    depth = rng.randint(1, 3)
    dx, dy = (vx - ux) // length, (vy - uy) // length  # u-v's unit step
    x1, y1 = ux + off * dx, uy + off * dy
    x2, y2 = x1 - depth * dy, y1 + depth * dx  # inward: the interior is left of a CCW ring
    e1, e2 = (x1, y1), (x2, y2)
    e3, e4 = (x2 + width * dx, y2 + width * dy), (x1 + width * dx, y1 + width * dy)
    if _ring_meets(ring, i + 1, n - 1, e1, e3):  # every edge but u-v
        return None
    return ring[:i + 1] + [e1, e2, e3, e4] + ring[i + 1:]


def gen_thin_tree(branches: int, seed: int = 0) -> OrthoPolygon:
    """Thin hole-free polygon whose pixelation dual is a tree.

    Built as a tree polyomino (no 2x2 block): a horizontal backbone with
    randomly sized teeth, spaced so that cells never form a square; thinness
    follows because every interior lattice point would need all four
    surrounding cells.
    """
    if branches < 1:
        raise ValueError("branches must be >= 1")
    rng = random.Random(f"thin:{branches}:{seed}")
    if branches == 1:
        length = rng.randint(3, 7)
        height = rng.randint(1, 4)
        cells = {(x, 0) for x in range(length)}
        cells |= {(0, y) for y in range(1, height + 1)}
    else:
        positions = [2 * i for i in range(branches)]
        backbone = 2 * branches - 1 + rng.randint(0, 3)
        cells = {(x, 0) for x in range(backbone)}
        for tx in positions:
            for y in range(1, rng.randint(1, 3) + 1):
                cells.add((tx, y))
    poly = polygon_from_cells(cells)
    pix = pixelate(poly)
    from .treewidth import dual_graph, is_tree
    if not is_tree(dual_graph(pix)):
        raise AssertionError("thin-tree generator produced a non-tree dual")
    if not pix.is_thin():
        raise AssertionError("thin-tree generator produced a non-thin polygon")
    return poly


# ---------------------------------------------------------------------------
# Single-camera guarding of small polygons
# ---------------------------------------------------------------------------

# Rank ring of a small polygon -> its guard in rank coordinates.  Every
# hole-free polygon with at most 8 vertices has one of 43 rank types, so
# this never holds more than 43 entries, whatever the input.
_SMALL_GUARDS: Dict[Tuple[Vertex, ...], GuardSegment] = {}


def guard_small(poly: OrthoPolygon) -> GuardSegment:
    """One camera guarding a hole-free polygon with at most 8 vertices.

    The answer is the first canonical guard, in key order, whose hit set is
    every cross.  A guard's hit set is the set of crosses with a support
    midline it meets, which is what :func:`verify_cover` tests, so no
    further check is needed.  The paper shows that such a guard always
    exists; the AssertionError checks it.  The guard is looked up by rank
    type (see :func:`_small_guard`); its ``id`` and ``hit_set`` are those of
    the rank polygon's camera.
    """
    if poly.holes:
        raise PreconditionViolated("guard_small needs a hole-free polygon")
    if poly.n > 8:
        raise PreconditionViolated(f"guard_small needs n <= 8, got {poly.n}")
    run, g = _small_guard(poly.outer)
    return GuardSegment(*run, id=g.id, hit_set=g.hit_set)


def _small_guard(ring: Sequence[Vertex]) -> Tuple[Tuple[str, int, int, int], GuardSegment]:
    """The run (orientation, anchor, lo, hi) of :func:`guard_small`'s camera
    for a valid hole-free ring of at most 8 vertices, and the guard of the
    ring's rank type.  The memo is keyed by the rank ring as given; rings
    rotated to their smallest vertex, as validated ones are, keep it to the
    43 types.

    The answer depends only on the order of the coordinates, so it is
    looked up by rank type.  Each coordinate is replaced by its rank among
    the polygon's distinct values; with at most 8 vertices there are at
    most 4 per axis, so the rank polygon is a union of cells of a 3x3 grid,
    one of 43 types.  A type's guard is found once, on the pixelation of
    its rank polygon, and mapped back through the sorted coordinates.
    Slices, pixels, cross ids, the key order and the dedup by hit set are
    combinatorial in the grid, so a strictly increasing map keeps them.
    The one metric test is in :meth:`Pixelation.sigmas_hit`: a guard on
    line ``a`` from ``lo`` to ``hi`` meets a perpendicular midline whose
    span holds ``a`` iff ``2 lo <= c1 + c2 <= 2 hi``, where [c1, c2] is the
    extent of the midline's slice along the guard.  The units of line
    ``a`` beside that slice are all pixel edges or none is: where the line
    crosses the slice, the cells on its two sides lie in the slice and in
    the same two perpendicular runs all along it; where the line ends the
    slice, every cell beyond is outside.  So a raw guard run holds
    [c1, c2] or meets it at most at an end, and the test is
    ``lo <= c1 and c2 <= hi``, which the order of the cuts decides.  A
    midline on the guard's own line lies strictly inside its slice, where
    no unit is a pixel edge, so that test never fires.  The rank polygon
    is the input under a strictly increasing map, valid and normalised as
    the input is, and it is built directly: ``pixelate`` would evict the
    caller's polygon from its one-slot cache.
    """
    px, py = zip(*ring)
    xs, ys = sorted(set(px)), sorted(set(py))
    xr, yr = dict(zip(xs, range(len(xs)))), dict(zip(ys, range(len(ys))))
    ranks = tuple(zip(map(xr.__getitem__, px), map(yr.__getitem__, py)))
    g = _SMALL_GUARDS.get(ranks)
    if g is None:
        pix = Pixelation(OrthoPolygon(outer=ranks))
        every = (1 << len(pix.h_supports)) - 1
        g = next((pix.guard(gid) for gid, mask in enumerate(pix.guard_masks) if mask == every), None)
        if g is None:
            raise AssertionError("no single camera covers this small polygon")
        _SMALL_GUARDS[ranks] = g
    along, across = (xs, ys) if g.orientation == VERTICAL else (ys, xs)
    return (g.orientation, along[g.anchor], across[g.lo], across[g.hi]), g


# ---------------------------------------------------------------------------
# Path-segmentation guarding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeelStep:
    slices_removed: int
    subpolygon: OrthoPolygon
    camera: GuardSegment
    remainder: Optional[OrthoPolygon]  # None unless the caller asked for remainders


def _slice_path(sides: Dict[int, Tuple[list, list]], count: int) -> Optional[List[int]]:
    """The ``count`` slices of one segmentation in path order, or None if
    its dual is not a path.

    One walk over the merge of slice sides (``sides`` as
    :meth:`Pixelation._slice_sides` gives them, merged by
    :func:`_side_contacts` as for :meth:`Pixelation.slice_dual`) collects
    each slice's neighbours and stops at the first slice with a third.  A
    path has two ends, the slices with one neighbour, and is read from the
    end with the smaller id; any other set of ends, or a cycle beside the
    path, is no path.
    """
    nbrs: List[List[int]] = [[] for _ in range(count)]
    for a, b in _side_contacts(sides):
        na, nb = nbrs[a], nbrs[b]
        if len(na) == 2 or len(nb) == 2:
            return None
        na.append(b)
        nb.append(a)
    if count == 1:
        return [0]
    ends = [sid for sid, ns in enumerate(nbrs) if len(ns) == 1]
    if len(ends) != 2:
        return None
    order = [ends[0]]
    prev, cur = ends[0], nbrs[ends[0]][0]
    while cur != ends[1]:  # every slice between the ends has two neighbours
        order.append(cur)
        a, b = nbrs[cur]
        prev, cur = cur, b if a == prev else a
    order.append(cur)
    return order if len(order) == count else None


def _shared_side(c1: Tuple[int, int, int, int], c2: Tuple[int, int, int, int]
                 ) -> Tuple[int, int, int]:
    """The side (line, lo, hi) that two adjacent slices of one
    segmentation, given as (a0, lo, a1, hi), share."""
    return max(c1[0], c2[0]), max(c1[1], c2[1]), min(c1[3], c2[3])


def _seam(c1: Tuple[int, int, int, int], c2: Tuple[int, int, int, int], vertical: bool
          ) -> Tuple[Vertex, Vertex]:
    """Ends (p, q) of the side two adjacent slices share, ``c2`` left of p -> q."""
    a, lo, hi = _shared_side(c1, c2)
    if vertical:
        return ((a, hi), (a, lo)) if c2[0] == a else ((a, lo), (a, hi))
    return ((lo, a), (hi, a)) if c2[0] == a else ((hi, a), (lo, a))


def _reflex_at(ends: List[int], sides: Tuple[list, list], c: int) -> bool:
    """Is the point at ``c`` on a grid line a reflex vertex of the polygon?

    ``ends`` are the ends of the polygon's edges along the line, sorted
    (``OrthoPolygon._spans``), and ``sides`` the line's slice sides of the
    same orientation, those ending on it and those starting on it
    (:meth:`Pixelation._slice_sides`).  A vertex has one edge along each of
    its lines, so the point is a vertex iff it is an edge end.  At a convex
    vertex the polygon nearby is the quadrant between its two edges, so
    the one slice side on the line there runs along its edge and ends at
    the vertex.  At a reflex vertex that quadrant is the outside, so on the
    far side of the line from its other edge the polygon holds both
    quadrants.  The slice there has its side on the line, along the edge
    and then along the cut from the vertex, and that side holds ``c``
    strictly inside its span.  Spans on one side of a line are disjoint,
    so only the last one with lo below ``c`` can.
    """
    i = bisect_left(ends, c)
    if i == len(ends) or ends[i] != c:
        return False
    for part in sides:
        k = bisect_left(part, (c,))
        if k and part[k - 1][1] > c:
            return True
    return False


def _inside_edge(t: Vertex, a: Vertex, b: Vertex) -> bool:
    """Does ``t`` lie on the axis-parallel edge a-b, strictly between its ends?"""
    if a[0] == b[0] == t[0]:
        return min(a[1], b[1]) < t[1] < max(a[1], b[1])
    return a[1] == b[1] == t[1] and min(a[0], b[0]) < t[0] < max(a[0], b[0])


def _edge_at(ring: List[Vertex], t: Vertex, axis: int) -> int:
    """Index of ``t`` in ``ring``, or of the edge ring[k] -> ring[k + 1] that
    holds it strictly inside.

    A chord end that is not a vertex lies inside an edge that crosses the
    chord, so both ends of that edge have t's coordinate on ``axis``; only
    the vertices with that coordinate are tried.
    """
    try:
        return ring.index(t)
    except ValueError:
        pass
    coords = list(map(itemgetter(axis), ring))
    k = coords.index(t[axis])
    while not _inside_edge(t, ring[k], ring[(k + 1) % len(ring)]):
        k = coords.index(t[axis], k + 1)
    return k


def _cut(arcs: List[deque], cut: List[bool], end: int, p: Vertex, q: Vertex, axis: int,
         rest: bool) -> Tuple[List[Vertex], Optional[List[Vertex]]]:
    """Cut the live ring along the seam p -> q that peels ``end`` of the path.

    The live ring is ``arcs[0] + arcs[1]``, cyclically, with only turns in
    it.  Once both ends are cut, ``arcs[e]`` runs from the chord of end e
    to the chord of the other end; while only end e is cut, ``arcs[e]``
    is the whole ring, from its chord round to it, and the other arc is
    empty.  Seams and chords all lie on lines of one orientation, and a
    seam's end never lies strictly inside an edge parallel to it (the
    seam would run along the boundary), so neither end lies inside an
    edge that continues a chord.  So p is found by popping the arc before
    the chord from its end, and q by popping the arc after the chord from
    its start, each over the piece's vertices only.  An end's first cut
    looks q up in the whole ring once and starts the arc after it at q's
    vertex or edge.  The new chord's ends go back unless
    :func:`close_cut_arc` would drop them as straight.

    Returns the piece's arc from p to q and, if ``rest``, the remainder's
    arc from q to p, both as :func:`close_cut_arc` takes them.
    """
    other = 1 - end
    if not cut[end]:
        flat = [*arcs[other], *arcs[end]]  # from the other end's chord, if it has one
        k = _edge_at(flat, q, axis)
        if cut[other]:
            arcs[other], arcs[end] = deque(flat[:k]), deque(flat[k:])
        else:
            arcs[other], arcs[end] = deque(), deque(flat[k:] + flat[:k])
        cut[end] = True
    after = arcs[end]
    before = arcs[other] if cut[other] else after
    tail = []  # the piece's vertices from the chord back to p, p excluded
    while True:
        v = before.pop()
        if v == p:
            break
        tail.append(v)
        if _inside_edge(p, before[-1], v):
            break
    head = []  # from the chord on to q, q excluded
    while True:
        v = after.popleft()
        if v == q:
            break
        head.append(v)
        if _inside_edge(q, v, after[0]):
            break
    tail.reverse()
    piece = [p, *tail, *head, q]
    remainder = [q, *after, *(before if before is not after else ()), p] if rest else None
    prev = before[-1] if before else after[-1]
    keep_p = not _straight(prev, p, q)
    if keep_p:
        before.append(p)
    if not _straight(p if keep_p else prev, q, after[0] if after else before[0]):
        after.appendleft(q)
    return piece, remainder


def path_guard(poly: OrthoPolygon) -> Solution:
    """Guard a path-segmentation polygon with at most floor((n+2)/6) cameras.

    Peels two or three slices off one end of the path (two when the first
    cut line connects two reflex vertices), guards the peeled piece with a
    single camera and recurses on the remainder.
    """
    sol, _ = path_guard_steps(poly, remainders=False)
    return sol


def path_guard_steps(poly: OrthoPolygon, remainders: bool = True
                     ) -> Tuple[Solution, List[PeelStep]]:
    """:func:`path_guard` together with the peel steps it took.

    Everything about the slices comes from the input's own pixelation: a
    remainder's slices are the input's slices minus the peeled ones, so its
    path is a window ``path[lo..hi]`` of the input's path.  A solve reads
    the slices of each orientation it tries and their sides per grid line:
    :func:`_slice_path` tells whether the dual is a path, and the side
    lists, with the edge ends per line, tell whether the two ends of each
    peel's first seam are reflex vertices of the input (:func:`_reflex_at`);
    no reflex list, dual graph or slice rect is built.  The live ring is
    two arcs, one on each side of the path between the chords of its two
    ends (see :func:`_cut`).  Each peel pops the piece's vertices off the
    arcs at the chord of the end it peels, counts the vertices left instead
    of building the remainder, and closes the piece with
    :func:`close_cut_arc`: nothing is validated in full, and a peel costs
    time in the piece's size, apart from one scan of the ring at each end's
    first cut.  A step's ``remainder`` polygon is built only if
    ``remainders`` is true; :func:`path_guard` asks for none.  Only the
    input is pixelated: each piece's camera run, the last piece's included,
    is :func:`guard_small`'s, looked up by the piece's rank type, one of 43
    (:func:`_small_guard`), with no record built.  That run lies along
    pixel edges, so :meth:`Pixelation._maximal_run` extends it to a maximal
    run of the input along the chain of slice sides on its line, found by
    bisection (:meth:`Pixelation._inside_run`): no segment tree is built,
    and the solve carries runs.  ``make_solution`` lists a camera that serves
    several pieces once and builds each camera's record once, its hit set
    from the final verify's walk over its midlines; the steps share those
    records.
    """
    if poly.holes:
        raise NotPathSegmentation("polygon has holes")
    pix0 = pixelate(poly)
    for orientation in (VERTICAL, HORIZONTAL):
        chains = pix0._chains[orientation]
        sides = pix0._slice_sides(orientation)
        path = _slice_path(sides, len(chains))
        if path is not None:
            break
    else:
        raise NotPathSegmentation("neither segmentation dual is a path")
    vertical = orientation == VERTICAL
    ends = pix0._v_spans if vertical else pix0._h_spans  # edge ends per seam line
    axis = 1 if vertical else 0  # seam ends not at a vertex lie on edges across this axis

    runs: List[Tuple[str, int, int, int]] = []
    peeled = []  # per peel: slices removed, piece, camera run, remainder
    arcs, cut = [deque(poly.outer), deque()], [False, False]
    lo, hi = 0, len(path) - 1  # the live slices are path[lo..hi]
    n = poly.n
    while n > 8:
        # Slices are numbered by sorted rect, so peel from the end whose
        # slice has the smaller id, as the path order of the remainder would.
        end, first, step = (1, hi, -1) if path[hi] < path[lo] else (0, lo, 1)
        a, c0, c1 = _shared_side(chains[path[first]], chains[path[first + step]])
        take = 2 if _reflex_at(ends[a], sides[a], c0) and _reflex_at(ends[a], sides[a], c1) else 3
        take = min(take, hi - lo)
        p, q = _seam(chains[path[first + step * (take - 1)]], chains[path[first + step * take]],
                     vertical)
        piece_ring, rest_ring = _cut(arcs, cut, end, p, q, axis, remainders)
        sub = close_cut_arc(piece_ring)
        if sub.n > 8:
            raise AssertionError(f"peeled piece has {sub.n} > 8 vertices")
        runs.append(pix0._maximal_run(*_small_guard(sub.outer)[0]))
        left = len(arcs[0]) + len(arcs[1])
        if left > n - 6:
            raise AssertionError("peel did not remove enough vertices")
        peeled.append((take, sub, runs[-1], close_cut_arc(rest_ring) if remainders else None))
        n = left
        if end:
            hi -= take
        else:
            lo += take
    run, _ = _small_guard(_rotate_to_min([*arcs[0], *arcs[1]]))
    runs.append(pix0._maximal_run(*run))

    bound = (poly.n + 2) // 6
    if len(runs) > bound:
        raise AssertionError(f"path guarding used {len(runs)} > {bound} cameras")
    sol = make_solution(pix0, pix0._all_crosses, runs, "path")
    camera = {g.key(): g for g in sol.cameras}
    steps = [PeelStep(slices_removed=take, subpolygon=sub, camera=camera[run], remainder=rest)
             for take, sub, run, rest in peeled]
    return sol, steps


# ---------------------------------------------------------------------------
# Art-gallery bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    n: int
    msc: Optional[int]
    mhsc: Optional[int]
    msc_bound: int
    mhsc_bound: int
    msc_checked: bool

    @property
    def ok(self) -> bool:
        fine = self.mhsc is not None and self.mhsc <= self.mhsc_bound
        if self.msc_checked:
            fine = fine and self.msc is not None and self.msc <= self.msc_bound
        return fine

    def to_dict(self) -> dict:
        return {
            "n": self.n, "msc": self.msc, "mhsc": self.mhsc,
            "msc_bound": self.msc_bound, "mhsc_bound": self.mhsc_bound,
            "msc_checked": self.msc_checked, "ok": self.ok,
        }


def check_bounds(poly: OrthoPolygon, cap: Optional[int] = None) -> BoundReport:
    """Exact optima versus the floor((3n+4)/16) and floor(n/4) bounds.

    The all-orientations bound applies to simple hole-free polygons only;
    the horizontal bound is checked regardless.
    """
    n = poly.n
    pix = pixelate(poly)
    horizontal_ids = [g for g, run in enumerate(pix.guard_runs) if run[0] == HORIZONTAL]
    mhsc = brute_force_min_cover(build_instance(pix, gammaprime=horizontal_ids), cap).size
    msc = None
    msc_checked = not poly.holes
    if msc_checked:
        msc = brute_force_min_cover(build_instance(pix), cap).size
    return BoundReport(n=n, msc=msc, mhsc=mhsc,
                       msc_bound=(3 * n + 4) // 16, mhsc_bound=n // 4,
                       msc_checked=msc_checked)
