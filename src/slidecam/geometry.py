"""Exact rectilinear geometry: polygons, segmentations, pixelation, guards.

All input coordinates are integers.  Slice midlines sit on half-integer
coordinates and are stored as doubled integers (``anchor2``), so every
intersection predicate is decided with exact integer arithmetic; no
floating point is used anywhere in this module.
"""
from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right, insort
from collections import UserDict
from dataclasses import dataclass, field
from operator import itemgetter, lt
from typing import Dict, Iterable, Iterator, List, Mapping, NoReturn, Optional, Sequence, Tuple

from .errors import (
    DegenerateRing,
    HoleOutsideOuter,
    NonOrthogonalEdge,
    PolygonError,
    SelfIntersection,
)

Vertex = Tuple[int, int]
Rect = Tuple[int, int, int, int]  # (x_lo, y_lo, x_hi, y_hi)
Edge = Tuple[int, int, int]  # (x, y_lo, y_hi) if vertical, (y, x_lo, x_hi) if horizontal

HORIZONTAL = "H"
VERTICAL = "V"

_COORD_LIMIT = 2**31 - 1


# ---------------------------------------------------------------------------
# Polygon validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthoPolygon:
    """A rectilinear polygon: one outer ring (CCW) plus hole rings (CW)."""

    outer: Tuple[Vertex, ...]
    holes: Tuple[Tuple[Vertex, ...], ...] = ()

    @property
    def n(self) -> int:
        return len(self.outer) + sum(len(h) for h in self.holes)

    def rings(self) -> List[Tuple[Vertex, ...]]:
        return [self.outer, *self.holes]

    def bbox(self) -> Rect:
        xs = [x for r in self.rings() for x, _ in r]
        ys = [y for r in self.rings() for _, y in r]
        return (min(xs), min(ys), max(xs), max(ys))

    def area2(self) -> int:
        """Twice the enclosed area (holes subtracted)."""
        return sum(_signed_area2(r) for r in self.rings())

    # The two tables below are kept on the instance, not as fields, so that
    # equality, hashing and the ``pixelate`` cache see the rings alone.
    # :func:`validate_polygon` fills both, since its checks build them;
    # polygons built directly build them on first read.

    @functools.cached_property
    def _spans(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """The edges per line, vertical by x and horizontal by y (see :func:`_line_spans`)."""
        return _line_spans(self.rings())

    @functools.cached_property
    def _v_slices(self) -> List[Tuple[int, int, int, int]]:
        """The vertical slices (x0, y0, x1, y1), sorted (see :func:`_sweep_slices`)."""
        slices = _sweep_slices(self._spans[0])
        if slices is None:
            raise AssertionError("edges of the polygon cross")
        return sorted(slices)

    def to_dict(self) -> dict:
        d = {"outer": [list(v) for v in self.outer]}
        if self.holes:
            d["holes"] = [[list(v) for v in h] for h in self.holes]
        return d

    @staticmethod
    def from_dict(d: dict) -> "OrthoPolygon":
        shape = 'a polygon is {"outer": ring, "holes": [ring, ...]}'
        if not isinstance(d, dict) or "outer" not in d or not isinstance(d.get("holes", []), list):
            raise PolygonError(shape)
        unknown = sorted(d.keys() - {"outer", "holes"})
        if unknown:
            raise PolygonError(f"unknown keys {unknown}: {shape}")
        return validate_polygon([d["outer"], *d.get("holes", [])])


def _signed_area2(ring: Sequence[Vertex]) -> int:
    s = 0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def _normalize_ring(raw: Sequence[Sequence[int]], name: str,
                    vert: List[Edge], horiz: List[Edge]) -> Tuple[List[Vertex], int]:
    """The ring's turning vertices, and twice its signed area.  Each edge
    between consecutive turns goes onto ``vert`` as (x, y_lo, y_hi) or onto
    ``horiz`` as (y, x_lo, x_hi); both may hold other rings' edges already
    (see :func:`_group_spans`).

    A point whose coordinates are both of type ``int`` is taken as it is.
    Any other point (bools, floats, int subclasses, other types) is
    converted with ``int()`` and must equal what it was.  Every point then
    takes one range check against ±(2**31 - 1).

    After the coordinate checks, one pass over the deduplicated points
    checks that each edge is axis-parallel and classifies each vertex by
    its two edges: a turn, straight, or a spur, where the boundary doubles
    back.  Dropping a straight-through vertex keeps the directions of both
    its neighbours' edges, so the input's turns are the result's.  At each
    turn the pass records the edge from the previous turn and its area
    term: twice the sum of x dy over the vertical edges, which equals the
    shoelace sum on a closed rectilinear ring.  The pass stops early only
    at a diagonal edge.  The errors are raised after it, in this order: a
    diagonal edge, fewer than 4 points, fewer than 4 vertices left (the
    turns before the first spur and the points from it on), the first
    spur, zero area.

    The first turn's edge starts at the last point.  That is the last turn
    unless it is straight and lies on the edge from the last turn, which
    then replaces it.
    """
    pts: List[Vertex] = []
    last = None
    lo, hi = -_COORD_LIMIT, _COORD_LIMIT
    try:
        for x, y in raw:
            if type(x) is not int or type(y) is not int:
                v = (int(x), int(y))
                if v != (x, y):
                    raise PolygonError(f"{name}: coordinate of ({x!r}, {y!r}) is not an integer")
                x, y = v
            if not (lo <= x <= hi and lo <= y <= hi):
                raise PolygonError(f"{name}: coordinate outside 32-bit range: {(x, y)}")
            v = (x, y)
            if v != last:
                pts.append(v)
                last = v
    except (TypeError, ValueError, OverflowError):
        raise PolygonError(f"{name}: not a list of [x, y] integer pairs") from None
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    n = len(pts)
    if n < 3:
        raise DegenerateRing(f"{name}: fewer than 3 distinct vertices")
    turns: List[Vertex] = []
    spur = diagonal = None
    before = 0  # turns before the first spur
    v0, h0 = len(vert), len(horiz)
    area = 0  # sum of x dy over the vertical edges
    ax, ay = lx, ly = tx, ty = pts[-1]  # previous point, last point, last turn
    for i, (b, (cx, cy)) in enumerate(zip(pts, pts[1:] + pts[:1])):
        bx, by = b
        if by == cy:  # b -> c is horizontal
            if ay != by:
                turns.append(b)
                vert.append((bx, ty, by) if ty < by else (bx, by, ty))
                area += bx * (by - ty)
                tx, ty = b
            elif spur is None and (bx - ax) * (cx - bx) < 0:
                spur, before = i, len(turns)
        elif bx == cx:  # b -> c is vertical
            if ax != bx:
                turns.append(b)
                horiz.append((by, tx, bx) if tx < bx else (by, bx, tx))
                tx, ty = b
            elif spur is None and (by - ay) * (cy - by) < 0:
                spur, before = i, len(turns)
        else:
            diagonal = i
            break
        ax, ay = bx, by
    if diagonal is not None:
        a, b = pts[diagonal], pts[(diagonal + 1) % n]
        raise NonOrthogonalEdge(f"{name}: edge {a}-{b} is not axis-parallel")
    if n < 4:
        raise DegenerateRing(f"{name}: fewer than 4 distinct vertices")
    if (before + n - spur if spur is not None else len(turns)) < 4:
        raise DegenerateRing(f"{name}: collapses to fewer than 4 vertices")
    if spur is not None:
        raise SelfIntersection(f"{name}: boundary doubles back at {pts[spur]}")
    if (tx, ty) != (lx, ly):
        # the last point is straight: the first edge starts at the last turn
        fx, fy = turns[0]
        if fx == lx:
            vert[v0] = (fx, ty, fy) if ty < fy else (fx, fy, ty)
            area += fx * (ly - ty)
        else:
            horiz[h0] = (fy, tx, fx) if tx < fx else (fy, fx, tx)
    if area == 0:
        raise DegenerateRing(f"{name}: zero area")
    return turns, 2 * area


def _ring_edges(ring: Sequence[Vertex]):
    """Split a ring into vertical (x, y_lo, y_hi) and horizontal (y, x_lo, x_hi) edges."""
    vert, horiz = [], []
    n = len(ring)
    for i in range(n):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
        if x1 == x2:
            vert.append((x1, min(y1, y2), max(y1, y2)))
        else:
            horiz.append((y1, min(x1, x2), max(x1, x2)))
    return vert, horiz


def _first_contact(rings: Sequence[Sequence[Vertex]]):
    """The first pair of touching edges as ((ring, edge), (ring, edge)), or None.

    Edges are ordered ring by ring and, within a ring, in ring order; the
    pair returned is the first in that order.  Consecutive edges of one
    ring meet at their shared vertex, which is allowed; every other closed
    contact counts.  Parallel edges are grouped per line and their sorted
    spans checked for overlap; perpendicular contacts are found by a sweep
    over x that keeps the active horizontal edges sorted by y.  The cost is
    O(E log E) plus the number of contacts.
    """
    where: List[Tuple[int, int]] = []  # edge number -> (ring, index in ring)
    lines: Dict[Tuple[str, int], List[Tuple[int, int, int]]] = {}
    verts: List[Tuple[int, ...]] = []  # (x, y_lo, y_hi, edge, its two ring neighbours)
    horiz: List[Tuple[int, int, int, int]] = []  # (x_lo, x_hi, y, edge)
    for ridx, ring in enumerate(rings):
        n = len(ring)
        base = len(where)
        for i, ((x1, y1), (x2, y2)) in enumerate(zip(ring, ring[1:] + ring[:1])):
            e = base + i
            where.append((ridx, i))
            if x1 == x2:
                lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
                lines.setdefault((VERTICAL, x1), []).append((lo, hi, e))
                verts.append((x1, lo, hi, e, base + (i - 1) % n, base + (i + 1) % n))
            else:
                lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
                lines.setdefault((HORIZONTAL, y1), []).append((lo, hi, e))
                horiz.append((lo, hi, y1, e))

    # Consecutive edges of a normalized ring are perpendicular, so every
    # parallel contact counts.
    contacts: List[Tuple[int, int]] = []
    for spans in lines.values():
        if len(spans) > 1:
            spans.sort()
            active: List[Tuple[int, int, int]] = []
            for lo, hi, e in spans:
                active = [s for s in active if s[1] >= lo]
                contacts.extend((s[2], e) for s in active)
                active.append((lo, hi, e))

    # Sweep the verticals by x.  Horizontals with x_lo <= x enter and those
    # with x_hi < x leave before each query, so contacts at endpoints count;
    # a vertical's ring neighbours meet it at its ends, which is allowed.
    verts.sort()
    enter = sorted(horiz)
    leave = sorted(horiz, key=itemgetter(1))
    ys: List[Tuple[int, int]] = []  # active horizontal edges as (y, edge)
    a = b = 0
    for x, lo, hi, e, prev, nxt in verts:
        while a < len(enter) and enter[a][0] <= x:
            insort(ys, (enter[a][2], enter[a][3]))
            a += 1
        while b < len(leave) and leave[b][1] < x:
            del ys[bisect_left(ys, (leave[b][2], leave[b][3]))]
            b += 1
        for k in range(bisect_left(ys, (lo, -1)), bisect_right(ys, (hi, len(where)))):
            h = ys[k][1]
            if h != prev and h != nxt:
                contacts.append((h, e))
    if not contacts:
        return None
    a, b = min((min(p), max(p)) for p in contacts)
    return where[a], where[b]


def _point_in_ring(pt: Vertex, vert_edges) -> bool:
    """Even-odd test using a horizontal ray towards +x (point not on boundary)."""
    px, py = pt
    cnt = 0
    for x, ylo, yhi in vert_edges:
        if x > px and ylo <= py < yhi:
            cnt += 1
    return cnt % 2 == 1


def _rotate_to_min(ring: List[Vertex]) -> List[Vertex]:
    k = ring.index(min(ring))
    return ring[k:] + ring[:k]


def _line_spans(rings: Iterable[Sequence[Vertex]]) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    """The edges of normalized rings per line, as :func:`_group_spans`
    gives them.  :func:`validate_polygon` has its ring pass collect the
    edges; this walk serves polygons built directly."""
    vert, horiz = [], []
    for ring in rings:
        x0, y0 = ring[-1]
        for x1, y1 in ring:
            if x0 == x1:
                vert.append((x0, y0, y1) if y0 < y1 else (x0, y1, y0))
            else:
                horiz.append((y0, x0, x1) if x0 < x1 else (y0, x1, x0))
            x0, y0 = x1, y1
    return _group_spans(vert, horiz)


def _group_spans(vert: List[Edge], horiz: List[Edge]) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    """Vertical edges (x, y_lo, y_hi) by x and horizontal edges (y, x_lo,
    x_hi) by y, each line's as the list [lo0, hi0, lo1, hi1, ...] of its
    spans sorted, lines in order.

    Edges of a valid polygon never touch along one line, so each list is
    strictly increasing; see :func:`_on_spans`.
    """
    out = []
    for edges in (vert, horiz):
        lines: Dict[int, List[int]] = {}
        for a, lo, hi in sorted(edges):
            if a in lines:
                lines[a] += lo, hi
            else:
                lines[a] = [lo, hi]
        out.append(lines)
    return out[0], out[1]


def validate_polygon(rings: Sequence[Sequence[Sequence[int]]]) -> OrthoPolygon:
    """Validate and normalize raw vertex rings into an :class:`OrthoPolygon`.

    The first ring is the outer boundary, any further rings are holes.
    Orientation is normalized (outer CCW, holes CW), collinear and duplicate
    vertices are merged and every ring is rotated to start at its smallest
    vertex so that equal polygons have identical representations.  One
    pass per ring (:func:`_normalize_ring`) finds its turns and area and
    collects its edges, which are grouped per line once for all rings
    (:func:`_group_spans`); the spans do not depend on a ring's
    orientation or on where it starts.

    The rings are a polygon when edges of all rings meet only where
    consecutive edges of one ring share their vertex, every hole lies inside
    the outer ring, and no hole lies inside another.  Three exact tests
    decide that together, on tables the pixelation reads anyway:

    1. On every line, the edge spans of its orientation are strictly
       increasing.  This rules out every contact at a vertex: each vertex
       carries one edge of each orientation, so a vertex on another edge
       puts two edges of one line in contact.
    2. The vertical slice sweep (:func:`_sweep_slices`) never meets a run
       end strictly inside a vertical edge.  Given 1, the run ends between
       two grid lines are exactly the horizontal edges over that gap, so
       this rules out the remaining contacts, proper crossings.
    3. Twice the vertical slices' total area is |area2(outer)| minus the
       sum of |area2(hole)|.  Given 1 and 2 the rings are disjoint simple
       curves, and the sweep's runs are the points that an odd number of
       rings enclose: twice their area is the sum of |area2(ring)|, signed
       + at even nesting depth and - at odd.  That is the target when the
       outer ring is at depth 0 and every hole at depth 1, and more
       otherwise: a hole at even depth adds 2 |area2(hole)|, and an outer
       ring at odd depth, which takes 2 |area2(outer)| away, lies directly
       inside a larger hole at even depth.

    The accepted polygon keeps both tables (see :class:`Pixelation`).  Only
    a rejection runs the contact search and the hole scan of
    :func:`_raise_fault`, to name the fault.
    """
    if not rings:
        raise DegenerateRing("no rings given")
    vert: List[Edge] = []
    horiz: List[Edge] = []
    norm = [_normalize_ring(r, f"ring {i}", vert, horiz) for i, r in enumerate(rings)]
    outer, area2 = norm[0]
    if area2 < 0:
        outer.reverse()
    target = abs(area2)
    holes = []
    for h, area2 in norm[1:]:
        if area2 > 0:
            h.reverse()
        holes.append(h)
        target -= abs(area2)
    spans = _group_spans(vert, horiz)
    slices = None
    # a line with one edge is strictly increasing already
    if all(all(map(lt, line, line[1:])) for lines in spans for line in lines.values() if len(line) > 2):
        slices = _sweep_slices(spans[0])
    if slices is None or 2 * sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in slices) != target:
        _raise_fault(outer, holes)
    poly = OrthoPolygon(
        outer=tuple(_rotate_to_min(outer)),
        holes=tuple(tuple(_rotate_to_min(h)) for h in holes),
    )
    # what the cached properties would build
    vars(poly).update(_spans=spans, _v_slices=sorted(slices))
    return poly


def _raise_fault(outer: List[Vertex], holes: List[List[Vertex]]) -> NoReturn:
    """Raise the error that names why oriented rings that
    :func:`validate_polygon` rejected are no polygon."""
    # Simplicity: edges of all rings may only meet where consecutive edges of
    # one ring share their common vertex.  Any other contact is rejected, so
    # rings never touch each other or themselves.
    contact = _first_contact([outer, *holes])
    if contact is not None:
        (r1, i1), (r2, i2) = contact
        if r1 == r2:
            raise SelfIntersection(f"ring {r1}: edges {i1} and {i2} intersect")
        raise HoleOutsideOuter(f"rings {r1} and {r2} touch or overlap")

    # No two rings touch, so each hole lies wholly inside or wholly outside
    # any other ring and one vertex decides which.  A point strictly inside
    # a hole is strictly inside its bounding box, which rules out most pairs.
    outer_vert, _ = _ring_edges(outer)
    for hidx, hole in enumerate(holes):
        if not _point_in_ring(hole[0], outer_vert):
            raise HoleOutsideOuter(f"hole {hidx} is not strictly inside the outer ring")
    firsts = [h[0] for h in holes]
    for a, hole in enumerate(holes):
        xs, ys = [x for x, _ in hole], [y for _, y in hole]
        xl, yl, xh, yh = min(xs), min(ys), max(xs), max(ys)
        hole_vert = None  # the hole's vertical edges, built on its first candidate
        for b, (x, y) in enumerate(firsts):
            if xl < x < xh and yl < y < yh and a != b:
                if hole_vert is None:
                    hole_vert, _ = _ring_edges(hole)
                if _point_in_ring((x, y), hole_vert):
                    raise HoleOutsideOuter(f"holes {a} and {b} overlap")
    raise AssertionError("validation rejected rings without a fault to name")


def close_cut_arc(arc: Sequence[Vertex]) -> OrthoPolygon:
    """The hole-free polygon that an arc of a valid outer ring closes with a chord.

    ``arc`` runs in ring order from one end of an axis-parallel chord inside
    the polygon to the other, both ends included; the chord from its last
    vertex back to its first closes it.  Every inner vertex of the arc is a
    turn of the valid ring and keeps its turn, so only the two ends can be
    straight, where the chord continues an edge.  Dropping those and rotating
    to the smallest vertex gives what :func:`validate_polygon` gives on the
    closed arc, at the cost of the rotation alone.
    """
    ring = list(arc)
    for k in (len(ring) - 1, 0):
        if _straight(ring[k - 1], ring[k], ring[(k + 1) % len(ring)]):
            del ring[k]
    return OrthoPolygon(outer=tuple(_rotate_to_min(ring)))


def _straight(a: Vertex, b: Vertex, c: Vertex) -> bool:
    """Do a -> b and b -> c lie on one line?"""
    return (b[0] - a[0]) * (c[1] - b[1]) == (b[1] - a[1]) * (c[0] - b[0])


# ---------------------------------------------------------------------------
# Pixelation data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceSegment:
    """Midline of a slice; ``anchor2`` is the doubled halving-line coordinate."""

    id: int
    orientation: str
    anchor2: int
    lo: int
    hi: int


@dataclass(frozen=True)
class Slice:
    id: int
    orientation: str
    rect: Rect
    segment: SliceSegment


@dataclass(frozen=True)
class Pixel:
    id: int
    rect: Rect
    v_slice: int
    h_slice: int


@dataclass(frozen=True)
class Cross:
    pixel_id: int
    h_support: int  # global slice-segment id
    v_support: int
    point2: Tuple[int, int]  # doubled coordinates of the crossing point


@dataclass(frozen=True, order=True)
class GuardSegment:
    """A camera segment on a grid line.

    Canonical guards produced by :func:`pixelate` are maximal runs along
    pixel edges with per-orientation deduplication by hit set; ``id`` is -1
    for ad-hoc segments built by callers.
    """

    orientation: str
    anchor: int
    lo: int
    hi: int
    id: int = -1
    hit_set: int = 0

    def key(self):
        return (self.orientation, self.anchor, self.lo, self.hi)


class _Certificate(UserDict):
    """A dict whose items are built on first read: :func:`_witnesses` of
    the arguments."""

    def __init__(self, *args):
        self._args = args

    @functools.cached_property
    def data(self) -> dict:
        return _witnesses(*self._args)


@dataclass(frozen=True)
class CoverageReport:
    """The requested crosses that no guard hits, ascending, and per hit
    cross the support through which it is hit and the witnessing guard's
    key (see :func:`verify_cover`).  ``hit_sets`` holds per guard, in key
    order, the mask of the crosses it hits."""

    uncovered: Tuple[int, ...]
    certificate: Mapping[int, Tuple[int, Tuple[str, int, int, int]]]
    hit_sets: Tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def covered(self) -> bool:
        return not self.uncovered


def _on_spans(ends: List[int], t: int) -> bool:
    """Is ``t`` on a closed span of a strictly increasing [lo0, hi0, ...] list?

    It is iff an odd number of span ends lie below it, or it is a span end.
    """
    i = bisect_left(ends, t)
    return i & 1 == 1 or (i < len(ends) and ends[i] == t)


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _sweep_slices(spans: Dict[int, List[int]]) -> Optional[List[Tuple[int, int, int, int]]]:
    """One segmentation's slices, by a sweep over the grid lines that carry edges.

    ``spans`` holds each line's edges as :func:`_group_spans` gives them,
    in line order, strictly increasing on each line.  The sweep keeps the
    inside runs between the current line and the next as a strictly
    increasing list of run ends, which are then exactly the perpendicular
    edges over that gap, and per run the line it opened on.  Across an
    edge [lo, hi] inside-ness flips, so the runs whose closed spans touch
    the edge close and the XOR of their ends with {lo, hi} opens in their
    place; a run that no edge touches goes on unchanged.  Each closed run
    that opened on an earlier line is a slice (a0, lo, a1, hi): lines a0
    to a1 bound it and its span is [lo, hi].  This is exactly the cut by
    the rays parallel to the lines: two overlapping runs on either side of
    a line that differ at an end, say at lo' > lo, have a reflex vertex on
    the line at lo' whose ray follows the line across their overlap and
    splits them.

    A run end strictly inside an edge is a perpendicular edge that crosses
    it; the sweep then returns None.  Otherwise the only run ends in
    [lo, hi] are lo or hi themselves, and ends outside it stay, so the
    XOR is one of five in-place updates, by the ends the edge touches:

    - none: the edge lies in a gap and opens a run [lo, hi], or strictly
      inside a run [l, h], which closes and opens as [l, lo] and [hi, h];
    - one, lo or hi: its run closes and opens with that end moved to the
      edge's other end, which lies in no run;
    - two, lo and hi: they are the ends of one run, which closes, or the
      inner ends of two runs [l, lo] and [hi, h], which close and open as
      [l, h].

    Any other case has an end strictly inside.  The cost is O(log r) plus
    one list insert or delete per edge, for r open runs.
    """
    ends: List[int] = []
    opened: List[int] = []  # per open run, the line it opened on
    out = []
    for a, line in spans.items():
        for e in range(0, len(line), 2):
            lo, hi = line[e], line[e + 1]
            i = bisect_left(ends, lo)
            k = i >> 1  # the run that ends[i] belongs to
            if i == len(ends) or ends[i] > hi:  # none: open in a gap, or split run k
                if i & 1:
                    if opened[k] != a:
                        out.append((opened[k], ends[i - 1], a, ends[i]))
                    opened[k] = a
                opened.insert(k, a)
                ends[i:i] = lo, hi
            elif ends[i] == lo and i + 1 < len(ends) and ends[i + 1] <= hi:
                if ends[i + 1] != hi:
                    return None
                if i & 1:  # two: bridge runs k and k + 1
                    for r in (k, k + 1):
                        if opened[r] != a:
                            out.append((opened[r], ends[2 * r], a, ends[2 * r + 1]))
                    del opened[k + 1]
                    opened[k] = a
                else:  # two: close run k
                    if opened[k] != a:
                        out.append((opened[k], lo, a, hi))
                    del opened[k]
                del ends[i:i + 2]
            elif ends[i] == lo or ends[i] == hi:  # one: move that end of run k
                if opened[k] != a:
                    out.append((opened[k], ends[2 * k], a, ends[2 * k + 1]))
                opened[k] = a
                ends[i] = hi if ends[i] == lo else lo
            else:
                return None
    return out


def _rect(orientation: str, chain: Tuple[int, int, int, int]) -> Rect:
    """The rect of a slice given as (a0, lo, a1, hi): between the lines a0
    and a1 of its orientation, and spanning [lo, hi] along them."""
    a0, lo, a1, hi = chain
    return chain if orientation == VERTICAL else (lo, a0, hi, a1)


def _side_contacts(sides: Mapping[int, Tuple[list, list]]) -> Iterator[Tuple[int, int]]:
    """The pairs (a, b) of slices that share part of a side, each once:
    per grid line of ``sides`` (as :meth:`Pixelation._slice_sides` gives
    them), a slice a that ends on it and a slice b that starts on it whose
    spans overlap, found by a merge of both sorted lists."""
    for ending, starting in sides.values():
        i = j = 0
        m, n = len(ending), len(starting)
        while i < m and j < n:
            (lo1, hi1, a), (lo2, hi2, b) = ending[i], starting[j]
            if lo1 < hi2 and lo2 < hi1:
                yield a, b
            if hi1 < hi2:
                i += 1
            else:
                j += 1


# ---------------------------------------------------------------------------
# Pixelation
# ---------------------------------------------------------------------------

class Pixelation:
    """Both segmentations of a polygon overlaid: pixels, crosses and guards.

    The constructor builds int tables, by sweeps whose cost follows slices,
    pixels and runs, never the cells of the compressed grid (the vertex
    coordinates per axis, ``x_cuts`` and ``y_cuts``):

    - Slices and midlines: each orientation sweeps its grid lines, keeping
      the inside runs between lines (:func:`_sweep_slices`).  The edge
      spans per line and the vertical slices are the polygon's own
      (``OrthoPolygon._spans`` and ``_v_slices``, shared, not copied):
      :func:`validate_polygon` builds them for its checks, the spans from
      its ring pass's edge lists, and a polygon built directly
      (:func:`close_cut_arc`, ``guard_small``'s rank polygons) builds them
      on first read, the spans by a walk over its rings
      (:func:`_line_spans`), so only the horizontal sweep runs here.  The
      grid lines, ``x_cuts`` and ``y_cuts``, are the lines of the spans.
      Slices are numbered by rect, and horizontal midline ids follow the
      vertical ones.  The midline index ``_sigma_lines`` holds, per
      orientation and ``anchor2``, the lo, hi and id of each midline on
      it, read off one sorted list of the orientation's midlines.  Cost
      O(E log E) for E edges.
    - Crosses: the vertical slices are walked in rect order while a sweep
      keeps the horizontal slices over the strip right of the current x
      as two parallel int lists, their bottom y and their id, sorted by
      bottom y.  Slices that end at x leave before those that start there
      enter, so the slices kept share the strip; their interiors are
      disjoint, so their bottoms are distinct and bisection on the bottoms
      alone finds each one.  A vertical slice's pixels are those with
      bottom y in its y-range, numbered by (vertical, horizontal) slice
      id, so each vertical slice's pixel ids are consecutive.  Per cross
      (pixel) id, ``h_supports`` and ``v_supports`` hold its two midline
      ids; per midline id, ``_slice_cross_mask`` holds the mask of the
      crosses on it.  Cost O((S + P) log S) for S slices and P pixels,
      plus one list insert and delete per horizontal slice.

    The canonical cameras, which every solve but ``path`` reads, are int
    tables built on first read by one merge of slice sides per
    orientation (``_masked_runs``).  The runs along pixel edges on a
    vertical line are the sides of the vertical slices on it, merged where
    they touch, and likewise for horizontal lines.  Each slice's crossing
    mask is the OR of the cross masks of the perpendicular slices that
    cross it, and a run's hit mask is the OR of the crossing masks of the
    slices whose sides make it up.  The first run in key order per
    orientation and hit mask is a camera, numbered in key order: per
    camera id, ``guard_runs`` holds its run (orientation, anchor, lo, hi)
    and ``guard_masks`` its hit mask over cross ids, the incidence that
    every solver reads.  Cost O(S log S) for S slices, plus two mask ORs
    per cross and one per slice side.

    No solve reads a record.  The records are derived from the tables on
    first read and kept: ``sigmas`` (:meth:`sigmas_hit`, render),
    ``crosses`` (render, callers of :func:`hits`) and ``guards``
    (:func:`guard_segments`); :meth:`guard` builds the record of one
    camera (``guards`` and ``guard_small``).  Render and the ``bounds``
    check read ``guard_runs``, and ``make_solution`` builds the records
    of the cameras it returns from their runs.  What else only some
    callers read is derived on first read and kept too: ``pixels``
    (render), ``slices_v`` and ``slices_h`` (:func:`segmentation`), the
    slice sides per line (:meth:`_slice_sides`, per orientation; ``path``,
    :meth:`slice_dual` and :meth:`_inside_run`), the stabbing index
    (:meth:`_stabbing_index`, per orientation; :meth:`_inside_run` for a
    point that no chain of slice sides holds, so only for a segment
    through a slice's interior), and ``dual_edges`` and ``side_guards``
    (``dp``'s lifted fallback and tests; the former also
    :func:`gen_thin_tree`).  Nothing is kept per line or per segment:
    :meth:`_inside_run`, behind ``verify``'s :meth:`contains_segment` and
    ``path``'s :meth:`_maximal_run`, answers each point afresh.
    """

    def __init__(self, polygon: OrthoPolygon):
        self.polygon = polygon
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        # every vertex carries an edge of each orientation, so the lines
        # that carry edges are the vertex coordinates
        self._v_spans, self._h_spans = self.polygon._spans
        self.x_cuts: List[int] = list(self._v_spans)
        self.y_cuts: List[int] = list(self._h_spans)
        self._build_slices()
        self._build_pixels()
        # kept by the lookups: the slice sides and the stabbing index per orientation
        self._sides: Dict[str, Dict[int, Tuple[list, list]]] = {}
        self._stabbing: Dict[str, Tuple[List[int], int, Dict[int, list]]] = {}

    def on_boundary(self, pt: Vertex) -> bool:
        x, y = pt
        return _on_spans(self._v_spans.get(x, ()), y) or _on_spans(self._h_spans.get(y, ()), x)

    def _build_slices(self):
        """Both segmentations (see :func:`_sweep_slices`) and the midline index."""
        # each slice as (a0, lo, a1, hi), numbered by rect: (x0, y0, x1, y1)
        # is (a0, lo, a1, hi) for a vertical slice, (lo, a0, hi, a1) for a
        # horizontal one
        self._chains: Dict[str, List[Tuple[int, int, int, int]]] = {
            VERTICAL: self.polygon._v_slices,
            HORIZONTAL: sorted(_sweep_slices(self._h_spans), key=itemgetter(1, 0, 3, 2))}
        # per orientation: the anchor2 values in order, and for each the
        # los, his and ids of the midlines on it, sorted by span; midlines
        # on one anchor2 have disjoint closed spans (see sigma_ids_hit)
        self._sigma_lines: Dict[str, Tuple[List[int], List[tuple]]] = {}
        sid = 0
        for o in (VERTICAL, HORIZONTAL):
            segs = []
            for a0, lo, a1, hi in self._chains[o]:
                # each midline lies inside its slice, so with the pixel check
                # below the two midlines of a pixel cross inside it
                if not (a0 < a1 and lo < hi):
                    raise AssertionError("slice-segments do not cross inside their pixel")
                segs.append((a0 + a1, lo, hi, sid))
                sid += 1
            segs.sort()
            # a line's los, his and ids are slices of these columns
            anchors, los, his, ids = zip(*segs)
            keys, lines = [], []
            i, m = 0, len(segs)
            while i < m:
                a = anchors[i]
                j = i + 1
                while j < m and anchors[j] == a:
                    j += 1
                lines.append((los[i:j], his[i:j], ids[i:j]))
                keys.append(a)
                i = j
            self._sigma_lines[o] = (keys, lines)

    def _build_pixels(self):
        # a vertical slice is (x0, y0, x1, y1), a horizontal one (y0, x0, y1, x1)
        V, H = self._chains[VERTICAL], self._chains[HORIZONTAL]
        nv, nh = len(V), len(H)
        v_masks, h_masks = [0] * nv, [0] * nh
        hs: List[int] = []  # per cross, the index in H of its horizontal slice
        vs: List[int] = []
        rights = [right for _, _, _, right in H]
        leave = sorted(range(nh), key=rights.__getitem__)
        # the slices over the strip right of x, by bottom y: their ids in
        # ``ids`` and their bottoms in ``ys``, which are distinct, since
        # the slices share that strip and have disjoint interiors
        ys: List[int] = []
        ids: List[int] = []
        e = l = 0
        for v, (x0, y0, x1, y1) in enumerate(V):
            # slices that end at or before x0 leave before any enter.  Each
            # has entered at an earlier x0: the outside lies left of a
            # slice's left side, so a vertical slice starts there
            while l < nh and rights[leave[l]] <= x0:
                i = bisect_left(ys, H[leave[l]][0])
                del ys[i], ids[i]
                l += 1
            # H is numbered by left x: slices enter in id order
            while e < nh and H[e][1] <= x0:
                y = H[e][0]
                i = bisect_left(ys, y)
                ys.insert(i, y)
                ids.insert(i, e)
                e += 1
            row = sorted(ids[bisect_left(ys, y0):bisect_left(ys, y1)])
            first = cid = len(hs)
            for h in row:
                # h starts at or before x0 and at or above y0 by the sweep
                _, _, top, right = H[h]
                if right < x1 or top > y1:
                    raise AssertionError("pixel does not match its slice intersection")
                h_masks[h] |= 1 << cid
                cid += 1
            hs += row
            vs += [v] * len(row)
            v_masks[v] = ((1 << len(row)) - 1) << first
        self._slice_cross_mask = v_masks + h_masks
        self.h_supports = [nv + h for h in hs]
        self.v_supports = vs

    # -- products derived on first read -------------------------------------

    @functools.cached_property
    def _masked_runs(self) -> List[Tuple[Tuple[str, int, int, int], int]]:
        """Runs along pixel edges with their hit masks, in key order
        (orientation, line, span): the sides of the slices on each grid
        line, merged where they touch, each tagged with its slice.

        A run's hit mask is the OR of its side slices' crossing masks, each
        the OR of the cross masks of the perpendicular slices that cross
        the slice.  These are the masks of the midlines the run meets, as
        :meth:`sigma_ids_hit` finds them.  Pixels span their slices across,
        so the run meets the midline of every slice that crosses a side
        slice.  Conversely, say a perpendicular midline of slice t meets
        the run at q.  Beside q, on t's side of the line, t's interior lies
        in a slice of the run's orientation that has a side on the line
        through q: one across the line would hold q inside, or end at q on
        an edge with the outside beyond, where t is inside.  That side
        touches the run, so it is merged into it, and its slice crosses t.
        A midline on the run's own line lies strictly inside its slice,
        whose ends across are polygon edges with the outside beyond, so no
        slice side meets it: the own-line part of :meth:`sigma_ids_hit`
        never fires for a run.
        """
        masks = self._slice_cross_mask
        crossing = [0] * len(masks)
        for h, v in zip(self.h_supports, self.v_supports):
            crossing[v] |= masks[h]
            crossing[h] |= masks[v]
        nv = len(self._chains[VERTICAL])
        out = []
        for o, first in ((HORIZONTAL, nv), (VERTICAL, 0)):
            chains = self._chains[o]
            sides = sorted([(a0, lo, hi, sid) for sid, (a0, lo, _, hi) in enumerate(chains, first)]
                           + [(a1, lo, hi, sid) for sid, (_, lo, a1, hi) in enumerate(chains, first)])
            (line, start, end, _), mask = sides[0], 0
            for a, lo, hi, sid in sides:
                if a != line or lo > end:
                    out.append(((o, line, start, end), mask))
                    line, start, end, mask = a, lo, hi, 0
                elif hi > end:
                    end = hi
                mask |= crossing[sid]
            out.append(((o, line, start, end), mask))
        return out

    @functools.cached_property
    def _cameras(self) -> Dict[Tuple[str, int], Tuple[str, int, int, int]]:
        """The first run in key order per (orientation, hit mask), in that order."""
        first: Dict[Tuple[str, int], Tuple[str, int, int, int]] = {}
        for run, mask in self._masked_runs:
            first.setdefault((run[0], mask), run)
        return first

    @functools.cached_property
    def guard_runs(self) -> List[Tuple[str, int, int, int]]:
        """Per canonical camera id, its run (orientation, anchor, lo, hi)."""
        return list(self._cameras.values())

    @functools.cached_property
    def guard_masks(self) -> List[int]:
        """Per canonical camera id, its hit mask over cross ids."""
        return [mask for _, mask in self._cameras]

    def guard(self, gid: int) -> GuardSegment:
        """The record of canonical camera ``gid``, built from its tables."""
        return GuardSegment(*self._camera_run(gid), id=gid, hit_set=self.guard_masks[gid])

    def _camera_run(self, gid: int) -> Tuple[str, int, int, int]:
        """The run of canonical camera ``gid``; ``ValueError`` for an id
        outside 0..len(guard_runs) - 1."""
        runs = self.guard_runs
        if not 0 <= gid < len(runs):
            raise ValueError(f"camera id {gid} is not in 0..{len(runs) - 1}")
        return runs[gid]

    @functools.cached_property
    def guards(self) -> List[GuardSegment]:
        """The records of the canonical cameras, by id (see :meth:`guard`)."""
        return [self.guard(gid) for gid in range(len(self.guard_masks))]

    @functools.cached_property
    def sigmas(self) -> List[SliceSegment]:
        """The records of the midlines, by id."""
        chains = [(o, *chain) for o in (VERTICAL, HORIZONTAL) for chain in self._chains[o]]
        return [SliceSegment(sid, o, a0 + a1, lo, hi) for sid, (o, a0, lo, a1, hi) in enumerate(chains)]

    @functools.cached_property
    def crosses(self) -> List[Cross]:
        """The records of the crosses, by id: its supports and their crossing point."""
        anchor2 = [a0 + a1 for o in (VERTICAL, HORIZONTAL) for a0, _, a1, _ in self._chains[o]]
        return [Cross(cid, h, v, (anchor2[v], anchor2[h]))
                for cid, (h, v) in enumerate(zip(self.h_supports, self.v_supports))]

    @functools.cached_property
    def _all_crosses(self) -> Tuple[int, ...]:
        """Every cross id, ascending: one shared tuple, by which
        :func:`verify_cover` knows a request of every cross at a glance."""
        return tuple(range(len(self.h_supports)))

    def _pixel_rect(self, cid: int) -> Rect:
        # a pixel spans its vertical slice's x-range and its horizontal one's y-range
        x0, _, x1, _ = self._chains[VERTICAL][self.v_supports[cid]]
        y0, _, y1, _ = self._chains[HORIZONTAL][self.h_supports[cid] - len(self._chains[VERTICAL])]
        return (x0, y0, x1, y1)

    @functools.cached_property
    def pixels(self) -> List[Pixel]:
        nv = len(self._chains[VERTICAL])
        return [Pixel(id=cid, rect=self._pixel_rect(cid), v_slice=v, h_slice=h - nv)
                for cid, (h, v) in enumerate(zip(self.h_supports, self.v_supports))]

    def _slices(self, orientation: str) -> List[Slice]:
        first = 0 if orientation == VERTICAL else len(self._chains[VERTICAL])
        return [Slice(id=sid, orientation=orientation, rect=_rect(orientation, chain),
                      segment=self.sigmas[first + sid])
                for sid, chain in enumerate(self._chains[orientation])]

    @functools.cached_property
    def slices_v(self) -> List[Slice]:
        return self._slices(VERTICAL)

    @functools.cached_property
    def slices_h(self) -> List[Slice]:
        return self._slices(HORIZONTAL)

    def _slice_pixels(self, orientation: str) -> List[List[int]]:
        """Per slice of one orientation, its pixel ids, ordered along the slice."""
        nv = len(self._chains[VERTICAL])
        out: List[List[int]] = [[] for _ in self._chains[orientation]]
        if orientation == HORIZONTAL:
            # pixel ids follow vertical slice ids, which follow x
            for cid, h in enumerate(self.h_supports):
                out[h - nv].append(cid)
            return out
        H = self._chains[HORIZONTAL]
        for cid, (h, v) in enumerate(zip(self.h_supports, self.v_supports)):
            out[v].append((H[h - nv][0], cid))
        return [[cid for _, cid in sorted(col)] for col in out]

    @functools.cached_property
    def dual_edges(self) -> Tuple[Tuple[int, int], ...]:
        """Pixels that share part of a side.  Such pixels are consecutive
        pixels of one slice: by y within a vertical slice, by x within a
        horizontal one, since pixels span their slices across."""
        edges = [(a, b) if a < b else (b, a)
                 for o in (VERTICAL, HORIZONTAL) for line in self._slice_pixels(o)
                 for a, b in zip(line, line[1:])]
        return tuple(sorted(edges))

    def _slice_sides(self, orientation: str) -> Dict[int, Tuple[list, list]]:
        """Per grid line, the slices of one orientation that end on it and
        those that start on it, each as (lo, hi, id) sorted by span; built
        on first read and kept.

        Slices come in rect order, so those that start on one line come by
        lo already; only the lists of slices that end on a line are sorted.
        """
        out = self._sides.get(orientation)
        if out is None:
            out = self._sides[orientation] = {}
            for sid, (a0, lo, a1, hi) in enumerate(self._chains[orientation]):
                pair = out.get(a1)
                if pair is None:
                    pair = out[a1] = ([], [])
                pair[0].append((lo, hi, sid))
                pair = out.get(a0)
                if pair is None:
                    pair = out[a0] = ([], [])
                pair[1].append((lo, hi, sid))
            for ending, _ in out.values():
                ending.sort()
        return out

    @functools.cached_property
    def side_guards(self) -> List[List[int]]:
        """Per pixel, the canonical guards whose own run (not those of
        parallel runs merged into it) lies along one of its sides.

        A run is merged from slice sides on its line, and the pixels beside
        it are all pixels of those slices, since pixels span their slices
        across."""
        out: List[List[int]] = [[] for _ in self.h_supports]
        sides = {o: self._slice_sides(o) for o in (VERTICAL, HORIZONTAL)}
        members = {o: self._slice_pixels(o) for o in (VERTICAL, HORIZONTAL)}
        for gid, (o, anchor, lo, hi) in enumerate(self.guard_runs):
            for line in sides[o][anchor]:
                for _, _, sid in line[bisect_left(line, (lo,)):bisect_left(line, (hi,))]:
                    for pid in members[o][sid]:
                        out[pid].append(gid)
        return out

    def sigma_ids_hit(self, orientation: str, anchor: int, lo: int, hi: int) -> List[int]:
        """Ids of the slice-segments that the closed grid-line segment intersects.

        Bisection in the per-orientation index finds the perpendicular
        midlines' anchor2 values in [2 lo, 2 hi] and the segment's own line
        2 anchor.  Midlines that share one anchor2 have nested extents
        across it and disjoint interiors, so their closed spans along it are
        disjoint and sorted by lo and hi alike: on each perpendicular line,
        bisection finds the one midline whose span can contain ``anchor``,
        and on the own line the run of midlines whose spans overlap
        [lo, hi].  It is the only segment-versus-midline predicate; the
        hit masks of the canonical cameras equal the masks of its hits
        (see :attr:`_masked_runs`).
        """
        other = VERTICAL if orientation == HORIZONTAL else HORIZONTAL
        keys, lines = self._sigma_lines[other]
        out = []
        for los, his, ids in lines[bisect_left(keys, 2 * lo):bisect_right(keys, 2 * hi)]:
            k = bisect_right(los, anchor) - 1
            if k >= 0 and his[k] >= anchor:
                out.append(ids[k])
        keys, lines = self._sigma_lines[orientation]
        k = bisect_left(keys, 2 * anchor)
        if k < len(keys) and keys[k] == 2 * anchor:
            los, his, ids = lines[k]
            out += ids[bisect_left(his, lo):bisect_right(los, hi)]
        return out

    def sigmas_hit(self, orientation: str, anchor: int, lo: int, hi: int) -> List[SliceSegment]:
        """The records of the slice-segments that the closed grid-line
        segment intersects, in the order of :meth:`sigma_ids_hit`; the
        first call builds ``sigmas``."""
        sigmas = self.sigmas
        return [sigmas[sid] for sid in self.sigma_ids_hit(orientation, anchor, lo, hi)]

    def _segment_hit_mask(self, orientation: str, anchor: int, lo: int, hi: int) -> int:
        mask = 0
        for sid in self.sigma_ids_hit(orientation, anchor, lo, hi):
            mask |= self._slice_cross_mask[sid]
        return mask

    # -- lookups ------------------------------------------------------------

    def _stabbing_index(self, orientation: str) -> Tuple[List[int], int, Dict[int, list]]:
        """A segment tree over one orientation's grid lines, built on first
        read: (lines, leaves, nodes).

        Leaf 2k + 1 is line k and leaf 2k the open gap below it, so any
        coordinate falls in one of the 2m + 1 leaves of m lines.  The tree
        is the bottom-up one over the leaves (node i has children 2i and
        2i + 1, leaf t is node leaves + t); each slice's span (lo, hi) is
        kept in the O(log m) nodes whose leaf ranges make up its range
        across [a0, a1], and only nodes that hold a span are stored.  The
        spans on the path from a line's leaf to the root are those of the
        slices whose closed range across holds the line, each once
        (:meth:`_inside_run` reads them).  See de Berg et al.,
        *Computational Geometry*, 3rd ed., section 10.3.
        """
        index = self._stabbing.get(orientation)
        if index is None:
            lines = self.x_cuts if orientation == VERTICAL else self.y_cuts
            at = {a: k for k, a in enumerate(lines)}
            leaves = 2 * len(lines) + 1
            nodes: Dict[int, list] = {}
            for a0, lo, a1, hi in self._chains[orientation]:
                i, j = leaves + 2 * at[a0] + 1, leaves + 2 * at[a1] + 2
                while i < j:
                    if i & 1:
                        nodes.setdefault(i, []).append((lo, hi))
                        i += 1
                    if j & 1:
                        j -= 1
                        nodes.setdefault(j, []).append((lo, hi))
                    i >>= 1
                    j >>= 1
            index = self._stabbing[orientation] = (lines, leaves, nodes)
        return index

    def _side_run(self, orientation: str, anchor: int, lo: int, hi: int) -> Optional[Tuple[int, int]]:
        """The span of the chain of slice sides on grid line ``anchor`` that
        holds [lo, hi], or None if no chain holds it.

        A chain is a maximal union of the line's slice sides (see
        :meth:`_slice_sides`), those that end on it and those that start
        on it, merged where they overlap or touch.  It grows outward from
        ``lo`` by bisection: sides on one side of the line are disjoint and
        sorted, so in each list only the last side with lo at or below the
        chain's top can carry it higher, and only the last with lo below
        its bottom can carry it lower.

        A chain that holds the segment is its maximal inside run: beyond a
        chain's end the line leaves P (see :meth:`_inside_run`).
        """
        sides = self._slice_sides(orientation).get(anchor)
        if sides is None:
            return None
        bottom = top = lo
        grown = True
        while grown:
            grown = False
            for part in sides:
                k = bisect_left(part, (top + 1,))  # the sides with lo <= top (int coordinates)
                if k and part[k - 1][1] > top:
                    top = part[k - 1][1]
                    grown = True
        grown = True
        while grown:
            grown = False
            for part in sides:
                k = bisect_left(part, (bottom,))  # the sides with lo < bottom
                if k and part[k - 1][1] >= bottom:
                    bottom = part[k - 1][0]
                    grown = True
        # sides have positive length, so no side holds lo iff the chain is a point
        if bottom == top or not bottom <= hi <= top:
            return None
        return bottom, top

    def _inside_run(self, orientation: str, anchor: int, t: int) -> Optional[Tuple[int, int]]:
        """The maximal inside run (lo, hi) of the line at ``anchor`` that
        holds the point ``t``, or None if the point is outside the closed
        polygon.  The line need not be a grid line.

        The line's inside runs are the chains of slice sides on it
        (:meth:`_side_run`) and the spans of the slices of its orientation
        that it passes through.  Such a slice is closed off at both ends of
        its span by edges across the line, with the outside beyond, so its
        span is a whole inside run and touches no other span or slice side
        on the line; so beyond a chain's end, too, the line leaves P.  If no
        chain holds ``t``, the run is the first span that holds it on the
        path from the line's leaf to the root of :meth:`_stabbing_index`,
        which is a passing slice's, since no slice side holds ``t``: O(log m
        + k) for m grid lines and the k slices that hold the line, with
        nothing sorted, merged or kept.
        """
        run = self._side_run(orientation, anchor, t, t)
        if run is not None:
            return run
        lines, leaves, nodes = self._stabbing_index(orientation)
        k = bisect_left(lines, anchor)
        i = leaves + 2 * k + (k < len(lines) and lines[k] == anchor)
        while i:
            for lo, hi in nodes.get(i, ()):
                if lo <= t <= hi:
                    return lo, hi
            i >>= 1
        return None

    def _maximal_run(self, orientation: str, anchor: int, lo: int, hi: int) -> Tuple[str, int, int, int]:
        """The maximal camera run (orientation, anchor, lo, hi) through a
        segment on a grid line, with no record built.

        Span endpoints may fall between grid cuts; in-polygon membership is
        uniform within a unit segment, so each end first snaps outward to a
        cut.  Then each end that lies in the closed polygon moves to the far
        end of the inside run that holds it (:meth:`_inside_run`); the run
        that holds ``hi`` is looked up only if the one that holds ``lo`` does
        not.  A segment along pixel edges, as every ``path`` camera is,
        extends along the chain of slice sides on its line, with no segment
        tree built.
        """
        lines, cuts = (self.x_cuts, self.y_cuts) if orientation == VERTICAL else (self.y_cuts, self.x_cuts)
        k = bisect_left(lines, anchor)
        if k == len(lines) or lines[k] != anchor:
            raise ValueError(f"{orientation} line at {anchor} is not a grid line")
        lo = cuts[max(0, bisect_right(cuts, lo) - 1)]
        hi = cuts[min(len(cuts) - 1, bisect_left(cuts, hi))]
        first = last = self._inside_run(orientation, anchor, lo)
        if first is None or not first[0] <= hi <= first[1]:
            last = self._inside_run(orientation, anchor, hi)
        return (orientation, anchor, lo if first is None else first[0], hi if last is None else last[1])

    def contains_segment(self, orientation: str, anchor: int, lo: int, hi: int) -> bool:
        """Whether the segment (lo <= hi), on a grid line or between two,
        lies in the closed polygon: whether the inside run that holds ``lo``
        (:meth:`_inside_run`) reaches ``hi``."""
        run = self._inside_run(orientation, anchor, lo)
        return run is not None and hi <= run[1]

    def slice_dual(self, orientation: str) -> Dict[int, set]:
        """Slice ids of one segmentation, adjacent iff the slices share part
        of a side (see :func:`_side_contacts`)."""
        adj: Dict[int, set] = {i: set() for i in range(len(self._chains[orientation]))}
        for a, b in _side_contacts(self._slice_sides(orientation)):
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def is_thin(self) -> bool:
        """No pixel corner lies in the interior of the polygon."""
        for cid in range(len(self.h_supports)):
            xl, yl, xh, yh = self._pixel_rect(cid)
            for corner in ((xl, yl), (xl, yh), (xh, yl), (xh, yh)):
                if not self.on_boundary(corner):
                    return False
        return True


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def pixelate(polygon: OrthoPolygon) -> Pixelation:
    """Build the pixelation of a validated polygon.

    Only the most recent polygon is cached: repeated lookups of one polygon
    (the input of a ``path`` solve, or one polygon in several modes) hit it,
    and pixelations of throwaway polygons are not kept.
    """
    return Pixelation(polygon)


def segmentation(polygon: OrthoPolygon, orientation: str) -> List[Slice]:
    """The horizontal or vertical segmentation of the polygon."""
    pix = pixelate(polygon)
    return pix.slices_h if orientation == HORIZONTAL else pix.slices_v


def guard_segments(pix: Pixelation, orientations: Iterable[str] = (HORIZONTAL, VERTICAL)) -> List[GuardSegment]:
    wanted = set(orientations)
    return [g for g in pix.guards if g.orientation in wanted]


def hits(g: GuardSegment, cross: Cross, pix: Pixelation) -> bool:
    """Does the guard hit the cross, i.e. intersect one of its supports?"""
    supports = (cross.h_support, cross.v_support)
    return any(sid in supports for sid in pix.sigma_ids_hit(g.orientation, g.anchor, g.lo, g.hi))


def visible_region(pix: Pixelation, g: GuardSegment) -> set:
    """Pixel ids of all slices whose slice-segment the guard intersects."""
    return set(_bits(pix._segment_hit_mask(g.orientation, g.anchor, g.lo, g.hi)))


def verify_cover(pix: Pixelation, guards, xprime: Optional[Iterable[int]] = None) -> CoverageReport:
    """Check whether the guards hit every requested cross.

    Guards are segments, runs (orientation, anchor, lo, hi) or canonical
    camera ids, whose runs come from ``guard_runs`` (``ValueError`` for an
    id outside it); no record is built.  Each guard's midlines come from
    the geometric walk (:meth:`Pixelation.sigma_ids_hit`), not from the
    camera tables, and its hit set is the OR of those midlines' cross
    masks, kept per guard in key order.  Uncovered crosses are the
    requested ones left over, in ascending id order.  The certificate is
    built on first read (see :func:`_witnesses`).

    The request is every cross, with no scan, for None or the tuple of all
    cross ids that :func:`~slidecam.hitset.build_instance` hands out for
    every cross, which ``make_solution`` passes on.  Any other request is
    read id by id: ``ValueError`` for the first id outside 0..n-1.
    """
    keys = sorted(pix._camera_run(g) if isinstance(g, int) else g if isinstance(g, tuple) else g.key()
                  for g in guards)
    met = [pix.sigma_ids_hit(*key) for key in keys]
    masks = pix._slice_cross_mask
    hit_sets = []
    covered = 0
    for ids in met:
        hit = 0
        for sid in ids:
            hit |= masks[sid]
        hit_sets.append(hit)
        covered |= hit
    n = len(pix.h_supports)
    wanted = (1 << n) - 1
    if not (xprime is None or xprime is pix._all_crosses):
        wanted = 0
        for cid in xprime:
            if not 0 <= cid < n:
                raise ValueError(f"cross id {cid} is not in 0..{n - 1}")
            wanted |= 1 << cid
    return CoverageReport(uncovered=tuple(_bits(wanted & ~covered)),
                          certificate=_Certificate(pix.h_supports, pix.v_supports, keys, met,
                                                   wanted & covered),
                          hit_sets=tuple(hit_sets))


def _witnesses(hs: List[int], vs: List[int], keys, met, covered: int) -> Dict[int, tuple]:
    """Per cross of the mask ``covered``, ascending: the support through
    which it is hit and the key of the witnessing guard, the first in key
    order that meets either support, through the horizontal one if it can.
    ``hs`` and ``vs`` are the support tables, and ``met`` holds the midline
    ids of each guard of ``keys``."""
    first: Dict[int, int] = {}  # midline id -> first guard (in key order) meeting it
    for k in range(len(keys) - 1, -1, -1):
        for sid in met[k]:
            first[sid] = k
    out = {}
    for cid in _bits(covered):
        h, v = hs[cid], vs[cid]
        kh, kv = first.get(h), first.get(v)
        sid, k = (h, kh) if kv is None or (kh is not None and kh <= kv) else (v, kv)
        out[cid] = (sid, keys[k])
    return out


def segmentation_dual(polygon: OrthoPolygon, orientation: str) -> Dict[int, set]:
    """Weak dual of one segmentation: slices adjacent iff they share part of a side."""
    return pixelate(polygon).slice_dual(orientation)
