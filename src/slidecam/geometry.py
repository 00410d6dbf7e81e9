"""Exact rectilinear geometry: polygons, segmentations, pixelation, guards.

All input coordinates are integers.  Slice midlines sit on half-integer
coordinates and are stored as doubled integers (``anchor2``), so every
intersection predicate is decided with exact integer arithmetic; no
floating point is used anywhere in this module.
"""
from __future__ import annotations

import functools
import re
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter, ne
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DegenerateRing,
    HoleOutsideOuter,
    NonOrthogonalEdge,
    PolygonError,
    SelfIntersection,
)

Vertex = Tuple[int, int]
Rect = Tuple[int, int, int, int]  # (x_lo, y_lo, x_hi, y_hi)

HORIZONTAL = "H"
VERTICAL = "V"

_COORD_LIMIT = 2**31 - 1

# runs of "1" in a "0"/"1" string, and runs of 1 bytes in a 0/1 bytes string
_ONES = re.compile("1+")
_ONE_BYTES = re.compile(b"\x01+")


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


def _normalize_ring(raw: Sequence[Sequence[int]], name: str) -> List[Vertex]:
    pts: List[Vertex] = []
    try:
        for x, y in raw:
            v = (int(x), int(y))
            if v != (x, y):
                raise PolygonError(f"{name}: coordinate of ({x!r}, {y!r}) is not an integer")
            if abs(v[0]) > _COORD_LIMIT or abs(v[1]) > _COORD_LIMIT:
                raise PolygonError(f"{name}: coordinate outside 32-bit range: {v}")
            if not pts or pts[-1] != v:
                pts.append(v)
    except (TypeError, ValueError, OverflowError):
        raise PolygonError(f"{name}: not a list of [x, y] integer pairs") from None
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        raise DegenerateRing(f"{name}: fewer than 3 distinct vertices")
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a[0] != b[0] and a[1] != b[1]:
            raise NonOrthogonalEdge(f"{name}: edge {a}-{b} is not axis-parallel")
    if len(pts) < 4:
        raise DegenerateRing(f"{name}: fewer than 4 distinct vertices")
    # Merge collinear runs; a reversal (spur) means the boundary doubles back.
    # Dropping a straight-through vertex keeps the directions of both its
    # neighbours' edges, so every vertex is a turn, straight or a spur in the
    # input already: one pass drops the straight vertices up to the first spur.
    turns: List[Vertex] = []
    spur = None
    for i in range(n):
        a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
        abx, aby = b[0] - a[0], b[1] - a[1]
        bcx, bcy = c[0] - b[0], c[1] - b[1]
        if abx * bcy - aby * bcx != 0:
            turns.append(b)
        elif abx * bcx + aby * bcy < 0:
            spur = i
            break
    if len(turns) + (n - spur if spur is not None else 0) < 4:
        raise DegenerateRing(f"{name}: collapses to fewer than 4 vertices")
    if spur is not None:
        raise SelfIntersection(f"{name}: boundary doubles back at {pts[spur]}")
    if _signed_area2(turns) == 0:
        raise DegenerateRing(f"{name}: zero area")
    return turns


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


def validate_polygon(rings: Sequence[Sequence[Sequence[int]]]) -> OrthoPolygon:
    """Validate and normalize raw vertex rings into an :class:`OrthoPolygon`.

    The first ring is the outer boundary, any further rings are holes.
    Orientation is normalized (outer CCW, holes CW), collinear and duplicate
    vertices are merged and every ring is rotated to start at its smallest
    vertex so that equal polygons have identical representations.
    """
    if not rings:
        raise DegenerateRing("no rings given")
    norm = [_normalize_ring(r, f"ring {i}") for i, r in enumerate(rings)]
    outer = norm[0]
    if _signed_area2(outer) < 0:
        outer.reverse()
    holes = []
    for h in norm[1:]:
        if _signed_area2(h) > 0:
            h.reverse()
        holes.append(h)

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
        for b, (x, y) in enumerate(firsts):
            if xl < x < xh and yl < y < yh and a != b and _point_in_ring((x, y), _ring_edges(hole)[0]):
                raise HoleOutsideOuter(f"holes {a} and {b} overlap")

    return OrthoPolygon(
        outer=tuple(_rotate_to_min(outer)),
        holes=tuple(tuple(_rotate_to_min(h)) for h in holes),
    )


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
        (ax, ay), (bx, by), (cx, cy) = ring[k - 1], ring[k], ring[(k + 1) % len(ring)]
        if (bx - ax) * (cy - by) == (by - ay) * (cx - bx):
            del ring[k]
    return OrthoPolygon(outer=tuple(_rotate_to_min(ring)))


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


@dataclass(frozen=True)
class CoverageReport:
    uncovered: Tuple[int, ...]
    certificate: Dict[int, Tuple[int, Tuple[str, int, int, int]]]

    @property
    def covered(self) -> bool:
        return not self.uncovered


def _spans_by_line(edges: Iterable[Tuple[int, int, int]]) -> Dict[int, List[int]]:
    """Edges (line, lo, hi) as the sorted list [lo0, hi0, lo1, hi1, ...] per line.

    Edges of a valid polygon never touch along one line, so each list is
    strictly increasing; see :func:`_on_spans`.
    """
    out: Dict[int, List[int]] = {}
    for a, lo, hi in sorted(edges):
        out.setdefault(a, []).extend((lo, hi))
    return out


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


def _run_chains(lines: List[str]) -> List[Tuple[int, int, int, int]]:
    """Maximal chains of adjacent lines that have the same run of "1" cells.

    Each chain is (a0, a1, b0, b1): lines a0 .. a1-1 all have the run
    [b0, b1).  These are the slices cut by the rays parallel to the lines.
    Two overlapping runs of adjacent lines that differ at an end, say
    [b0, b1) and [b0', b1') with b0 < b0', have a reflex vertex on their
    shared side at b0' (three of its quadrants are inside); its ray follows
    that side across their whole overlap and splits them.  Two equal runs
    have no boundary point on their shared side, so no ray parts them.
    """
    chains = []
    open_runs: Dict[Tuple[int, int], int] = {}
    for a, line in enumerate([*lines, ""]):
        runs = {m.span(): open_runs.get(m.span(), a) for m in _ONES.finditer(line)}
        chains += [(a0, a, *run) for run, a0 in open_runs.items() if run not in runs]
        open_runs = runs
    return chains


# ---------------------------------------------------------------------------
# Pixelation
# ---------------------------------------------------------------------------

class Pixelation:
    """Both segmentations of a polygon overlaid: pixels, crosses and guards.

    Pixels are stored against a compressed grid (the vertex coordinates per
    axis); a pixel may span several grid cells, since segmentation cuts stop
    at the boundary and do not extend across the whole polygon.  Each
    labelling of the grid cells is kept once, as a column-major grid of ints
    (``grid[i][j]`` is column i, row j) with -1 for cells outside P:
    ``vslice`` and ``hslice`` hold each cell's slice ids and ``pixel`` its
    pixel id.

    The constructor builds what every solve reads: those three grids, the
    midlines (``sigmas``, indexed for :meth:`sigmas_hit`), the ``crosses``
    with each midline's cross mask, and the canonical ``guards`` with
    their hit masks, from one scan for runs of grid-line units along pixel
    edges.  What only some callers read is derived on first read and kept:
    ``pixels`` (render, :meth:`is_thin`), ``slices_v`` and ``slices_h``
    (``path``, :func:`segmentation`), ``raw_guards`` (every run with its
    hit mask; tests), and, for ``dp`` only, ``dual_edges`` (one scan for
    pixel labels that differ across a cell side, :func:`_label_edges`) and
    ``side_guards`` (per pixel, the canonical guards whose own run flanks
    it).
    """

    def __init__(self, polygon: OrthoPolygon):
        self.polygon = polygon
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        poly = self.polygon
        self.x_cuts: List[int] = sorted({x for r in poly.rings() for x, _ in r})
        self.y_cuts: List[int] = sorted({y for r in poly.rings() for _, y in r})
        self._xi = {x: i for i, x in enumerate(self.x_cuts)}
        self._yi = {y: j for j, y in enumerate(self.y_cuts)}

        vert_edges: List[Tuple[int, int, int]] = []
        horiz_edges: List[Tuple[int, int, int]] = []
        for ring in poly.rings():
            v, h = _ring_edges(ring)
            vert_edges.extend(v)
            horiz_edges.extend(h)
        self._v_spans = _spans_by_line(vert_edges)
        self._h_spans = _spans_by_line(horiz_edges)

        # Even-odd parity along a downward ray: bit i of toggles[j] flips for
        # every horizontal edge on grid line j over column i, and row j is
        # the running XOR of toggles[0..j].
        nx, ny = len(self.x_cuts) - 1, len(self.y_cuts) - 1
        toggles = [0] * ny
        for y, xlo, xhi in horiz_edges:
            j = self._yi[y]
            if j < ny:
                toggles[j] ^= (1 << self._xi[xhi]) - (1 << self._xi[xlo])
        rows = []
        acc = 0
        for t in toggles:
            acc ^= t
            rows.append(format(acc, f"0{nx}b")[::-1])
        cols = ["".join(col) for col in zip(*rows)]

        self._reflex = self._find_reflex_vertices()
        self._build_slices(cols, rows)
        self._build_pixels()
        self._build_guards()

    def _find_reflex_vertices(self) -> List[Vertex]:
        """Reflex vertices ring by ring, in ring order, holes included."""
        out = []
        for ring in self.polygon.rings():
            n = len(ring)
            for i in range(n):
                a, b, c = ring[(i - 1) % n], ring[i], ring[(i + 1) % n]
                abx, aby = b[0] - a[0], b[1] - a[1]
                bcx, bcy = c[0] - b[0], c[1] - b[1]
                if abx * bcy - aby * bcx < 0:
                    out.append(b)
        return out

    @property
    def reflex_vertices(self) -> List[Vertex]:
        return list(self._reflex)

    def on_boundary(self, pt: Vertex) -> bool:
        x, y = pt
        return _on_spans(self._v_spans.get(x, ()), y) or _on_spans(self._h_spans.get(y, ()), x)

    def _empty_grid(self) -> List[List[int]]:
        return [[-1] * (len(self.y_cuts) - 1) for _ in range(len(self.x_cuts) - 1)]

    def _build_slices(self, cols: List[str], rows: List[str]):
        """Both segmentations, read off the runs of inside cells.

        ``cols[i]`` / ``rows[j]`` spell column i / row j of the inside cells
        as "0"/"1" strings.  A vertical slice is a maximal chain of adjacent
        columns with the same run [j0, j1) (see :func:`_run_chains`), and a
        horizontal slice is the same for rows.  Slices are numbered by their
        grid-index box (i0, j0, i1, j1), which orders them as their rects.
        """
        xc, yc = self.x_cuts, self.y_cuts
        self._boxes: Dict[str, List[Tuple[int, int, int, int]]] = {
            VERTICAL: sorted((i0, j0, i1, j1) for i0, i1, j0, j1 in _run_chains(cols)),
            HORIZONTAL: sorted((i0, j0, i1, j1) for j0, j1, i0, i1 in _run_chains(rows))}
        self.vslice: List[List[int]] = self._empty_grid()
        self.hslice: List[List[int]] = self._empty_grid()
        # horizontal segment ids follow the vertical ones
        self.sigmas: List[SliceSegment] = []
        for o, grid in ((VERTICAL, self.vslice), (HORIZONTAL, self.hslice)):
            for sid, (i0, j0, i1, j1) in enumerate(self._boxes[o]):
                xl, yl, xh, yh = xc[i0], yc[j0], xc[i1], yc[j1]
                a2, lo, hi = (xl + xh, yl, yh) if o == VERTICAL else (yl + yh, xl, xh)
                self.sigmas.append(SliceSegment(id=len(self.sigmas), orientation=o,
                                                anchor2=a2, lo=lo, hi=hi))
                for col in grid[i0:i1]:
                    col[j0:j1] = [sid] * (j1 - j0)
        # per orientation: the anchor2 values in order, and for each the
        # midlines on it sorted by span, with their los and his for bisect;
        # midlines on one anchor2 have disjoint closed spans (see sigmas_hit)
        nv = len(self._boxes[VERTICAL])
        self._sigma_lines: Dict[str, Tuple[List[int], List[tuple]]] = {}
        for o, segs in ((VERTICAL, self.sigmas[:nv]), (HORIZONTAL, self.sigmas[nv:])):
            segs = sorted(segs, key=attrgetter("anchor2", "lo"))
            keys, lines = [], []
            for a, line in groupby(segs, key=attrgetter("anchor2")):
                line = list(line)
                keys.append(a)
                lines.append(([s.lo for s in line], [s.hi for s in line], line))
            self._sigma_lines[o] = (keys, lines)

    def _build_pixels(self):
        # cells per (vertical, horizontal) slice pair; (-1, -1) is outside P
        cells: Counter = Counter()
        for vcol, hcol in zip(self.vslice, self.hslice):
            cells.update(zip(vcol, hcol))
        cells.pop((-1, -1), None)

        xc, yc = self.x_cuts, self.y_cuts
        nv = len(self._boxes[VERTICAL])
        ids = {vh: pid for pid, vh in enumerate(sorted(cells))}
        self.crosses: List[Cross] = []
        for (v, h), pid in ids.items():
            i0, j0, i1, j1 = self._pixel_box(v, h)
            if cells[v, h] != (i1 - i0) * (j1 - j0):
                raise AssertionError("pixel does not match its slice intersection")
            sv, sh = self.sigmas[v], self.sigmas[nv + h]
            # the two midlines must cross inside the closed pixel
            if not (2 * xc[i0] <= sv.anchor2 <= 2 * xc[i1] and 2 * yc[j0] <= sh.anchor2 <= 2 * yc[j1]):
                raise AssertionError("slice-segments do not cross inside their pixel")
            self.crosses.append(Cross(pixel_id=pid, h_support=sh.id, v_support=sv.id,
                                      point2=(sv.anchor2, sh.anchor2)))
        ids[-1, -1] = -1
        self.pixel: List[List[int]] = [list(map(ids.__getitem__, zip(vcol, hcol)))
                                       for vcol, hcol in zip(self.vslice, self.hslice)]

        self._slice_cross_mask: List[int] = [0] * len(self.sigmas)
        for cr in self.crosses:
            self._slice_cross_mask[cr.v_support] |= 1 << cr.pixel_id
            self._slice_cross_mask[cr.h_support] |= 1 << cr.pixel_id

    def _pixel_box(self, v: int, h: int) -> Tuple[int, int, int, int]:
        """Grid-index box (i0, j0, i1, j1) of the pixel of slices v and h."""
        a, b = self._boxes[VERTICAL][v], self._boxes[HORIZONTAL][h]
        return max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3])

    def _build_guards(self):
        # A unit of grid line lies on a pixel edge when the cells on its two
        # sides have different pixel ids.  Vertical grid lines separate
        # columns of cells, horizontal ones rows; with an outside line padded
        # on at both ends, grid line k runs between lines k and k + 1.
        self._lines: Dict[str, Tuple[list, Dict[int, int], List[int]]] = {}
        # kept by extend_to_maximal: inside runs per line, cameras per span
        self._inside_runs: Dict[Tuple[str, int], List[int]] = {}
        self._maximal: Dict[Tuple[str, int, int, int], GuardSegment] = {}
        self._runs: List[Tuple[str, int, int, int]] = []
        for o, lines, index, cuts in ((VERTICAL, self.pixel, self._xi, self.y_cuts),
                                      (HORIZONTAL, list(zip(*self.pixel)), self._yi, self.x_cuts)):
            outside = (-1,) * (len(cuts) - 1)
            padded = [outside, *lines, outside]
            self._lines[o] = (padded, index, cuts)
            for anchor, k in index.items():
                for m in _ONE_BYTES.finditer(bytes(map(ne, padded[k], padded[k + 1]))):
                    start, t = m.span()
                    self._runs.append((o, anchor, cuts[start], cuts[t]))
        self._runs.sort()

        # the first run in key order per (orientation, hit mask) is the guard
        first: Dict[Tuple[str, int], Tuple[str, int, int, int]] = {}
        for run in self._runs:
            first.setdefault((run[0], self._segment_hit_mask(*run)), run)
        self.guards: List[GuardSegment] = [GuardSegment(*run, id=i, hit_set=mask)
                                           for i, ((_, mask), run) in enumerate(first.items())]

    # -- products derived on first read -------------------------------------

    @functools.cached_property
    def pixels(self) -> List[Pixel]:
        xc, yc = self.x_cuts, self.y_cuts
        nv = len(self._boxes[VERTICAL])
        out = []
        for cr in self.crosses:
            v, h = cr.v_support, cr.h_support - nv
            i0, j0, i1, j1 = self._pixel_box(v, h)
            out.append(Pixel(id=cr.pixel_id, rect=(xc[i0], yc[j0], xc[i1], yc[j1]),
                             v_slice=v, h_slice=h))
        return out

    def _slices(self, orientation: str) -> List[Slice]:
        xc, yc = self.x_cuts, self.y_cuts
        first = 0 if orientation == VERTICAL else len(self._boxes[VERTICAL])
        return [Slice(id=sid, orientation=orientation, rect=(xc[i0], yc[j0], xc[i1], yc[j1]),
                      segment=self.sigmas[first + sid])
                for sid, (i0, j0, i1, j1) in enumerate(self._boxes[orientation])]

    @functools.cached_property
    def slices_v(self) -> List[Slice]:
        return self._slices(VERTICAL)

    @functools.cached_property
    def slices_h(self) -> List[Slice]:
        return self._slices(HORIZONTAL)

    @functools.cached_property
    def raw_guards(self) -> List[GuardSegment]:
        """Every maximal run along pixel edges, in key order, with its hit mask."""
        return [GuardSegment(*run, hit_set=self._segment_hit_mask(*run)) for run in self._runs]

    @functools.cached_property
    def dual_edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(_label_edges(self.pixel)))

    @functools.cached_property
    def side_guards(self) -> List[List[int]]:
        """Per pixel, the canonical guards whose own run (not those of
        parallel runs merged into it) lies along one of its sides."""
        out: List[List[int]] = [[] for _ in self.crosses]
        for g in self.guards:
            padded, index, cuts = self._lines[g.orientation]
            k, start, t = index[g.anchor], bisect_left(cuts, g.lo), bisect_left(cuts, g.hi)
            run = {*padded[k][start:t], *padded[k + 1][start:t]}
            run.discard(-1)
            for pid in run:
                out[pid].append(g.id)
        return out

    def sigmas_hit(self, orientation: str, anchor: int, lo: int, hi: int) -> List[SliceSegment]:
        """Slice-segments that the closed grid-line segment intersects.

        Bisection in the per-orientation index finds the perpendicular
        midlines' anchor2 values in [2 lo, 2 hi] and the segment's own line
        2 anchor.  Midlines that share one anchor2 have nested extents
        across it and disjoint interiors, so their closed spans along it are
        disjoint and sorted by lo and hi alike: on each perpendicular line,
        bisection finds the one midline whose span can contain ``anchor``,
        and on the own line the run of midlines whose spans overlap
        [lo, hi].  It is the only segment-versus-midline predicate.
        """
        other = VERTICAL if orientation == HORIZONTAL else HORIZONTAL
        keys, lines = self._sigma_lines[other]
        out = []
        for los, his, line in lines[bisect_left(keys, 2 * lo):bisect_right(keys, 2 * hi)]:
            k = bisect_right(los, anchor) - 1
            if k >= 0 and his[k] >= anchor:
                out.append(line[k])
        keys, lines = self._sigma_lines[orientation]
        k = bisect_left(keys, 2 * anchor)
        if k < len(keys) and keys[k] == 2 * anchor:
            los, his, line = lines[k]
            out += line[bisect_left(his, lo):bisect_right(los, hi)]
        return out

    def _segment_hit_mask(self, orientation: str, anchor: int, lo: int, hi: int) -> int:
        mask = 0
        for seg in self.sigmas_hit(orientation, anchor, lo, hi):
            mask |= self._slice_cross_mask[seg.id]
        return mask

    # -- lookups ------------------------------------------------------------

    def extend_to_maximal(self, orientation: str, anchor: int, lo: int, hi: int) -> GuardSegment:
        """Extend a grid-line segment inside the closed polygon as far as possible.

        Span endpoints may fall between grid cuts; in-polygon membership is
        uniform within a unit segment, so snapping outward stays inside.  A
        unit is inside when a cell on either side of it is.  Each end then
        moves to the far end of the line's inside run that holds the unit
        beyond it, found by bisection.  A line's inside runs, as [start0,
        end0, start1, end1, ...] over its units, are read off its two
        flanking lines of cells on the line's first use and kept.  The
        camera on each maximal span, with its hit mask, is built once and
        kept too: many segments extend to the same one (a comb's spine).
        """
        padded, index, cuts = self._lines[orientation]
        if anchor not in index:
            raise ValueError(f"{orientation} line at {anchor} is not a grid line")
        runs = self._inside_runs.get((orientation, anchor))
        if runs is None:
            k = index[anchor]
            inside = bytes(map(ne, map(max, padded[k], padded[k + 1]), padded[0]))
            runs = [i for m in _ONE_BYTES.finditer(inside) for i in m.span()]
            self._inside_runs[orientation, anchor] = runs
        tlo = max(0, bisect_right(cuts, lo) - 1)
        thi = min(len(cuts) - 1, bisect_left(cuts, hi))
        # unit u is inside iff an odd number of run ends are <= u
        i = bisect_right(runs, tlo - 1)
        if i & 1:
            tlo = runs[i - 1]
        i = bisect_right(runs, thi)
        if i & 1:
            thi = runs[i]
        key = (orientation, anchor, cuts[tlo], cuts[thi])
        camera = self._maximal.get(key)
        if camera is None:
            camera = self._maximal[key] = GuardSegment(
                orientation=orientation, anchor=anchor, lo=key[2], hi=key[3],
                id=-1, hit_set=self._segment_hit_mask(*key))
        return camera

    def contains_segment(self, orientation: str, anchor: int, lo: int, hi: int) -> bool:
        """Whether the segment lies in the closed polygon: each unit of its span
        (its point, if of length 0) needs an inside cell beside it, on either
        side of a grid line, or in the line of cells containing it otherwise."""
        padded, index, cuts = self._lines[orientation]
        k = bisect_left(self.x_cuts if orientation == VERTICAL else self.y_cuts, anchor)
        beside = padded[k:k + 1 + (anchor in index)]
        t0, t1 = bisect_right(cuts, lo) - 1, bisect_left(cuts, hi)
        found = [0 <= t < len(cuts) - 1 and any(line[t] >= 0 for line in beside)
                 for t in (range(t1 - 1, t0 + 1) if lo == hi else range(t0, t1))]
        return any(found) if lo == hi else all(found)

    def slice_dual(self, orientation: str) -> Dict[int, set]:
        """Slice ids of one segmentation, adjacent iff the slices share part of a side."""
        grid = self.vslice if orientation == VERTICAL else self.hslice
        adj: Dict[int, set] = {i: set() for i in range(len(self._boxes[orientation]))}
        for a, b in _label_edges(grid):
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def is_thin(self) -> bool:
        """No pixel corner lies in the interior of the polygon."""
        for p in self.pixels:
            xl, yl, xh, yh = p.rect
            for corner in ((xl, yl), (xl, yh), (xh, yl), (xh, yh)):
                if not self.on_boundary(corner):
                    return False
        return True


def _label_edges(grid: List[List[int]]) -> set:
    """Pairs (a, b), a < b, of different labels >= 0 on side-adjacent cells."""
    pairs = set()
    for col, nxt in zip(grid, grid[1:]):
        pairs.update(zip(col, nxt))
    for col in grid:
        pairs.update(zip(col, col[1:]))
    return {(a, b) if a < b else (b, a) for a, b in pairs if a != b and a >= 0 and b >= 0}


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
    return any(s.id in supports for s in pix.sigmas_hit(g.orientation, g.anchor, g.lo, g.hi))


def visible_region(pix: Pixelation, g: GuardSegment) -> set:
    """Pixel ids of all slices whose slice-segment the guard intersects."""
    return set(_bits(pix._segment_hit_mask(g.orientation, g.anchor, g.lo, g.hi)))


def _resolve_guards(pix: Pixelation, guards) -> List[GuardSegment]:
    out = []
    for g in guards:
        out.append(pix.guards[g] if isinstance(g, int) else g)
    return sorted(out, key=GuardSegment.key)


def verify_cover(pix: Pixelation, guards, xprime: Optional[Iterable[int]] = None) -> CoverageReport:
    """Check whether the guards hit every requested cross.

    For each covered cross the certificate records the support slice-segment
    through which it is hit and the witnessing guard.  Uncovered crosses are
    reported in ascending id order.
    """
    segs = _resolve_guards(pix, guards)
    first: Dict[int, int] = {}  # slice-segment id -> first guard (in key order) meeting it
    for k in range(len(segs) - 1, -1, -1):
        g = segs[k]
        for seg in pix.sigmas_hit(g.orientation, g.anchor, g.lo, g.hi):
            first[seg.id] = k
    ids = sorted(xprime) if xprime is not None else range(len(pix.crosses))
    uncovered = []
    certificate = {}
    for cid in ids:
        cross = pix.crosses[cid]
        kh, kv = first.get(cross.h_support), first.get(cross.v_support)
        if kh is None and kv is None:
            uncovered.append(cid)
            continue
        # the first guard hitting either support witnesses, through h if it can
        sid, k = ((cross.h_support, kh) if kv is None or (kh is not None and kh <= kv)
                  else (cross.v_support, kv))
        certificate[cid] = (sid, segs[k].key())
    return CoverageReport(uncovered=tuple(uncovered), certificate=certificate)


def segmentation_dual(polygon: OrthoPolygon, orientation: str) -> Dict[int, set]:
    """Weak dual of one segmentation: slices adjacent iff they share part of a side."""
    return pixelate(polygon).slice_dual(orientation)
