"""The indexed geometry and mask-native instance against the plain loops they replace.

The reference loops below are the straightforward versions: a per-cell ray
cast for the inside cells, slices from reflex-vertex cut rays marched cell by
cell and glued by union-find, pixels grouped from those slices' cells, both
dual graphs from a neighbour loop over every cell, an all-pairs edge contact
test with every hole vertex checked for containment, a linear
``on_boundary`` scan, guard runs from one mirrored loop per orientation,
run hit masks from a sweep over the perpendicular midlines,
lifted side guards looked up among the runs on each pixel side's line,
``extend_to_maximal`` as a cell walk in one mirrored branch per orientation,
a line's inside spans from a scan over every slice of its orientation,
a scan over every slice-segment for each guard, the auxiliary graph H
from a walk over each guard's midlines rather than from S, a guard-by-guard
``verify_cover``, an O(crosses * guards) hitting-set transpose, a greedy
that scans every camera for each pick, a ring
normalizer that rescans from the start after each merged vertex, one that
makes a pass per check without collecting edges, a slice sweep that
rebuilds the runs an edge touches from list slices (and validation built
on those two), and a
``path_guard_steps`` that re-validates, re-pixelates and re-segments every
remainder, traces each piece unit step by unit step and pixelates each piece
to find its camera.  The random-shape generator validates every notched ring
in full, and the spiral is traced cell by cell.  The net finders sample over the per-cross
guard sets in two copies of one loop (one for orientation parts) with their
own budget formula, the reweighting loop verifies each net geometrically,
min-fill recounts every vertex's fill at each elimination, each cross's
leaf bag is placed by a scan over every bag, and the DP keeps one tuple
entry per bag vertex on a binary nice decomposition, whose builder is
itself checked against one built by recursion, while the bag-by-bag DP
keeps a back-pointer per state and recovers its guards by a traceback.
``CellPixelation`` builds the pixelation by labelling every cell of the
compressed grid, as the library did before its sweeps, and every product
of the sweeps is compared with it, at sizes the per-cell loops cannot
reach too.  ``GridPixelation`` adds to the library's pixelation what only
tests read: the cell grids and every run along pixel edges.  Every output
must agree exactly, the traceback DP's picks and tables included; the
tuple-state DP's guard sets may differ between equal-cost optima, so there
the optimum cost must agree.
"""
import bisect
import collections
import enum
import functools
import itertools
import math
import operator
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

import slidecam as sc
from slidecam.approx import DEFAULT_NET_CONSTANT, NetRequest, _as_fraction, heavy_sets, is_net
from slidecam.errors import HoleOutsideOuter, SelfIntersection
from slidecam.exact import make_solution
from slidecam import gallery
from slidecam.gallery import _boundary_corners
from slidecam.geometry import (
    _COORD_LIMIT,
    HORIZONTAL,
    VERTICAL,
    Pixel,
    _group_spans,
    _line_spans,
    _normalize_ring,
    _point_in_ring,
    _raise_fault,
    _ring_edges,
    _rotate_to_min,
    _signed_area2,
    _sweep_slices,
    close_cut_arc,
)
from slidecam.treewidth import (
    _bag_dp,
    _numbered,
    _slots,
    _with_crosses,
    decompose,
    dual_graph,
    is_tree,
    lift_decomposition,
    validate_decomposition,
)

from conftest import (extend_to_maximal, oriented_instance, ref_path_order, reflex_vertices,
                      support_of, with_leaf_bags)
from test_approx import weighted_instances
from test_fuzz import gen_random_holed
from test_gallery import _spiral_cells, enumerate_small_polygons, staircase_polygon

# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def _loop_edges_touch(e1, e2) -> bool:
    o1, a1, lo1, hi1 = e1
    o2, a2, lo2, hi2 = e2
    if o1 == o2:
        return a1 == a2 and max(lo1, lo2) <= min(hi1, hi2)
    if o1 == VERTICAL:
        return lo1 <= a2 <= hi1 and lo2 <= a1 <= hi2
    return lo2 <= a1 <= hi2 and lo1 <= a2 <= hi1


def loop_validate(rings):
    """validate_polygon with the O(E^2) all-pairs contact test."""
    if not rings:
        raise sc.DegenerateRing("no rings given")
    norm = [loop_normalize_ring(r, f"ring {i}")[0] for i, r in enumerate(rings)]
    outer = norm[0]
    if _signed_area2(outer) < 0:
        outer.reverse()
    holes = []
    for h in norm[1:]:
        if _signed_area2(h) > 0:
            h.reverse()
        holes.append(h)
    all_edges = []
    for ridx, ring in enumerate([outer, *holes]):
        n = len(ring)
        for i in range(n):
            (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
            if x1 == x2:
                e = (VERTICAL, x1, min(y1, y2), max(y1, y2))
            else:
                e = (HORIZONTAL, y1, min(x1, x2), max(x1, x2))
            all_edges.append((ridx, i, n, e))
    for i in range(len(all_edges)):
        r1, i1, n1, e1 = all_edges[i]
        for j in range(i + 1, len(all_edges)):
            r2, i2, n2, e2 = all_edges[j]
            if r1 == r2 and (i2 - i1) % n1 in (1, n1 - 1):
                continue
            if _loop_edges_touch(e1, e2):
                if r1 == r2:
                    raise SelfIntersection(f"ring {r1}: edges {i1} and {i2} intersect")
                raise HoleOutsideOuter(f"rings {r1} and {r2} touch or overlap")
    outer_vert, _ = _ring_edges(outer)
    for hidx, hole in enumerate(holes):
        if not all(_point_in_ring(v, outer_vert) for v in hole):
            raise HoleOutsideOuter(f"hole {hidx} is not strictly inside the outer ring")
    for a in range(len(holes)):
        va, _ = _ring_edges(holes[a])
        for b in range(len(holes)):
            if a != b and any(_point_in_ring(v, va) for v in holes[b]):
                raise HoleOutsideOuter(f"holes {a} and {b} overlap")
    return sc.OrthoPolygon(outer=tuple(_rotate_to_min(outer)),
                           holes=tuple(tuple(_rotate_to_min(h)) for h in holes))


def loop_inside(pix):
    """Per-cell ray cast over every vertical edge: O(cells * edges)."""
    vert = [e for ring in pix.polygon.rings() for e in _ring_edges(ring)[0]]
    out = []
    for i in range(len(pix.x_cuts) - 1):
        cx2 = pix.x_cuts[i] + pix.x_cuts[i + 1]
        col = []
        for j in range(len(pix.y_cuts) - 1):
            cy2 = pix.y_cuts[j] + pix.y_cuts[j + 1]
            cnt = sum(1 for x, ylo, yhi in vert if 2 * x > cx2 and 2 * ylo < cy2 < 2 * yhi)
            col.append(cnt % 2 == 1)
        out.append(col)
    return out


def loop_on_boundary(poly, pt) -> bool:
    x, y = pt
    for ring in poly.rings():
        vert, horiz = _ring_edges(ring)
        if any(x == ex and ylo <= y <= yhi for ex, ylo, yhi in vert):
            return True
        if any(y == ey and xlo <= x <= xhi for ey, xlo, xhi in horiz):
            return True
    return False


def record_is_thin(pix) -> bool:
    """``is_thin`` over the ``pixels`` records: no corner of a pixel's rect
    lies in the interior of the polygon."""
    return all(pix.on_boundary(corner) for p in pix.pixels
               for corner in itertools.product(p.rect[0::2], p.rect[1::2]))


def _grid_cells(grid):
    """A column-major label grid as {(i, j): label} over its cells >= 0."""
    return {(i, j): v for i, col in enumerate(grid) for j, v in enumerate(col) if v >= 0}


def _loop_cell_inside(pix, i, j):
    return 0 <= i < len(pix.pixel) and 0 <= j < len(pix.pixel[0]) and pix.pixel[i][j] >= 0


def loop_cuts(pix, vertical):
    """Cut rays: each reflex vertex's axis edge extended inward, cell by cell.

    Vertical cuts are (x, y_lo, y_hi), horizontal ones (y, x_lo, x_hi).
    """
    xi = {x: i for i, x in enumerate(pix.x_cuts)}
    yi = {y: j for j, y in enumerate(pix.y_cuts)}
    triples = [(ring[k - 1], v, ring[(k + 1) % len(ring)])
               for ring in pix.polygon.rings() for k, v in enumerate(ring)]
    cuts = []
    for a, v, c in triples:
        if (v[0] - a[0]) * (c[1] - v[1]) - (v[1] - a[1]) * (c[0] - v[0]) >= 0:
            continue  # convex: only reflex vertices cast rays
        ix, iy = xi[v[0]], yi[v[1]]
        if vertical:
            # continue the incoming edge if it is vertical, else extend the outgoing one back
            d = (1 if v[1] > a[1] else -1) if a[0] == v[0] else (1 if v[1] > c[1] else -1)
            while True:
                j = iy if d > 0 else iy - 1
                if not (0 <= j < len(pix.y_cuts) - 1):
                    break
                if not (_loop_cell_inside(pix, ix - 1, j) and _loop_cell_inside(pix, ix, j)):
                    break
                iy += d
                if loop_on_boundary(pix.polygon, (v[0], pix.y_cuts[iy])):
                    break
            end = pix.y_cuts[iy]
            if end != v[1]:
                cuts.append((v[0], min(v[1], end), max(v[1], end)))
        else:
            d = (1 if v[0] > a[0] else -1) if a[1] == v[1] else (1 if v[0] > c[0] else -1)
            while True:
                i = ix if d > 0 else ix - 1
                if not (0 <= i < len(pix.x_cuts) - 1):
                    break
                if not (_loop_cell_inside(pix, i, iy - 1) and _loop_cell_inside(pix, i, iy)):
                    break
                ix += d
                if loop_on_boundary(pix.polygon, (pix.x_cuts[ix], v[1])):
                    break
            end = pix.x_cuts[ix]
            if end != v[0]:
                cuts.append((v[1], min(v[0], end), max(v[0], end)))
    return cuts


def loop_slices(pix, vertical):
    """One segmentation as (slices, cell -> slice id), by union-find over cells.

    Neighbouring inside cells are glued unless a cut ray covers their shared
    side; each component must be a rectangle.  Slices are numbered by sorted
    rect, and horizontal slice-segment ids follow the ``len(pix.slices_v)``
    vertical ones.
    """
    cuts_at = {}
    for a, lo, hi in loop_cuts(pix, vertical):
        cuts_at.setdefault(a, []).append((lo, hi))

    def blocked(a, lo, hi):
        return any(clo <= lo and hi <= chi for clo, chi in cuts_at.get(a, ()))

    xc, yc = pix.x_cuts, pix.y_cuts
    cells = [(i, j) for i in range(len(xc) - 1) for j in range(len(yc) - 1)
             if _loop_cell_inside(pix, i, j)]
    parent = {c: c for c in cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for i, j in cells:
        if (i, j + 1) in parent and (vertical or not blocked(yc[j + 1], xc[i], xc[i + 1])):
            parent[find((i, j))] = find((i, j + 1))
        if (i + 1, j) in parent and (not vertical or not blocked(xc[i + 1], yc[j], yc[j + 1])):
            parent[find((i, j))] = find((i + 1, j))
    comps = {}
    for c in cells:
        comps.setdefault(find(c), []).append(c)
    rects = []
    for comp in comps.values():
        xl, xh = min(xc[i] for i, _ in comp), max(xc[i + 1] for i, _ in comp)
        yl, yh = min(yc[j] for _, j in comp), max(yc[j + 1] for _, j in comp)
        area = sum((xc[i + 1] - xc[i]) * (yc[j + 1] - yc[j]) for i, j in comp)
        if area != (xh - xl) * (yh - yl):
            raise AssertionError("segmentation produced a non-rectangular slice")
        rects.append(((xl, yl, xh, yh), comp))
    rects.sort(key=lambda rc: rc[0])

    slices, which = [], {}
    first = 0 if vertical else len(pix.slices_v)
    for sid, ((xl, yl, xh, yh), comp) in enumerate(rects):
        if vertical:
            seg = sc.SliceSegment(id=sid, orientation=VERTICAL, anchor2=xl + xh, lo=yl, hi=yh)
        else:
            seg = sc.SliceSegment(id=first + sid, orientation=HORIZONTAL,
                                  anchor2=yl + yh, lo=xl, hi=xh)
        slices.append(sc.Slice(id=sid, orientation=seg.orientation,
                               rect=(xl, yl, xh, yh), segment=seg))
        which.update((c, sid) for c in comp)
    return slices, which


def loop_pixels(pix, vwhich, hwhich):
    """Pixels as (pixels, cell -> pixel id): inside cells grouped by slice pair.

    Groups are numbered by sorted (vertical, horizontal) slice pair, and
    each must fill the bounding box of its cells.
    """
    xc, yc = pix.x_cuts, pix.y_cuts
    groups = {}
    for c, v in vwhich.items():
        groups.setdefault((v, hwhich[c]), []).append(c)
    pixels, which = [], {}
    for pid, ((v, h), comp) in enumerate(sorted(groups.items())):
        i0, i1 = min(i for i, _ in comp), max(i for i, _ in comp) + 1
        j0, j1 = min(j for _, j in comp), max(j for _, j in comp) + 1
        assert len(comp) == (i1 - i0) * (j1 - j0), "pixel is not a rectangle of cells"
        pixels.append(Pixel(id=pid, rect=(xc[i0], yc[j0], xc[i1], yc[j1]), v_slice=v, h_slice=h))
        which.update((c, pid) for c in comp)
    return pixels, which


def loop_cell_adjacency(which):
    """Label pairs (a, b), a < b, met across a cell side: a neighbour loop per cell."""
    edges = set()
    for (i, j), a in which.items():
        for nb in ((i + 1, j), (i, j + 1)):
            b = which.get(nb, a)
            if b != a:
                edges.add((min(a, b), max(a, b)))
    return edges


def loop_slice_dual(pix, vertical):
    which = loop_slices(pix, vertical)[1]
    adj = {i: set() for i in range(len(pix.slices_v if vertical else pix.slices_h))}
    for a, b in loop_cell_adjacency(which):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def loop_side_guards(pix):
    """Per pixel, the canonical guards whose own run contains one of its sides.

    Each side is looked up among the raw runs on its line; the run's
    canonical guard (the one with its orientation and hit set) counts only
    when that guard's segment is the run itself.
    """
    runs_by_line = {}
    for g in pix.raw_guards:
        runs_by_line.setdefault((g.orientation, g.anchor), []).append(g)
    canonical = {(g.orientation, g.hit_set): g for g in pix.guards}
    out = []
    for px in pix.pixels:
        xl, yl, xh, yh = px.rect
        gids = set()
        for o, a, lo, hi in ((HORIZONTAL, yl, xl, xh), (HORIZONTAL, yh, xl, xh),
                             (VERTICAL, xl, yl, yh), (VERTICAL, xh, yl, yh)):
            run, = [r for r in runs_by_line[(o, a)] if r.lo <= lo and hi <= r.hi]
            g = canonical[(run.orientation, run.hit_set)]
            if g.key() == run.key():
                gids.add(g.id)
        out.append(sorted(gids))
    return out


def loop_lift(td, H, pix):
    """lift_decomposition with the side guards looked up by loop_side_guards
    and each pixel's supports read from its Pixel and Slice records."""
    side = loop_side_guards(pix)
    bags = []
    for bag in td.bags:
        items = set()
        for pid in bag:
            px = pix.pixels[pid]
            items |= {("s", pix.slices_v[px.v_slice].segment.id),
                      ("s", pix.slices_h[px.h_slice].segment.id)}
            if pid in H.xprime:
                items.add(("c", pid))
            items |= {("g", gid) for gid in side[pid] if gid in H.universe}
        bags.append(frozenset(items))
    return bags


def loop_auxiliary_graph(pix, xprime=None, gammaprime=None):
    """build_auxiliary_graph as a walk of its own: each requested cross
    linked to its two supports, each allowed guard to the midlines
    ``sigma_ids_hit`` finds on its run, and a check that every cross has
    exactly two midline neighbours and no guard neighbour."""
    xp = tuple(sorted(xprime)) if xprime is not None else tuple(range(len(pix.h_supports)))
    gp = tuple(sorted(gammaprime)) if gammaprime is not None else tuple(
        range(len(pix.guard_masks)))
    sigma_ids = tuple(range(len(pix._slice_cross_mask)))
    adj = {}

    def link(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    for s in sigma_ids:
        adj.setdefault(("s", s), set())
    for c in xp:
        link(("c", c), ("s", pix.h_supports[c]))
        link(("c", c), ("s", pix.v_supports[c]))
    for g in gp:
        adj.setdefault(("g", g), set())
        for s in pix.sigma_ids_hit(*pix.guard_runs[g]):
            link(("g", g), ("s", s))
    for c in xp:
        deg = sum(1 for v in adj[("c", c)] if v[0] == "s")
        if deg != 2 or any(v[0] == "g" for v in adj[("c", c)]):
            raise AssertionError("auxiliary graph is not tripartite as expected")
    return sc.hitset.AuxiliaryGraph(pix=pix, xprime=xp, sigma_ids=sigma_ids, universe=gp,
                                    adj={u: frozenset(v) for u, v in adj.items()})


def loop_inside_spans(pix, orientation, anchor):
    """The merged spans of the slices of one orientation whose closed range
    across holds the line at ``anchor``, by one pass over all of them."""
    spans = sorted((lo, hi) for a0, lo, a1, hi in pix._chains[orientation] if a0 <= anchor <= a1)
    runs = []
    for lo, hi in spans:
        if runs and lo <= runs[-1]:
            runs[-1] = max(runs[-1], hi)
        else:
            runs += [lo, hi]
    return runs


def loop_extend_to_maximal(pix, inside, orientation, anchor, lo, hi):
    """extend_to_maximal as a cell walk, one mirrored branch per orientation."""
    def cell(i, j):
        return 0 <= i < len(inside) and 0 <= j < len(inside[0]) and inside[i][j]

    xc, yc = pix.x_cuts, pix.y_cuts
    if orientation == HORIZONTAL:
        if anchor not in yc:
            raise ValueError("not a grid line")
        j = yc.index(anchor)
        ilo = max(0, max((k for k, x in enumerate(xc) if x <= lo), default=0))
        ihi = min(len(xc) - 1, min((k for k, x in enumerate(xc) if x >= hi), default=len(xc)))
        while ilo > 0 and (cell(ilo - 1, j - 1) or cell(ilo - 1, j)):
            ilo -= 1
        while ihi < len(xc) - 1 and (cell(ihi, j - 1) or cell(ihi, j)):
            ihi += 1
        lo2, hi2 = xc[ilo], xc[ihi]
    else:
        if anchor not in xc:
            raise ValueError("not a grid line")
        i = xc.index(anchor)
        jlo = max(0, max((k for k, y in enumerate(yc) if y <= lo), default=0))
        jhi = min(len(yc) - 1, min((k for k, y in enumerate(yc) if y >= hi), default=len(yc)))
        while jlo > 0 and (cell(i - 1, jlo - 1) or cell(i, jlo - 1)):
            jlo -= 1
        while jhi < len(yc) - 1 and (cell(i - 1, jhi) or cell(i, jhi)):
            jhi += 1
        lo2, hi2 = yc[jlo], yc[jhi]
    mask = 0
    for seg in loop_sigmas_hit(pix, sc.GuardSegment(orientation, anchor, lo2, hi2)):
        mask |= pix._slice_cross_mask[seg.id]
    return sc.GuardSegment(orientation=orientation, anchor=anchor, lo=lo2, hi=hi2, hit_set=mask)


def loop_segment_intersects_sigma(orientation, anchor, lo, hi, seg) -> bool:
    """Closed intersection between a grid-line segment and a slice-segment."""
    if orientation != seg.orientation:
        # perpendicular: compare the anchor against the other's span
        return (2 * seg.lo <= 2 * anchor <= 2 * seg.hi
                and 2 * lo <= seg.anchor2 <= 2 * hi)
    return 2 * anchor == seg.anchor2 and max(2 * lo, 2 * seg.lo) <= min(2 * hi, 2 * seg.hi)


def loop_sigmas_hit(pix, g):
    return [s for s in pix.sigmas
            if loop_segment_intersects_sigma(g.orientation, g.anchor, g.lo, g.hi, s)]


def loop_raw_guards(pix):
    """Maximal pixel-edge runs, one mirrored loop per orientation, as sorted keys."""
    cell_pixel = _grid_cells(pix.pixel)

    def edge_unit(orientation, line_idx, cell_idx):
        if orientation == HORIZONTAL:
            below, above = (cell_idx, line_idx - 1), (cell_idx, line_idx)
        else:
            below, above = (line_idx - 1, cell_idx), (line_idx, cell_idx)
        b_in, a_in = below in cell_pixel, above in cell_pixel
        if not (b_in or a_in):
            return False
        return not (b_in and a_in and cell_pixel[below] == cell_pixel[above])

    raw = []
    nx, ny = len(pix.x_cuts) - 1, len(pix.y_cuts) - 1
    for j in range(len(pix.y_cuts)):
        run = None
        for i in range(nx + 1):
            ok = i < nx and edge_unit(HORIZONTAL, j, i)
            if ok and run is None:
                run = i
            elif not ok and run is not None:
                raw.append((HORIZONTAL, pix.y_cuts[j], pix.x_cuts[run], pix.x_cuts[i]))
                run = None
    for i in range(len(pix.x_cuts)):
        run = None
        for j in range(ny + 1):
            ok = j < ny and edge_unit(VERTICAL, i, j)
            if ok and run is None:
                run = j
            elif not ok and run is not None:
                raw.append((VERTICAL, pix.x_cuts[i], pix.y_cuts[run], pix.y_cuts[j]))
                run = None
    return sorted(raw)


_ONES = re.compile("1+")
_ONE_BYTES = re.compile(b"\x01+")


def cell_run_chains(lines):
    """Maximal chains of adjacent lines of cells that have the same run of "1"
    cells, as (a0, a1, b0, b1): lines a0 .. a1-1 all have the run [b0, b1)."""
    chains = []
    open_runs = {}
    for a, line in enumerate([*lines, ""]):
        runs = {m.span(): open_runs.get(m.span(), a) for m in _ONES.finditer(line)}
        chains += [(a0, a, *run) for run, a0 in open_runs.items() if run not in runs]
        open_runs = runs
    return chains


def cell_label_edges(grid):
    """Pairs (a, b), a < b, of different labels >= 0 on side-adjacent cells."""
    pairs = set()
    for col, nxt in zip(grid, grid[1:]):
        pairs.update(zip(col, nxt))
    for col in grid:
        pairs.update(zip(col, col[1:]))
    return {(a, b) if a < b else (b, a) for a, b in pairs if a != b and a >= 0 and b >= 0}


def _spans_by_line(edges):
    """Edges (line, lo, hi) as the sorted list [lo0, hi0, lo1, hi1, ...] per line."""
    out = {}
    for a, lo, hi in sorted(edges):
        out.setdefault(a, []).extend((lo, hi))
    return out


def _label_grid(pix, labelled):
    """A cell grid of the labels of (label, rect) pairs, -1 elsewhere."""
    xi = {x: i for i, x in enumerate(pix.x_cuts)}
    yi = {y: j for j, y in enumerate(pix.y_cuts)}
    grid = [[-1] * (len(pix.y_cuts) - 1) for _ in range(len(pix.x_cuts) - 1)]
    for label, (x0, y0, x1, y1) in labelled:
        j0, j1 = yi[y0], yi[y1]
        for col in grid[xi[x0]:xi[x1]]:
            col[j0:j1] = [label] * (j1 - j0)
    return grid


class GridPixelation(sc.Pixelation):
    """The library's pixelation plus what only tests read: the cell grids
    ``vslice``, ``hslice`` and ``pixel``, column-major grids of ints
    (``grid[i][j]`` is column i, row j) holding each cell's slice or pixel
    id, -1 outside P, built from the slice rects in O(cells); and
    ``raw_guards``, every run along pixel edges with its hit mask."""

    @functools.cached_property
    def vslice(self):
        return _label_grid(self, enumerate(self._chains[VERTICAL]))

    @functools.cached_property
    def hslice(self):
        return _label_grid(self, ((sid, sc.geometry._rect(HORIZONTAL, chain))
                                  for sid, chain in enumerate(self._chains[HORIZONTAL])))

    @functools.cached_property
    def pixel(self):
        return _label_grid(self, ((cid, self._pixel_rect(cid)) for cid in range(len(self.h_supports))))

    @functools.cached_property
    def raw_guards(self):
        """Every maximal run along pixel edges, in key order, with its hit mask."""
        return [sc.GuardSegment(*run, hit_set=mask) for run, mask in self._masked_runs]


def merge_spans(spans):
    """Closed spans (line, lo, hi), sorted, merged where they overlap or
    touch on one line."""
    out = []
    for a, lo, hi in spans:
        if out and out[-1][0] == a and lo <= out[-1][2]:
            if hi > out[-1][2]:
                out[-1] = (a, out[-1][1], hi)
        else:
            out.append((a, lo, hi))
    return out


def sweep_runs(pix):
    """Runs along pixel edges, in key order: the sides of the slices on each
    grid line, merged where they touch, without tagging them by slice."""
    out = []
    for o in (HORIZONTAL, VERTICAL):
        chains = pix._chains[o]
        out += [(o, *run) for run in merge_spans(sorted(
            [(a0, lo, hi) for a0, lo, _, hi in chains] + [(a1, lo, hi) for _, lo, a1, hi in chains]))]
    return out


def own_line_hits(pix, orientation, anchor, lo, hi):
    """Ids of the midlines on the segment's own line whose closed spans meet [lo, hi]."""
    keys, lines = pix._sigma_lines[orientation]
    k = bisect.bisect_left(keys, 2 * anchor)
    if k < len(keys) and keys[k] == 2 * anchor:
        los, his, ids = lines[k]
        return ids[bisect.bisect_left(his, lo):bisect.bisect_right(los, hi)]
    return ()


def sweep_hit_masks(pix, orientation, runs):
    """Hit masks of runs (line, lo, hi) of one orientation, in line order,
    by a sweep over the perpendicular midlines.

    The sweep keeps the perpendicular midlines whose closed span holds
    the current line, keyed by ``anchor2``: midlines on one anchor2 have
    disjoint closed spans, so at most one per key is over a line.  A run
    hits those with anchor2 in [2 lo, 2 hi] and the midlines on its own
    line whose spans meet it, as in ``sigma_ids_hit``.
    """
    masks = pix._slice_cross_mask
    nv = len(pix._chains[VERTICAL])
    other, first = (HORIZONTAL, nv) if orientation == VERTICAL else (VERTICAL, 0)
    enter = sorted((lo, hi, a0 + a1, first + k)
                   for k, (a0, lo, a1, hi) in enumerate(pix._chains[other]))
    leave = sorted(enter, key=operator.itemgetter(1))
    keys = []  # anchor2 of the midlines over the line, sorted
    over = {}  # anchor2 -> id of the midline over the line
    out = []
    e = l = 0
    n = len(enter)
    for a, lo, hi in runs:
        while e < n and enter[e][0] <= a:
            _, _, a2, sid = enter[e]
            if a2 not in over:
                bisect.insort(keys, a2)
            over[a2] = sid
            e += 1
        while l < n and leave[l][1] < a:
            _, _, a2, sid = leave[l]
            if over.get(a2) == sid:  # not already replaced on its key
                del over[a2]
                del keys[bisect.bisect_left(keys, a2)]
            l += 1
        mask = 0
        for k in keys[bisect.bisect_left(keys, 2 * lo):bisect.bisect_right(keys, 2 * hi)]:
            mask |= masks[over[k]]
        for sid in own_line_hits(pix, orientation, a, lo, hi):
            mask |= masks[sid]
        out.append(mask)
    return out


class CellPixelation(sc.Pixelation):
    """The pixelation labelled cell by cell over the compressed grid.

    Inside cells come from an XOR parity scan of the horizontal edges, each
    grid column and row spelt as a "0"/"1" string; slices are the chains of
    adjacent lines with the same run (``cell_run_chains``); the ``vslice``,
    ``hslice`` and ``pixel`` grids are filled eagerly, pixels grouped per
    (vertical, horizontal) slice pair by counting cells; camera runs are
    the grid-line units whose two flanking cells differ, each hit mask from
    one ``sigmas_hit`` call; ``is_thin`` reads the pixel records; and
    ``dual_edges``, ``slice_dual``,
    ``side_guards``, ``extend_to_maximal`` and ``contains_segment`` read
    the cell grids.  Its cost follows the (n/2)^2 cells of a spiral.  It
    builds the ``sigmas``, ``crosses`` and ``guards`` records itself and
    fills the library's int tables from them: the midline index, the
    support tables and the camera tables.  The id walk over the midline
    index (``sigma_ids_hit``) is the library's.
    """

    def _build(self):
        poly = self.polygon
        self.x_cuts = sorted({x for r in poly.rings() for x, _ in r})
        self.y_cuts = sorted({y for r in poly.rings() for _, y in r})
        self._xi = {x: i for i, x in enumerate(self.x_cuts)}
        self._yi = {y: j for j, y in enumerate(self.y_cuts)}
        vert_edges, horiz_edges = [], []
        for ring in poly.rings():
            v, h = _ring_edges(ring)
            vert_edges.extend(v)
            horiz_edges.extend(h)
        self._v_spans = _spans_by_line(vert_edges)
        self._h_spans = _spans_by_line(horiz_edges)
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
        self._cell_slices(cols, rows)
        self._cell_pixels()
        self._cell_guards()
        self._inside_runs = {}

    def _empty_grid(self):
        return [[-1] * (len(self.y_cuts) - 1) for _ in range(len(self.x_cuts) - 1)]

    def _cell_slices(self, cols, rows):
        xc, yc = self.x_cuts, self.y_cuts
        self._boxes = {
            VERTICAL: sorted((i0, j0, i1, j1) for i0, i1, j0, j1 in cell_run_chains(cols)),
            HORIZONTAL: sorted((i0, j0, i1, j1) for j0, j1, i0, i1 in cell_run_chains(rows))}
        self.vslice = self._empty_grid()
        self.hslice = self._empty_grid()
        self.sigmas = []
        for o, grid in ((VERTICAL, self.vslice), (HORIZONTAL, self.hslice)):
            for sid, (i0, j0, i1, j1) in enumerate(self._boxes[o]):
                xl, yl, xh, yh = xc[i0], yc[j0], xc[i1], yc[j1]
                a2, lo, hi = (xl + xh, yl, yh) if o == VERTICAL else (yl + yh, xl, xh)
                self.sigmas.append(sc.SliceSegment(id=len(self.sigmas), orientation=o,
                                                   anchor2=a2, lo=lo, hi=hi))
                for col in grid[i0:i1]:
                    col[j0:j1] = [sid] * (j1 - j0)
        nv = len(self._boxes[VERTICAL])
        self._sigma_lines = {}
        for o, segs in ((VERTICAL, self.sigmas[:nv]), (HORIZONTAL, self.sigmas[nv:])):
            segs = sorted(segs, key=lambda s: (s.anchor2, s.lo))
            keys, lines = [], []
            for a, line in itertools.groupby(segs, key=lambda s: s.anchor2):
                line = list(line)
                keys.append(a)
                lines.append(tuple(tuple(getattr(s, f) for s in line) for f in ("lo", "hi", "id")))
            self._sigma_lines[o] = (keys, lines)

    def _pixel_box(self, v, h):
        a, b = self._boxes[VERTICAL][v], self._boxes[HORIZONTAL][h]
        return max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3])

    def _cell_pixels(self):
        cells = collections.Counter()
        for vcol, hcol in zip(self.vslice, self.hslice):
            cells.update(zip(vcol, hcol))
        cells.pop((-1, -1), None)
        xc, yc = self.x_cuts, self.y_cuts
        nv = len(self._boxes[VERTICAL])
        ids = {vh: pid for pid, vh in enumerate(sorted(cells))}
        self.crosses = []
        for (v, h), pid in ids.items():
            i0, j0, i1, j1 = self._pixel_box(v, h)
            assert cells[v, h] == (i1 - i0) * (j1 - j0), "pixel does not match its slice intersection"
            sv, sh = self.sigmas[v], self.sigmas[nv + h]
            assert 2 * xc[i0] <= sv.anchor2 <= 2 * xc[i1] and 2 * yc[j0] <= sh.anchor2 <= 2 * yc[j1]
            self.crosses.append(sc.Cross(pixel_id=pid, h_support=sh.id, v_support=sv.id,
                                         point2=(sv.anchor2, sh.anchor2)))
        ids[-1, -1] = -1
        self.pixel = [list(map(ids.__getitem__, zip(vcol, hcol)))
                      for vcol, hcol in zip(self.vslice, self.hslice)]
        self._slice_cross_mask = [0] * len(self.sigmas)
        for cr in self.crosses:
            self._slice_cross_mask[cr.v_support] |= 1 << cr.pixel_id
            self._slice_cross_mask[cr.h_support] |= 1 << cr.pixel_id
        self.h_supports = [cr.h_support for cr in self.crosses]
        self.v_supports = [cr.v_support for cr in self.crosses]

    def _cell_guards(self):
        # grid line k runs between lines of cells k and k + 1 of the padded grid
        self._lines = {}
        runs = []
        for o, lines, index, cuts in ((VERTICAL, self.pixel, self._xi, self.y_cuts),
                                      (HORIZONTAL, list(zip(*self.pixel)), self._yi, self.x_cuts)):
            outside = (-1,) * (len(cuts) - 1)
            padded = [outside, *lines, outside]
            self._lines[o] = (padded, index, cuts)
            for anchor, k in index.items():
                for m in _ONE_BYTES.finditer(bytes(map(operator.ne, padded[k], padded[k + 1]))):
                    start, t = m.span()
                    runs.append((o, anchor, cuts[start], cuts[t]))
        self._masked_runs = [(run, self._segment_hit_mask(*run)) for run in sorted(runs)]
        first = {}
        for run, mask in self._masked_runs:
            first.setdefault((run[0], mask), run)
        self.guards = [sc.GuardSegment(*run, id=i, hit_set=mask)
                       for i, ((_, mask), run) in enumerate(first.items())]
        self.guard_runs = [g.key() for g in self.guards]
        self.guard_masks = [g.hit_set for g in self.guards]

    def is_thin(self):
        return record_is_thin(self)

    @functools.cached_property
    def pixels(self):
        xc, yc = self.x_cuts, self.y_cuts
        nv = len(self._boxes[VERTICAL])
        out = []
        for cr in self.crosses:
            v, h = cr.v_support, cr.h_support - nv
            i0, j0, i1, j1 = self._pixel_box(v, h)
            out.append(Pixel(id=cr.pixel_id, rect=(xc[i0], yc[j0], xc[i1], yc[j1]),
                             v_slice=v, h_slice=h))
        return out

    def _cell_slice_list(self, orientation):
        xc, yc = self.x_cuts, self.y_cuts
        first = 0 if orientation == VERTICAL else len(self._boxes[VERTICAL])
        return [sc.Slice(id=sid, orientation=orientation, rect=(xc[i0], yc[j0], xc[i1], yc[j1]),
                         segment=self.sigmas[first + sid])
                for sid, (i0, j0, i1, j1) in enumerate(self._boxes[orientation])]

    @functools.cached_property
    def slices_v(self):
        return self._cell_slice_list(VERTICAL)

    @functools.cached_property
    def slices_h(self):
        return self._cell_slice_list(HORIZONTAL)

    @functools.cached_property
    def raw_guards(self):
        return [sc.GuardSegment(*run, hit_set=mask) for run, mask in self._masked_runs]

    @functools.cached_property
    def dual_edges(self):
        return tuple(sorted(cell_label_edges(self.pixel)))

    @functools.cached_property
    def side_guards(self):
        out = [[] for _ in self.crosses]
        for g in self.guards:
            padded, index, cuts = self._lines[g.orientation]
            k, start, t = index[g.anchor], bisect.bisect_left(cuts, g.lo), bisect.bisect_left(cuts, g.hi)
            run = {*padded[k][start:t], *padded[k + 1][start:t]}
            run.discard(-1)
            for pid in run:
                out[pid].append(g.id)
        return out

    def slice_dual(self, orientation):
        grid = self.vslice if orientation == VERTICAL else self.hslice
        adj = {i: set() for i in range(len(self._boxes[orientation]))}
        for a, b in cell_label_edges(grid):
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def extend_to_maximal(self, orientation, anchor, lo, hi):
        padded, index, cuts = self._lines[orientation]
        if anchor not in index:
            raise ValueError(f"{orientation} line at {anchor} is not a grid line")
        runs = self._inside_runs.get((orientation, anchor))
        if runs is None:
            k = index[anchor]
            inside = bytes(map(operator.ne, map(max, padded[k], padded[k + 1]), padded[0]))
            runs = [i for m in _ONE_BYTES.finditer(inside) for i in m.span()]
            self._inside_runs[orientation, anchor] = runs
        tlo = max(0, bisect.bisect_right(cuts, lo) - 1)
        thi = min(len(cuts) - 1, bisect.bisect_left(cuts, hi))
        i = bisect.bisect_right(runs, tlo - 1)
        if i & 1:
            tlo = runs[i - 1]
        i = bisect.bisect_right(runs, thi)
        if i & 1:
            thi = runs[i]
        key = (orientation, anchor, cuts[tlo], cuts[thi])
        return sc.GuardSegment(orientation=orientation, anchor=anchor, lo=key[2], hi=key[3],
                               id=-1, hit_set=self._segment_hit_mask(*key))

    def contains_segment(self, orientation, anchor, lo, hi):
        padded, index, cuts = self._lines[orientation]
        k = bisect.bisect_left(self.x_cuts if orientation == VERTICAL else self.y_cuts, anchor)
        beside = padded[k:k + 1 + (anchor in index)]
        t0, t1 = bisect.bisect_right(cuts, lo) - 1, bisect.bisect_left(cuts, hi)
        found = [0 <= t < len(cuts) - 1 and any(line[t] >= 0 for line in beside)
                 for t in (range(t1 - 1, t0 + 1) if lo == hi else range(t0, t1))]
        return any(found) if lo == hi else all(found)


class LoopPixelation(CellPixelation):
    """The cell-grid pixelation with the linear boundary scan and the
    all-sigma scan as its id walk, which its camera masks, ``sigmas_hit``,
    ``verify_cover`` and the auxiliary graph read."""

    def on_boundary(self, pt):
        return loop_on_boundary(self.polygon, pt)

    def sigma_ids_hit(self, orientation, anchor, lo, hi):
        return [s.id for s in loop_sigmas_hit(self, sc.GuardSegment(orientation, anchor, lo, hi))]


def loop_visible_region(pix, g):
    out = set()
    for seg in loop_sigmas_hit(pix, g):
        mask = pix._slice_cross_mask[seg.id]
        out.update(i for i in range(len(pix.pixels)) if mask >> i & 1)
    return out


def loop_verify_cover(pix, guards, xprime=None):
    segs = sorted((pix.guards[g] if isinstance(g, int) else g for g in guards),
                  key=sc.GuardSegment.key)
    ids = sorted(xprime) if xprime is not None else range(len(pix.crosses))
    uncovered, certificate = [], {}
    for cid in ids:
        cross = pix.crosses[cid]
        hit = None
        for g in segs:
            for sid in (cross.h_support, cross.v_support):
                if loop_segment_intersects_sigma(g.orientation, g.anchor, g.lo, g.hi,
                                                 pix.sigmas[sid]):
                    hit = (sid, g.key())
                    break
            if hit:
                break
        if hit:
            certificate[cid] = hit
        else:
            uncovered.append(cid)
    return tuple(uncovered), certificate


def loop_sets(pix, xprime, universe):
    return {c: frozenset(g for g in universe if pix.guards[g].hit_set >> c & 1) for c in xprime}


def _loop_points(raw, name):
    """A ring's points with the coordinate checks of ``_normalize_ring``,
    repeats of a point and the closing vertex dropped."""
    pts = []
    try:
        for x, y in raw:
            v = (int(x), int(y))
            if v != (x, y):
                raise sc.PolygonError(f"{name}: coordinate of ({x!r}, {y!r}) is not an integer")
            if abs(v[0]) > _COORD_LIMIT or abs(v[1]) > _COORD_LIMIT:
                raise sc.PolygonError(f"{name}: coordinate outside 32-bit range: {v}")
            if not pts or pts[-1] != v:
                pts.append(v)
    except (TypeError, ValueError, OverflowError):
        raise sc.PolygonError(f"{name}: not a list of [x, y] integer pairs") from None
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    return pts


def loop_normalize_ring(raw, name):
    """_normalize_ring that rescans from the start after each merged vertex."""
    pts = _loop_points(raw, name)
    if len(pts) < 3:
        raise sc.DegenerateRing(f"{name}: fewer than 3 distinct vertices")
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a[0] != b[0] and a[1] != b[1]:
            raise sc.NonOrthogonalEdge(f"{name}: edge {a}-{b} is not axis-parallel")
    if len(pts) < 4:
        raise sc.DegenerateRing(f"{name}: fewer than 4 distinct vertices")
    changed = True
    while changed:
        changed = False
        n = len(pts)
        for i in range(n):
            a, b, c = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
            abx, aby = b[0] - a[0], b[1] - a[1]
            bcx, bcy = c[0] - b[0], c[1] - b[1]
            if abx * bcy - aby * bcx == 0:
                if abx * bcx + aby * bcy < 0:
                    raise SelfIntersection(f"{name}: boundary doubles back at {b}")
                del pts[i]
                changed = True
                break
        if len(pts) < 4:
            raise sc.DegenerateRing(f"{name}: collapses to fewer than 4 vertices")
    area2 = _signed_area2(pts)
    if area2 == 0:
        raise sc.DegenerateRing(f"{name}: zero area")
    return pts, area2


def pass_by_pass_normalize_ring(raw, name):
    """_normalize_ring as one pass each for orthogonality, the turns up to
    the first spur and the area, with no edge lists."""
    pts = _loop_points(raw, name)
    if len(pts) < 3:
        raise sc.DegenerateRing(f"{name}: fewer than 3 distinct vertices")
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a[0] != b[0] and a[1] != b[1]:
            raise sc.NonOrthogonalEdge(f"{name}: edge {a}-{b} is not axis-parallel")
    if len(pts) < 4:
        raise sc.DegenerateRing(f"{name}: fewer than 4 distinct vertices")
    turns = []
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
        raise sc.DegenerateRing(f"{name}: collapses to fewer than 4 vertices")
    if spur is not None:
        raise SelfIntersection(f"{name}: boundary doubles back at {pts[spur]}")
    area2 = _signed_area2(turns)
    if area2 == 0:
        raise sc.DegenerateRing(f"{name}: zero area")
    return turns, area2


def splice_sweep_slices(spans, cases=None):
    """_sweep_slices that rebuilds the runs an edge touches from three list
    slices: the runs' ends below the edge, those of lo and hi that are not
    run ends, and the runs' ends above it.  Counts in ``cases`` which
    in-place case each edge is, or "cross" when the sweep returns None."""
    ends = []
    opened = []
    out = []
    for a, line in spans.items():
        for e in range(0, len(line), 2):
            lo, hi = line[e], line[e + 1]
            i, j = bisect.bisect_left(ends, lo), bisect.bisect_right(ends, hi)
            at_lo = i < j and ends[i] == lo
            at_hi = i < j and ends[j - 1] == hi
            if j - i > at_lo + at_hi:
                if cases is not None:
                    cases["cross"] += 1
                return None
            if cases is not None:
                if j == i:
                    cases["split" if i & 1 else "gap"] += 1
                elif j - i == 1:
                    cases["at lo" if at_lo else "at hi"] += 1
                else:
                    cases["bridge" if i & 1 else "close"] += 1
            k0, k1 = i >> 1, (j + 1) >> 1
            for k in range(k0, k1):
                if opened[k] != a:
                    out.append((opened[k], ends[2 * k], a, ends[2 * k + 1]))
            new = ends[2 * k0:i] + [lo, hi][at_lo:2 - at_hi] + ends[j:2 * k1]
            ends[2 * k0:2 * k1] = new
            opened[k0:k1] = [a] * (len(new) >> 1)
    return out


def splice_validate_polygon(rings):
    """validate_polygon on the references above: the ring passes of
    :func:`pass_by_pass_normalize_ring`, the edge spans walked from the
    normalized rings and the sweep of :func:`splice_sweep_slices`."""
    if not rings:
        raise sc.DegenerateRing("no rings given")
    norm = [pass_by_pass_normalize_ring(r, f"ring {i}") for i, r in enumerate(rings)]
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
    spans = _line_spans([outer, *holes])
    slices = None
    if all(all(map(operator.lt, line, line[1:])) for lines in spans for line in lines.values()):
        slices = splice_sweep_slices(spans[0])
    if slices is None or 2 * sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in slices) != target:
        _raise_fault(outer, holes)
    poly = sc.OrthoPolygon(outer=tuple(_rotate_to_min(outer)),
                           holes=tuple(tuple(_rotate_to_min(h)) for h in holes))
    vars(poly).update(_spans=spans, _v_slices=sorted(slices))
    return poly


def loop_subpolygon_of_slices(pix, slice_ids, vertical):
    """The union of some slices, traced unit step by unit step over all cells."""
    which = _grid_cells(pix.vslice if vertical else pix.hslice)
    wanted = set(slice_ids)
    cells = {c for c, sid in which.items() if sid in wanted}
    nxt = {}
    for (i, j) in cells:
        for nb, a, b in (((i, j - 1), (i, j), (i + 1, j)),
                         ((i, j + 1), (i + 1, j + 1), (i, j + 1)),
                         ((i - 1, j), (i, j + 1), (i, j)),
                         ((i + 1, j), (i + 1, j), (i + 1, j + 1))):
            if nb not in cells:
                if a in nxt:
                    raise sc.GenerationFailed("pinch point in cell set")
                nxt[a] = b
    start = min(nxt)
    walk = [start]
    cur = nxt[start]
    while cur != start:
        walk.append(cur)
        cur = nxt[cur]
    if len(walk) != len(nxt):
        raise AssertionError("peeled region is not simply connected")
    return sc.validate_polygon([[(pix.x_cuts[i], pix.y_cuts[j]) for i, j in walk]])


def loop_guard_small(poly):
    """The first canonical guard that verify_cover alone finds covering the polygon."""
    pix = sc.pixelate(poly)
    for g in pix.guards:
        if sc.verify_cover(pix, [g]).covered:
            return g
    raise AssertionError("no single camera covers this small polygon")


def loop_path_guard_steps(poly):
    """path_guard_steps re-validating, re-pixelating and re-segmenting every
    remainder, with each piece's camera found on the piece's own pixelation."""
    if poly.holes:
        raise sc.NotPathSegmentation("polygon has holes")
    orientation = None
    for cand in (VERTICAL, HORIZONTAL):
        if ref_path_order(sc.segmentation_dual(poly, cand)) is not None:
            orientation = cand
            break
    if orientation is None:
        raise sc.NotPathSegmentation("neither segmentation dual is a path")
    pix0 = sc.pixelate(poly)
    cameras, steps = [], []
    cur = poly
    while True:
        if cur.n <= 8:
            g = loop_guard_small(cur)
            cameras.append(extend_to_maximal(pix0, g.orientation, g.anchor, g.lo, g.hi))
            break
        pix = GridPixelation(cur)
        order = ref_path_order(sc.segmentation_dual(cur, orientation))
        if order is None:
            raise sc.NotPathSegmentation("remainder lost its path segmentation")
        vertical = orientation == VERTICAL
        slices = pix.slices_v if vertical else pix.slices_h
        r1, r2 = slices[order[0]].rect, slices[order[1]].rect
        if vertical:
            x, lo, hi = max(r1[0], r2[0]), max(r1[1], r2[1]), min(r1[3], r2[3])
            endpoints = [(x, lo), (x, hi)]
        else:
            y, lo, hi = max(r1[1], r2[1]), max(r1[0], r2[0]), min(r1[2], r2[2])
            endpoints = [(lo, y), (hi, y)]
        reflex = set(reflex_vertices(cur))
        take = 2 if all(p in reflex for p in endpoints) else 3
        take = min(take, len(order) - 1)
        sub = loop_subpolygon_of_slices(pix, order[:take], vertical)
        if sub.n > 8:
            raise AssertionError(f"peeled piece has {sub.n} > 8 vertices")
        g = loop_guard_small(sub)
        camera = extend_to_maximal(pix0, g.orientation, g.anchor, g.lo, g.hi)
        cameras.append(camera)
        remainder = loop_subpolygon_of_slices(pix, order[take:], vertical)
        if remainder.n > cur.n - 6:
            raise AssertionError("peel did not remove enough vertices")
        steps.append(sc.PeelStep(slices_removed=take, subpolygon=sub,
                                 camera=camera, remainder=remainder))
        cur = remainder
    bound = (poly.n + 2) // 6
    if len(cameras) > bound:
        raise AssertionError(f"path guarding used {len(cameras)} > {bound} cameras")
    return make_solution(pix0, range(len(pix0.crosses)), cameras, "path"), steps


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _gallery():
    polys = {}
    for k in (1, 2, 5, 12):
        polys[f"comb{k}"] = sc.gen_comb(k)
    for k in (1, 2, 4, 10):
        polys[f"spiral{k}"] = sc.gen_path_lb(k)
    for b, s in [(1, 0), (3, 1), (6, 2), (10, 3)]:
        polys[f"thin{b}_{s}"] = sc.gen_thin_tree(b, s)
    for n, s in [(4, 0), (10, 1), (16, 2), (24, 3), (40, 4), (60, 5)]:
        polys[f"rand{n}_{s}"] = sc.gen_random_simple(n, s)
    return polys


def _holed_grid(gx, gy, seed):
    """A rectangle with a jittered gx-by-gy grid of rectangular holes."""
    rng = random.Random(f"grid:{gx}:{gy}:{seed}")
    xs, ys = [1], [1]
    for _ in range(gx):
        xs.append(xs[-1] + rng.randint(3, 6))
    for _ in range(gy):
        ys.append(ys[-1] + rng.randint(3, 6))
    holes = []
    for i in range(gx):
        for j in range(gy):
            a = rng.randint(xs[i], xs[i + 1] - 2)
            b = rng.randint(a + 1, xs[i + 1] - 1)
            c = rng.randint(ys[j], ys[j + 1] - 2)
            d = rng.randint(c + 1, ys[j + 1] - 1)
            holes.append([(a, c), (b, c), (b, d), (a, d)])
    outer = [(0, 0), (xs[-1], 0), (xs[-1], ys[-1]), (0, ys[-1])]
    return sc.validate_polygon([outer, *holes])


@pytest.fixture(scope="module")
def polygons(corpus):
    polys = dict(corpus)
    polys.update(_gallery())
    for seed in range(12):
        polys[f"holed{seed}"] = gen_random_holed(seed)
    for gx, gy, seed in [(1, 1, 0), (2, 3, 1), (5, 4, 2)]:
        polys[f"grid{gx}x{gy}"] = _holed_grid(gx, gy, seed)
    return polys


def _ad_hoc_guards(pix, rng, count):
    """Caller-built guards (id -1): random spans on grid lines, some past the polygon."""
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            o, anchor, cuts = HORIZONTAL, rng.choice(pix.y_cuts), pix.x_cuts
        else:
            o, anchor, cuts = VERTICAL, rng.choice(pix.x_cuts), pix.y_cuts
        lo = rng.randint(cuts[0] - 1, cuts[-1])
        hi = rng.randint(lo, cuts[-1] + 1)
        out.append(sc.GuardSegment(orientation=o, anchor=anchor, lo=lo, hi=hi))
    return out


def _touching_segments(pix):
    """Segments that touch a midline's span at one end, on its line and across it."""
    out = []
    for s in pix.sigmas:
        other = VERTICAL if s.orientation == HORIZONTAL else HORIZONTAL
        if s.anchor2 % 2 == 0:
            for lo, hi in ((s.lo - 1, s.lo), (s.hi, s.hi + 1), (s.lo + 1, s.lo + 1)):
                out.append(sc.GuardSegment(orientation=s.orientation, anchor=s.anchor2 // 2,
                                           lo=lo, hi=hi))
        for anchor in (s.lo, s.hi):
            out.append(sc.GuardSegment(orientation=other, anchor=anchor,
                                       lo=s.anchor2 // 2, hi=(s.anchor2 + 1) // 2))
    return out


# ---------------------------------------------------------------------------
# Pixelation
# ---------------------------------------------------------------------------

def test_pixelation_matches_reference_loops(polygons):
    for name, p in polygons.items():
        pix = GridPixelation(p)
        ref = LoopPixelation(p)
        inside = loop_inside(pix)
        for grid in (pix.vslice, pix.hslice, pix.pixel):
            assert [[v >= 0 for v in col] for col in grid] == inside, name
        assert (pix.slices_v, _grid_cells(pix.vslice)) == loop_slices(pix, vertical=True), name
        assert (pix.slices_h, _grid_cells(pix.hslice)) == loop_slices(pix, vertical=False), name
        assert pix.pixels == ref.pixels, name
        assert pix.crosses == ref.crosses, name
        assert pix.sigmas == ref.sigmas, name
        assert pix.raw_guards == ref.raw_guards, name
        assert [g.key() for g in pix.raw_guards] == loop_raw_guards(pix), name
        assert pix.guards == ref.guards, name  # ids and hit sets included
        vwhich, hwhich = loop_slices(pix, True)[1], loop_slices(pix, False)[1]
        pixels, which = loop_pixels(pix, vwhich, hwhich)
        assert (pix.pixels, _grid_cells(pix.pixel)) == (pixels, which), name
        assert pix.dual_edges == tuple(sorted(loop_cell_adjacency(which))), name
        assert pix.slice_dual(VERTICAL) == loop_slice_dual(pix, True), name
        assert pix.slice_dual(HORIZONTAL) == loop_slice_dual(pix, False), name
        assert pix.is_thin() == ref.is_thin(), name
        assert sc.build_auxiliary_graph(pix).adj == loop_auxiliary_graph(ref).adj, name
        for guards in (range(len(pix.guards)), range(0, len(pix.guards), 3), pix.raw_guards[::2]):
            assert sc.verify_cover(pix, list(guards)) == sc.verify_cover(ref, list(guards)), name


_EAGER = ("x_cuts", "y_cuts", "_v_spans", "_h_spans", "h_supports", "v_supports", "_sigma_lines",
          "_slice_cross_mask")
_LAZY = ("_masked_runs", "guard_runs", "guard_masks", "sigmas", "crosses", "guards", "pixels",
         "slices_v", "slices_h", "raw_guards", "dual_edges", "side_guards", "vslice", "hslice",
         "pixel")


def assert_matches_cell_oracle(p, name, rng):
    """Every product of the sweep pixelation equals the cell-grid oracle's:
    the eager ones, those derived on first read, both slice duals, and
    ``extend_to_maximal`` and ``contains_segment`` on runs, sub-runs,
    ad-hoc spans and lines between the grid lines."""
    pix, cell = GridPixelation(p), CellPixelation(p)
    for attr in _EAGER + _LAZY:
        assert getattr(pix, attr) == getattr(cell, attr), (name, attr)
    for o in (VERTICAL, HORIZONTAL):
        assert pix.slice_dual(o) == cell.slice_dual(o), (name, o)
    assert pix.is_thin() == cell.is_thin(), name
    spans = [g.key() for g in pix.raw_guards]
    for o, a, lo, hi in list(spans):
        if hi - lo > 1:
            lo2 = rng.randint(lo, hi - 1)
            spans.append((o, a, lo2, rng.randint(lo2 + 1, hi)))
    spans += [g.key() for g in _ad_hoc_guards(pix, rng, 40)]
    for span in spans:
        assert extend_to_maximal(pix, *span) == cell.extend_to_maximal(*span), (name, span)
    xl, yl, xh, yh = p.bbox()
    for _ in range(200):
        o = rng.choice((HORIZONTAL, VERTICAL))
        a_lo, a_hi, s_lo, s_hi = (yl, yh, xl, xh) if o == HORIZONTAL else (xl, xh, yl, yh)
        anchor = rng.randint(a_lo - 1, a_hi + 1)
        lo = rng.randint(s_lo - 1, s_hi)
        hi = rng.choice([lo, rng.randint(lo, s_hi + 1)])
        assert (pix.contains_segment(o, anchor, lo, hi)
                == cell.contains_segment(o, anchor, lo, hi)), (name, o, anchor, lo, hi)


def test_pixelation_matches_cell_grid_oracle(polygons):
    rng = random.Random(17)
    for name, p in polygons.items():
        assert_matches_cell_oracle(p, name, rng)


_BENCH_SIZE = {"path_lb48": lambda: sc.gen_path_lb(48),
               "comb200": lambda: sc.gen_comb(200),
               "thin160": lambda: sc.gen_thin_tree(160, 4),
               "rand120": lambda: sc.gen_random_simple(120, 1),
               "grid8x9": lambda: _holed_grid(8, 9, 3)}


@pytest.mark.parametrize("name", sorted(_BENCH_SIZE))
def test_pixelation_matches_cell_grid_oracle_at_bench_size(name):
    """Sizes where the per-cell loop references are out of reach: path_lb(48)
    has about 20,000 grid cells for 283 pixels."""
    assert_matches_cell_oracle(_BENCH_SIZE[name](), name, random.Random(name))


_ORIENTATION_FILTERS = (("mhsc", None, "H"), ("mvsc", None, "V"),
                        ("custom", "HV", "HV"), ("custom", "H", "H"), ("custom", "V", "V"))


def assert_tables_match_records(p, name):
    """The int tables that solvers read against the records built from them.

    Per camera id: the accessor ``guard`` equals ``guards[i]``, the mask
    and run tables equal its ``hit_set`` and key, and the cameras are the
    first raw run per (orientation, hit mask) in key order, numbered in
    that order.  Per cross id, the support tables equal the ``crosses``
    records.  For every raw run, the ids of the id walk equal the ids of
    ``sigmas_hit``.  ``instance_for_mode``'s orientation filter gives the
    universe of filtering ``guards`` by orientation."""
    pix = GridPixelation(p)
    n_g = len(pix.guards)
    assert len(pix.guard_masks) == len(pix.guard_runs) == n_g, name
    for gid in range(n_g):
        g = pix.guards[gid]
        assert pix.guard(gid) == g, (name, gid)
        assert (g.id, g.key(), g.hit_set) == (gid, pix.guard_runs[gid], pix.guard_masks[gid]), (name, gid)
    first = {}
    for run in pix.raw_guards:
        first.setdefault((run.orientation, run.hit_set), run.key())
    assert [g.key() for g in pix.guards] == list(first.values()), name
    assert [(g.orientation, g.hit_set) for g in pix.guards] == list(first), name
    assert pix.h_supports == [cr.h_support for cr in pix.crosses], name
    assert pix.v_supports == [cr.v_support for cr in pix.crosses], name
    assert [cr.pixel_id for cr in pix.crosses] == list(range(len(pix.h_supports))), name
    for run in pix.raw_guards:
        assert (pix.sigma_ids_hit(*run.key())
                == [s.id for s in pix.sigmas_hit(*run.key())]), (name, run)
    for mode, orientations, keep in _ORIENTATION_FILTERS:
        inst = sc.solve.instance_for_mode(pix, mode, guard_orientations=orientations)
        want = tuple(g.id for g in pix.guards if g.orientation in keep)
        assert inst.universe == want, (name, mode, orientations)


def test_tables_match_records(polygons):
    for name, p in polygons.items():
        assert_tables_match_records(p, name)


@pytest.mark.parametrize("name", sorted(_BENCH_SIZE))
def test_tables_match_records_at_bench_size(name):
    assert_tables_match_records(_BENCH_SIZE[name](), name)


def assert_inside_runs_match_line_scan(p, name):
    """``_inside_run`` answers the run of the scan over every slice
    (``loop_inside_spans``) that holds the point, or None, in both
    orientations, on every grid line, on one anchor between each two
    adjacent lines that have one, and past both outer lines: at both ends
    of each run and at a point inside it, and at a point in each gap
    between runs and past both ends.  Returns how many points each branch
    answered: a chain of slice sides, a slice that the line passes
    through, or neither."""
    pix = sc.Pixelation(p)
    found = collections.Counter()
    for o, lines, cuts in ((VERTICAL, pix.x_cuts, pix.y_cuts), (HORIZONTAL, pix.y_cuts, pix.x_cuts)):
        anchors = [lines[0] - 1, *lines, lines[-1] + 1]
        anchors += [(a + b) // 2 for a, b in zip(lines, lines[1:]) if b - a > 1]
        for a in anchors:
            runs = loop_inside_spans(pix, o, a)
            gaps = [cuts[0] - 2, *runs, cuts[-1] + 2]
            points = {(g0 + g1) // 2: None for g0, g1 in zip(gaps[::2], gaps[1::2]) if g1 - g0 > 1}
            points.update({t: (r0, r1) for r0, r1 in zip(runs[::2], runs[1::2])
                           for t in (r0, (r0 + r1) // 2, r1)})
            for t, want in points.items():
                assert pix._inside_run(o, a, t) == want, (name, o, a, t)
                found["side" if pix._side_run(o, a, t, t) else "slice" if want else "none"] += 1
    return found


def test_inside_spans_match_line_scan(polygons):
    found = collections.Counter()
    for name, p in polygons.items():
        found += assert_inside_runs_match_line_scan(p, name)
    assert found["side"] > 1000 and found["slice"] > 100 and found["none"] > 100, found


@pytest.mark.parametrize("name", sorted(_BENCH_SIZE))
def test_inside_spans_match_line_scan_at_bench_size(name):
    """Both branches answer on each shape but comb(200), where every line
    checked lies on its slices' sides."""
    found = assert_inside_runs_match_line_scan(_BENCH_SIZE[name](), name)
    assert found["side"] and found["none"] and (found["slice"] or name == "comb200"), found


def assert_masked_runs_match_hit_mask_sweep(p, name):
    """The runs from the merge of slice sides equal the untagged merge, and
    each run's hit mask, the OR of its side slices' crossing masks, equals
    the mask of the sweep over the perpendicular midlines.  No run meets a
    midline on its own line, so the merge needs no own-line lookup."""
    pix = sc.Pixelation(p)
    runs = sweep_runs(pix)
    assert [run for run, _ in pix._masked_runs] == runs, name
    masks = []
    for o in (HORIZONTAL, VERTICAL):
        masks += sweep_hit_masks(pix, o, [run[1:] for run in runs if run[0] == o])
    assert [mask for _, mask in pix._masked_runs] == masks, name
    assert not [run for run in runs if own_line_hits(pix, *run)], name


def test_masked_runs_match_hit_mask_sweep(polygons):
    for name, p in polygons.items():
        assert_masked_runs_match_hit_mask_sweep(p, name)


@pytest.mark.parametrize("name", sorted(_BENCH_SIZE))
def test_masked_runs_match_hit_mask_sweep_at_bench_size(name):
    assert_masked_runs_match_hit_mask_sweep(_BENCH_SIZE[name](), name)


def test_masked_runs_match_hit_mask_sweep_on_holed_grids():
    """Jittered grids of rectangular holes, from 1x1 up to 14x14."""
    for g in range(1, 15):
        for gx, gy in ((g, g), (g, max(1, g - 3))):
            name = f"grid{gx}x{gy}"
            assert_masked_runs_match_hit_mask_sweep(_holed_grid(gx, gy, g), name)


def test_lifted_side_guards_match_run_lookup(polygons):
    rng = random.Random(13)
    for name, p in polygons.items():
        pix = GridPixelation(p)
        assert pix.side_guards == loop_side_guards(pix), name
        td = decompose(dual_graph(pix))
        n_c, n_g = len(pix.crosses), len(pix.guards)
        for H in (sc.build_auxiliary_graph(pix),
                  sc.build_auxiliary_graph(pix, rng.sample(range(n_c), n_c // 2),
                                           rng.sample(range(n_g), n_g // 2))):
            lifted = lift_decomposition(td, H, pix)
            assert list(lifted.bags) == loop_lift(td, H, pix), name
            assert lifted.edges == td.edges, name


def _extend_spans(pix, p, rng):
    """The segments that the extension tests draw: every run along pixel
    edges, a random sub-span of each, random spans on grid lines and two
    lines off the grid."""
    spans = [g.key() for g in pix.raw_guards]
    for o, a, lo, hi in list(spans):  # sub-spans of every run
        if hi - lo > 1:
            lo2 = rng.randint(lo, hi - 1)
            spans.append((o, a, lo2, rng.randint(lo2 + 1, hi)))
    spans += [g.key() for g in _ad_hoc_guards(pix, rng, 20)]
    xl, yl, xh, yh = p.bbox()
    spans += [(HORIZONTAL, yh + 1, xl, xh), (VERTICAL, xl - 1, yl, yh)]  # off the grid
    return spans


def test_extend_to_maximal_matches_cell_walk(polygons):
    rng = random.Random(29)
    for name, p in polygons.items():
        pix = GridPixelation(p)
        inside = loop_inside(pix)
        spans = _extend_spans(pix, p, rng)
        for span in spans:
            try:
                want = loop_extend_to_maximal(pix, inside, *span)
            except ValueError:
                with pytest.raises(ValueError):
                    extend_to_maximal(pix, *span)
                continue
            assert extend_to_maximal(pix, *span) == want, (name, span)


def ref_side_run(pix, orientation, anchor, lo, hi):
    """The inside span of the line (``loop_inside_spans``) that holds
    [lo, hi], if a slice side on the line lies in it, else None.  A span
    that holds a side is a chain of sides; one that holds none is the span
    of a slice that the line passes through."""
    runs = loop_inside_spans(pix, orientation, anchor)
    sides = [side for part in pix._slice_sides(orientation).get(anchor, ()) for side in part]
    for r0, r1 in zip(runs[::2], runs[1::2]):
        if r0 <= lo and hi <= r1:
            return (r0, r1) if any(r0 <= s0 and s1 <= r1 for s0, s1, _ in sides) else None
    return None


def assert_side_runs_match_inside_on_grid_lines(pix, name):
    """On every grid line of both orientations: each side, and each inside
    span of ``loop_inside_spans``, looks up ``ref_side_run``'s answer, and
    so does each side's and span's low end as a point."""
    found = collections.Counter()
    for o, lines in ((VERTICAL, pix.x_cuts), (HORIZONTAL, pix.y_cuts)):
        for a in lines:
            runs = loop_inside_spans(pix, o, a)
            spans = [(lo, hi) for part in pix._slice_sides(o)[a] for lo, hi, _ in part]
            spans += list(zip(runs[::2], runs[1::2]))
            for lo, hi in spans:
                for seg in ((lo, hi), (lo, lo)):
                    want = ref_side_run(pix, o, a, *seg)
                    assert pix._side_run(o, a, *seg) == want, (name, o, a, seg)
                    found[want is not None] += 1
    return found


def test_side_runs_match_inside_spans(polygons):
    """The side-chain lookup behind ``_inside_run`` returns None, or
    exactly ``loop_inside_spans``'s span around the segment, on every grid
    line of the corpus and for every segment the extension test draws,
    snapped to the cuts as the extension snaps it.  Both outcomes occur: a segment
    along pixel edges lies on a chain of slice sides, and one through a
    slice's interior falls back to the stabbing index."""
    rng = random.Random(29)  # the extension test's draws
    found, drawn = collections.Counter(), collections.Counter()
    for name, p in polygons.items():
        pix = GridPixelation(p)
        found += assert_side_runs_match_inside_on_grid_lines(pix, name)
        for o, a, lo, hi in _extend_spans(pix, p, rng):
            lines, cuts = (pix.x_cuts, pix.y_cuts) if o == VERTICAL else (pix.y_cuts, pix.x_cuts)
            if a not in lines:
                continue
            lo = cuts[max(0, bisect.bisect_right(cuts, lo) - 1)]
            hi = cuts[min(len(cuts) - 1, bisect.bisect_left(cuts, hi))]
            want = ref_side_run(pix, o, a, lo, hi)
            assert pix._side_run(o, a, lo, hi) == want, (name, o, a, lo, hi)
            drawn[want is not None] += 1
    assert found[True] > 1000 and found[False] > 100, found
    assert drawn[True] > 2000 and drawn[False] > 200, drawn


@pytest.mark.parametrize("name", sorted(_BENCH_SIZE))
def test_side_runs_match_inside_spans_at_bench_size(name):
    pix = sc.Pixelation(_BENCH_SIZE[name]())
    found = assert_side_runs_match_inside_on_grid_lines(pix, name)
    assert found[True], found


def test_on_boundary_matches_linear_scan():
    polys = [sc.gen_random_simple(4 + 2 * (s % 8), s) for s in range(12)]
    polys += [gen_random_holed(s) for s in range(6)]
    for p in polys:
        pix = sc.Pixelation(p)
        xl, yl, xh, yh = p.bbox()
        for x in range(xl - 1, xh + 2):
            for y in range(yl - 1, yh + 2):
                assert pix.on_boundary((x, y)) == loop_on_boundary(p, (x, y)), (p, x, y)


def test_lookups_match_all_sigma_scan(polygons):
    rng = random.Random(5)
    for name, p in polygons.items():
        pix = sc.Pixelation(p)
        guards = list(pix.guards) + _ad_hoc_guards(pix, rng, 20)
        for g in guards:
            expect = loop_sigmas_hit(pix, g)
            assert (sorted(pix.sigmas_hit(g.orientation, g.anchor, g.lo, g.hi),
                           key=lambda s: s.id) == expect), (name, g)
            vis = sc.visible_region(pix, g)
            assert vis == loop_visible_region(pix, g), (name, g)
            hit_ids = {s.id for s in expect}
            for cross in pix.crosses:
                expect_hit = cross.h_support in hit_ids or cross.v_support in hit_ids
                assert sc.hits(g, cross, pix) == expect_hit, (name, g, cross)
        H = sc.build_auxiliary_graph(pix)
        for g in pix.guards:
            got = {v for v in H.adj[("g", g.id)]}
            assert got == {("s", s.id) for s in loop_sigmas_hit(pix, g)}, (name, g)
        for g in _touching_segments(pix):
            assert (sorted(pix.sigmas_hit(g.orientation, g.anchor, g.lo, g.hi),
                           key=lambda s: s.id) == loop_sigmas_hit(pix, g)), (name, g)


def test_verify_cover_matches_guard_by_guard_loop(polygons):
    rng = random.Random(11)
    for name, p in polygons.items():
        pix = sc.Pixelation(p)
        for _ in range(6):
            k = rng.randint(0, min(6, len(pix.guards)))
            picked = rng.sample(range(len(pix.guards)), k)
            guards = picked + _ad_hoc_guards(pix, rng, rng.randint(0, 2))
            xprime = None
            if rng.random() < 0.5:
                xprime = rng.sample(range(len(pix.crosses)), rng.randint(0, len(pix.crosses)))
            report = sc.verify_cover(pix, guards, xprime)
            uncovered, certificate = loop_verify_cover(pix, guards, xprime)
            assert report.uncovered == uncovered, name
            assert report.certificate == certificate, name


# ---------------------------------------------------------------------------
# Hitting-set instance
# ---------------------------------------------------------------------------

def test_instance_sets_and_masks_match_loops(polygons):
    rng = random.Random(3)
    for name, p in polygons.items():
        pix = sc.Pixelation(p)
        n_c, n_g = len(pix.crosses), len(pix.guards)
        choices = [(None, None)]
        for _ in range(3):
            choices.append((rng.sample(range(n_c), rng.randint(0, n_c)),
                            rng.sample(range(n_g), rng.randint(0, n_g))))
        for xprime, gammaprime in choices:
            inst = sc.build_instance(pix, xprime=xprime, gammaprime=gammaprime)
            weights = {g: 2 for g in inst.universe}
            winst = inst.with_weights(weights)
            assert winst.weights == weights, name
            copies = [inst, winst] + [inst.restrict_orientation(o) for o in (HORIZONTAL, VERTICAL)]
            for part in copies:
                sets = loop_sets(pix, part.xprime, part.universe)
                assert part.to_dict() == {
                    "universe": list(part.universe),
                    "sets": [{"cross": c, "guards": sorted(sets[c])} for c in part.xprime],
                }, name
                assert part.wanted == sum(1 << c for c in part.xprime), name
                assert part.infeasible_crosses == tuple(c for c in part.xprime if not sets[c]), name
                for g in part.universe:
                    expect = sum(1 << c for c in part.xprime if g in sets[c])
                    assert pix.guards[g].hit_set & part.wanted == expect, (name, g)
                some = set(rng.sample(part.universe, len(part.universe) // 2))
                for guards in (part.universe, some, ()):
                    expect = sum(1 << c for c in part.xprime if sets[c] & set(guards))
                    assert part.hit_mask(guards) & part.wanted == expect, name


def bit_by_bit_wanted(n, xprime):
    """The mask of the requested crosses, one id at a time with a range
    check per id, all n crosses for None."""
    if xprime is None:
        return (1 << n) - 1
    wanted = 0
    for cid in xprime:
        if not 0 <= cid < n:
            raise ValueError(f"cross id {cid} is not in 0..{n - 1}")
        wanted |= 1 << cid
    return wanted


def bit_by_bit_verify_cover(pix, guards, xprime=None):
    """``verify_cover`` with the requested crosses' mask built bit by bit:
    (uncovered, certificate)."""
    keys = sorted(pix.guard_runs[g] if isinstance(g, int) else g.key() for g in guards)
    met = [pix.sigma_ids_hit(*key) for key in keys]
    covered = 0
    for sid in {sid for ids in met for sid in ids}:
        covered |= pix._slice_cross_mask[sid]
    wanted = bit_by_bit_wanted(len(pix.h_supports), xprime)
    return (tuple(sc.geometry._bits(wanted & ~covered)),
            sc.geometry._witnesses(pix.h_supports, pix.v_supports, keys, met, wanted & covered))


def scan_requested_ids(pix, xprime, gammaprime):
    """``_requested_ids`` with a range scan over every id, made or given."""
    out = []
    for what, ids, n in (("cross", xprime, len(pix.h_supports)), ("guard", gammaprime, len(pix.guard_masks))):
        ids = tuple(sorted(set(ids))) if ids is not None else tuple(range(n))
        bad = [i for i in ids if not 0 <= i < n]
        if bad:
            raise ValueError(f"{what} ids {bad} are not in 0..{n - 1}")
        out.append(ids)
    return out[0], out[1]


def _error_or(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return (type(e), str(e))


def _cross_requests(n, rng):
    """Requests of crosses by name, each a function that makes a fresh one:
    every cross in several forms, part of them, and with an unknown id."""
    shuffled = list(range(n)) * 2
    rng.shuffle(shuffled)
    part = set(rng.sample(range(n), n // 2))
    return {"none": lambda: None, "range": lambda: range(n), "tuple": lambda: tuple(range(n)),
            "shuffled with repeats": lambda: list(shuffled),
            "generator": lambda: (c for c in range(n)), "partial": lambda: set(part),
            "partial range": lambda: range(1, n, 2), "range past the end": lambda: range(n + 1),
            "n ids, one repeated": lambda: (*range(n - 1), 0),
            "n ids, one unknown": lambda: (*range(n - 1), n),
            "out of range": lambda: [*part, n, -1, 0]}


def test_requested_cross_masks_match_bit_by_bit_reference(polygons):
    """The masks of the requested crosses against the bit-by-bit loops, for
    every cross asked for as None, ``range(n)``, a tuple, a shuffled list
    with repeats and a generator, for part of them and with an unknown id:
    ``build_instance``'s ids or error, ``wanted`` and
    ``infeasible_crosses`` (over all guards and over half of them), and
    ``verify_cover``'s uncovered crosses and certificate or error, for a
    greedy cover and half of it, also when given the instance's ids."""
    rng = random.Random(31)
    shapes = {**polygons, **{name: make() for name, make in _BENCH_SIZE.items()}}
    full = 0
    for name, p in shapes.items():
        pix = sc.Pixelation(p)
        n, n_g = len(pix.h_supports), len(pix.guard_masks)
        cover = list(sc.greedy_cover(sc.build_instance(pix)).guard_ids)
        covers = (cover, cover[::2])
        for what, make in _cross_requests(n, rng).items():
            for gammaprime in (None, rng.sample(range(n_g), n_g // 2)):
                want = _error_or(scan_requested_ids, pix, make(), gammaprime)
                inst = _error_or(sc.build_instance, pix, make(), gammaprime)
                if isinstance(want, tuple) and isinstance(want[0], type):
                    assert inst == want, (name, what)
                    continue
                xp, uni = want
                assert (inst.xprime, inst.universe) == (xp, uni), (name, what)
                assert inst.wanted == sum(1 << c for c in xp), (name, what)
                hit = 0
                for g in uni:
                    hit |= pix.guard_masks[g]
                assert inst.infeasible_crosses == tuple(c for c in xp if not hit >> c & 1), (name, what)
                full += len(xp) == n
                for guards in covers:
                    got = sc.verify_cover(pix, guards, inst.xprime)
                    assert (got.uncovered, dict(got.certificate)) == bit_by_bit_verify_cover(
                        pix, guards, xp), (name, what)
            for guards in covers:
                want = _error_or(bit_by_bit_verify_cover, pix, guards, make())
                got = _error_or(sc.verify_cover, pix, guards, make())
                if not isinstance(got, tuple):
                    got = (got.uncovered, dict(got.certificate))
                assert got == want, (name, what)
    assert full >= 10 * len(shapes), full


def _thin_shapes():
    shapes = {f"thin{b}_{s}": sc.gen_thin_tree(b, s) for b, s in ((2, 5), (8, 6), (30, 7), (90, 8))}
    shapes.update({f"comb{k}": sc.gen_comb(k) for k in (3, 20, 80)})
    shapes.update({f"grid{g}": _holed_grid(g, g + 1, g) for g in (1, 3, 6)})
    return shapes


def test_is_thin_matches_record_reference(polygons):
    """``is_thin`` from the support tables against the test over the pixel
    records, which it does not build: on the corpus and the bench-size
    shapes, thin trees, combs and holed grids; against the cell-grid
    pixelation's records where that is cheap."""
    shapes = {**polygons, **_thin_shapes(), **{name: make() for name, make in _BENCH_SIZE.items()}}
    kinds = collections.Counter()
    for name, p in shapes.items():
        pix = sc.Pixelation(p)
        got = pix.is_thin()
        assert "pixels" not in vars(pix), name
        assert got == record_is_thin(pix), name
        if name in polygons:
            assert got == CellPixelation(p).is_thin(), name
        kinds[got] += 1
    assert min(kinds[True], kinds[False]) >= 5, kinds


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _outcome(fn, rings):
    try:
        return fn(rings)
    except sc.PolygonError as e:
        return (type(e), str(e))


def _random_ring(rng, size, k):
    """A closed staircase walk: alternate x and y moves, then close."""
    pts = [(rng.randint(0, size), rng.randint(0, size))]
    for i in range(1, k):
        x, y = pts[-1]
        if i % 2:
            pts.append((rng.randint(0, size), y))
        else:
            pts.append((x, rng.randint(0, size)))
    x, y = pts[-1]
    if k % 2 == 0:
        pts.append((pts[0][0], y))
    return pts


def _rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


# a 3x3 grid of 6x6 holes in [0, 32]^2, row by row; hole 4 is [12, 18]^2
_GRID9 = [_rect(2 + 10 * i, 2 + 10 * j, 8 + 10 * i, 8 + 10 * j) for j in range(3) for i in range(3)]


def test_validate_matches_all_pairs_reference(polygons):
    rng = random.Random(17)
    cases = [[list(r) for r in p.rings()] for p in polygons.values()]
    for _ in range(400):  # random staircase rings: mostly self-touching
        cases.append([_random_ring(rng, 8, rng.randint(4, 12))])
    for p in list(polygons.values())[:30]:  # random rectangles as holes: touching,
        xl, yl, xh, yh = p.bbox()         # overlapping, nested, outside
        for _ in range(8):
            rings = [list(r) for r in p.rings()]
            for _ in range(rng.randint(1, 3)):
                x0, y0 = rng.randint(xl - 2, xh), rng.randint(yl - 2, yh)
                rings.append(_rect(x0, y0, x0 + rng.randint(1, 4), y0 + rng.randint(1, 4)))
            cases.append(rings)
    kinds = set()
    for rings in cases:
        got, want = _outcome(sc.validate_polygon, rings), _outcome(loop_validate, rings)
        assert got == want, rings
        kinds.add(want[0] if isinstance(want, tuple) else "ok")
    assert {"ok", SelfIntersection, HoleOutsideOuter} <= kinds


@pytest.mark.parametrize("rings, error", [
    # a hole whose corner meets the outer ring's reflex vertex at one point
    ([[(0, 0), (10, 0), (10, 10), (5, 10), (5, 5), (0, 5)], _rect(5, 3, 7, 5)],
     HoleOutsideOuter),
    # a vertex of the ring lands on another edge of the same ring
    ([[(0, 0), (6, 0), (6, 4), (3, 4), (3, 0), (2, 0), (2, -2), (0, -2)]], SelfIntersection),
    # two holes share part of a vertical edge
    ([_rect(0, 0, 12, 12), _rect(2, 2, 4, 4), _rect(4, 3, 6, 6)], HoleOutsideOuter),
    # a hole nested in another hole
    ([_rect(0, 0, 20, 20), _rect(2, 2, 10, 10), _rect(4, 4, 6, 6)], HoleOutsideOuter),
    # a hole outside the outer ring
    ([_rect(0, 0, 5, 5), _rect(7, 7, 9, 9)], HoleOutsideOuter),
    # a hole crossing the outer ring
    ([_rect(0, 0, 5, 5), _rect(3, 3, 7, 4)], HoleOutsideOuter),
    # a 3x3 grid of holes, hole 9 nested in the middle one: "holes 4 and 9 overlap"
    pytest.param([_rect(0, 0, 32, 32), *_GRID9, _rect(14, 14, 16, 16)], HoleOutsideOuter,
                 id="grid9-nested-last"),
    # the same, the nested hole listed first: "holes 5 and 0 overlap"
    pytest.param([_rect(0, 0, 32, 32), _rect(14, 14, 16, 16), *_GRID9], HoleOutsideOuter,
                 id="grid9-nested-first"),
    # Cases that pass the per-line span test, each with its message.  Two
    # holes that form a plus and only cross, at no vertex: the slice sweep
    # meets a run end inside an edge
    pytest.param([_rect(0, 0, 12, 12), _rect(2, 5, 10, 7), _rect(5, 2, 7, 10)],
                 HoleOutsideOuter("rings 1 and 2 touch or overlap"), id="plus-holes"),
    # a ring whose edges 0 and 3 cross at (1, 1)
    pytest.param([[(0, 1), (3, 1), (3, 3), (1, 3), (1, 0), (0, 0)]],
                 SelfIntersection("ring 0: edges 0 and 3 intersect"), id="self-crossing"),
    # a ring that crosses itself, at edges 0 and 5 among others, where the
    # slices' area still matches the ring's: only the crossing test rejects it
    pytest.param([[(5, 3), (1, 3), (1, 1), (3, 1), (3, 0), (2, 0), (2, 5), (0, 5), (0, 2), (5, 2)]],
                 SelfIntersection("ring 0: edges 0 and 5 intersect"), id="self-crossing-same-area"),
    # holes nested three deep, which only the slices' area tells apart
    pytest.param([_rect(0, 0, 20, 20), _rect(2, 2, 18, 18), _rect(4, 4, 16, 16), _rect(6, 6, 14, 14)],
                 HoleOutsideOuter("holes 0 and 1 overlap"), id="holes-three-deep"),
    # the outer ring inside its hole
    pytest.param([_rect(4, 4, 6, 6), _rect(0, 0, 10, 10)],
                 HoleOutsideOuter("hole 0 is not strictly inside the outer ring"), id="outer-in-hole"),
])
def test_validate_targeted_contacts(rings, error):
    """The error of the all-pairs reference, and, where the case gives an
    error instance, its message."""
    kind = error if isinstance(error, type) else type(error)
    with pytest.raises(kind) as got:
        sc.validate_polygon(rings)
    assert _outcome(loop_validate, rings) == (kind, str(got.value))
    if not isinstance(error, type):
        assert str(got.value) == str(error)


def _bbox(ring):
    xs, ys = [x for x, _ in ring], [y for _, y in ring]
    return min(xs), min(ys), max(xs), max(ys)


def _random_ring_sets(rng, count):
    """Multi-ring inputs that touch, cross and nest.  The outer ring is a
    rectangle, a staircase walk or a random simple ring; up to three holes
    follow, each a random rectangle near some earlier ring, a rectangle
    around one (touching it, or holding it: nested holes, an outer ring
    inside a hole), one just inside one, or a staircase walk, in either
    orientation."""
    pool = [list(sc.gen_random_simple(n, seed).outer) for n, seed in ((8, 1), (10, 2), (12, 3), (16, 4))]
    for _ in range(count):
        pick = rng.randrange(3)
        if pick == 0:
            x0, y0 = rng.randint(0, 4), rng.randint(0, 4)
            rings = [_rect(x0, y0, x0 + rng.randint(4, 12), y0 + rng.randint(4, 12))]
        elif pick == 1:
            rings = [_random_ring(rng, 10, 2 * rng.randint(2, 5))]
        else:
            rings = [rng.choice(pool)]
        for _ in range(rng.randint(0, 3)):
            xl, yl, xh, yh = _bbox(rng.choice(rings))
            pick = rng.randrange(4)
            if pick == 0:
                x0, y0 = rng.randint(xl - 1, xh), rng.randint(yl - 1, yh)
                hole = _rect(x0, y0, x0 + rng.randint(1, 5), y0 + rng.randint(1, 5))
            elif pick == 1:
                d = rng.randint(0, 2)
                hole = _rect(xl - d, yl - d, xh + d, yh + d)
            elif pick == 2 and xh - xl > 2 and yh - yl > 2:
                hole = _rect(xl + 1, yl + 1, xh - 1, yh - 1)
            else:
                hole = _random_ring(rng, 10, 2 * rng.randint(2, 4))
            rings.append(hole[::rng.choice((1, -1))])
        yield rings


def test_validate_matches_all_pairs_reference_on_random_ring_sets():
    kinds = collections.Counter()
    for rings in _random_ring_sets(random.Random(23), 4000):
        got, want = _outcome(sc.validate_polygon, rings), _outcome(loop_validate, rings)
        assert got == want, rings
        kinds[want[0] if isinstance(want, tuple) else "ok"] += 1
    assert min(kinds[k] for k in ("ok", SelfIntersection, HoleOutsideOuter)) >= 400, kinds


def _normalize_outcome(fn, raw):
    try:
        return fn(raw, "ring 0")
    except sc.PolygonError as e:
        return (type(e), str(e))


def _pad_ring(ring, rng):
    """The ring with extra points inside some edges and some points repeated."""
    out = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        out.extend([a] * rng.randint(1, 2))
        axis = 1 if a[0] == b[0] else 0
        lo, hi = sorted((a[axis], b[axis]))
        inner = sorted(rng.sample(range(lo + 1, hi), min(max(0, hi - lo - 1), rng.randint(0, 2))),
                       reverse=a[axis] > b[axis])
        out.extend((a[0], t) if axis else (t, a[1]) for t in inner)
    return out


def _spiked(ring, i, d, length):
    """The ring with a spur out of vertex i: out by ``length`` along ``d`` and back."""
    v = ring[i]
    return ring[:i + 1] + [(v[0] + d[0] * length, v[1] + d[1] * length), v] + ring[i + 1:]


def _random_walk(rng, k):
    """Axis-parallel moves in a 4x4 box, closed orthogonally: runs, spurs, repeats."""
    pts = [(rng.randint(0, 3), rng.randint(0, 3))]
    for _ in range(k):
        x, y = pts[-1]
        pts.append((rng.randint(0, 3), y) if rng.random() < 0.5 else (x, rng.randint(0, 3)))
    pts.append((pts[0][0], pts[-1][1]))
    return pts


def _ring_pass(raw, name):
    """``_normalize_ring`` as (turns, area2, its edge lists grouped), on
    edge lists that already hold an earlier ring's edges."""
    vert, horiz = [(0, 0, 0)], [(0, 0, 0)]
    turns, area2 = _normalize_ring(raw, name, vert, horiz)
    assert vert[0] == horiz[0] == (0, 0, 0)
    return turns, area2, _group_spans(vert[1:], horiz[1:])


# Rings with more than one fault: the first by the order of the checks wins
_COMPETING_FAULTS = [
    # a diagonal edge after a spur at (3, 2): the edge is named
    [(0, 0), (3, 0), (3, 2), (3, 1), (1, 3), (0, 3)],
    # a spur at (4, 0) after a diagonal edge closing the ring
    [(1, 0), (4, 0), (2, 0), (2, 3), (0, 3)],
    # a non-integral coordinate after a diagonal edge, and before one
    [(0, 0), (2, 2), (2, 3.5), (0, 3)],
    [(0, 0), (2, 0.5), (3, 3), (0, 3)],
    # an out-of-range coordinate at the last vertex, after a diagonal edge
    [(0, 0), (3, 1), (4, 4), (0, 2**31)],
    [(0, 0), (4, 0), (4, 4), (-2**31, 4)],
    # a non-integral coordinate after an out-of-range one
    [(0, 0), (2**31, 0), (4, 0.5), (0, 4)],
    # a repeated closing vertex plus a collinear run, mid-ring and across
    # the wrap-around: the last point is straight
    [(0, 0), (2, 0), (4, 0), (4, 3), (0, 3), (0, 1), (0, 0)],
    [(2, 0), (4, 0), (4, 3), (0, 3), (0, 0), (1, 0), (2, 0)],
    [(0, 2), (0, 0), (4, 0), (4, 3), (0, 3), (0, 2), (0, 2)],
    # the same with a spur on the run: it collapses, or doubles back
    [(0, 0), (2, 0), (1, 0), (4, 0), (4, 3), (0, 3), (0, 0)],
    [(2, 0), (4, 0), (4, 3), (0, 3), (0, 0), (3, 0), (2, 0)],
    # integral floats and bools
    [(0.0, 0), (4.0, 0.0), (4, 3.0), (False, 3)],
    [(False, False), (True, False), (True, True), (0.0, True)],
    [(0, 0), (2.0, 0), (4, 0.0), (4, 3), (0, 3.0), (0.0, 0.0)],
]


class _Coord(enum.IntEnum):
    ZERO = 0
    TWO = 2
    LIMIT = _COORD_LIMIT


def _limit_rings(rng):
    """Squares whose corners take coordinates at the 32-bit limit, one past
    it, of type bool, an ``IntEnum``, a float (integral, fractional or not
    finite) and a string, each alone or mixed with plain ints."""
    lim = _COORD_LIMIT
    rings = [_rect(-lim, -lim, lim, lim), _rect(0, 0, lim, 1), _rect(-lim, 0, 0, 2),
             _rect(0, 0, lim + 1, 2), _rect(-lim - 1, 0, 0, 2), _rect(0, -lim - 1, 2, 0),
             _rect(0, 0, 2, 10**30),
             [(False, False), (True, False), (True, True), (False, True)],
             [(_Coord.ZERO, _Coord.ZERO), (_Coord.TWO, 0), (2, _Coord.TWO), (0, 2)],
             [(_Coord.ZERO, 0), (_Coord.LIMIT, 0), (_Coord.LIMIT, 3), (0.0, 3)]]
    odd = [True, False, _Coord.TWO, _Coord.LIMIT, 2.0, float(lim), float(lim + 1), 2.5,
           float("inf"), float("nan"), "2", lim, -lim, lim + 1, -lim - 1]
    for _ in range(200):
        ring = [list(v) for v in _rect(0, 0, 2, 2)]
        for _ in range(rng.randint(1, 3)):
            k, axis, value = rng.randrange(4), rng.randrange(2), rng.choice(odd)
            # a vertex and its neighbour along the other axis share the coordinate
            for i in (k, k ^ (1 if axis == 1 else 3)):
                ring[i][axis] = value
        rings.append([tuple(v) for v in ring])
    return rings


def test_normalize_ring_matches_rescan_reference(polygons):
    """``_normalize_ring`` against the rescanning reference and today's pass
    by pass routine: equal turns and area, or the same error type and
    message; and its edge lists, grouped, are the spans of the turns."""
    rng = random.Random(23)
    rings = list(_COMPETING_FAULTS)
    for _ in range(300):  # random staircase rings with collinear and repeated points
        ring = _random_ring(rng, 10, rng.randint(4, 12))
        rings += [ring, _pad_ring(ring, rng)]
    for p in list(polygons.values())[:40]:
        rings.append(_pad_ring(list(p.outer), rng))
        rings += [list(h) for h in p.holes]
    for _ in range(400):
        rings.append(_random_walk(rng, rng.randint(3, 10)))
    # spurs out of every vertex, along and across its edges, at every rotation:
    # at index 0, across the wrap-around and mid-ring
    base = _pad_ring(_rect(0, 0, 6, 4), random.Random(1))
    for i in range(len(base)):
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            spiked = _spiked(base, i, d, rng.randint(1, 3))
            rings += [spiked[k:] + spiked[:k] for k in range(len(spiked))]
    # straight runs that collapse below four vertices before a spur is reached
    rings += [[(1, 0), (2, 0), (3, 0), (0, 0)],
              [(0, 0), (1, 0), (2, 0), (2, 2), (2, 1), (2, 0), (5, 0), (0, 0)],
              [(0, 0), (0, 1), (0, 2), (0, 3), (3, 3), (0, 3)]]
    # coordinates at and past the 32-bit limit and of other types than int,
    # which miss the plain-int fast path, alone and mixed with plain ints
    rings += _limit_rings(random.Random(37))
    kinds = collections.Counter()
    for raw in rings:
        want = _normalize_outcome(loop_normalize_ring, raw)
        assert _normalize_outcome(pass_by_pass_normalize_ring, raw) == want, raw
        got = _normalize_outcome(_ring_pass, raw)
        if isinstance(want[1], str):
            assert got == want, raw
            # the message without its points and numbers
            kinds[" ".join(re.sub(r"\([^)]*\)-?|\d+", "", want[1].split(": ", 1)[1]).split())] += 1
        else:
            assert got[:2] == want and got[2] == _line_spans([want[0]]), raw
            assert all(type(t) is int for v in got[0] for t in v), raw
            kinds["ok"] += 1
    assert set(kinds) == {
        "ok", "boundary doubles back at", "collapses to fewer than vertices", "zero area",
        "edge is not axis-parallel", "coordinate of is not an integer",
        "coordinate outside -bit range:", "fewer than distinct vertices",
        "not a list of [x, y] integer pairs"}, kinds
    for raw, want in zip(_COMPETING_FAULTS, [
            "edge (3, 1)-(1, 3) is not axis-parallel", "edge (0, 3)-(1, 0) is not axis-parallel",
            "coordinate of (2, 3.5) is not an integer", "coordinate of (2, 0.5) is not an integer",
            "coordinate outside 32-bit range: (0, 2147483648)",
            "coordinate outside 32-bit range: (-2147483648, 4)",
            "coordinate outside 32-bit range: (2147483648, 0)"]):
        assert _normalize_outcome(_ring_pass, raw)[1] == f"ring 0: {want}", raw


def _random_edge_sets(rng, count):
    """Up to four lines of up to two edges each, every line's spans strictly
    increasing, on a grid of six coordinates: runs cross, touch and nest."""
    for _ in range(count):
        yield {a: sorted(rng.sample(range(6), 2 * rng.randint(1, 2)))
               for a in sorted(rng.sample(range(10), rng.randint(1, 4)))}


def test_sweep_matches_splice_reference(polygons):
    """The in-place sweep against the one that splices the touched runs:
    the same slices in the same order, or None for both, and every case of
    the in-place update is hit."""
    cases = collections.Counter()
    bench = {name: make() for name, make in _BENCH_SIZE.items()}
    for name, p in [*polygons.items(), *bench.items()]:
        for spans in p._spans:
            assert _sweep_slices(spans) == splice_sweep_slices(spans, cases), name
    crossing = 0
    for spans in _random_edge_sets(random.Random(29), 20000):
        got = _sweep_slices(spans)
        assert got == splice_sweep_slices(spans, cases), spans
        crossing += got is None
    assert 1000 <= crossing <= 19000, crossing
    kinds = ("gap", "split", "at lo", "at hi", "close", "bridge", "cross")
    assert set(cases) == set(kinds) and min(cases.values()) >= 500, cases


def _validate_outcome(fn, rings):
    """The polygon with both tables that validation keeps, or the error."""
    try:
        p = fn(rings)
    except sc.PolygonError as e:
        return (type(e), str(e))
    return p, p._spans, p._v_slices


def test_validate_matches_splice_reference(polygons):
    """validate_polygon against the same steps on the reference ring pass
    and sweep: equal polygons, edge spans and vertical slices, or the same
    error type and message."""
    corpus = [*polygons.values(), *(make() for make in _BENCH_SIZE.values())]
    cases = [[list(r) for r in p.rings()] for p in corpus]
    cases += [[list(r)[::-1] for r in p.rings()] for p in corpus]
    rng = random.Random(31)
    cases += [[_pad_ring(list(r), rng) for r in p.rings()] for p in corpus]
    cases += list(_random_ring_sets(rng, 1500))
    kinds = collections.Counter()
    for rings in cases:
        want = _validate_outcome(splice_validate_polygon, rings)
        assert _validate_outcome(sc.validate_polygon, rings) == want, rings
        kinds[want[0] if isinstance(want[0], type) else "ok"] += 1
    assert min(kinds[k] for k in ("ok", SelfIntersection, HoleOutsideOuter)) >= 100, kinds


def _rank_types():
    """The rank rings of every hole-free polygon with at most 8 vertices.

    Such a polygon has at most 4 distinct x and 4 distinct y values, so
    its rank polygon is a union of cells of a 3x3 grid.
    """
    types = set()
    for p in enumerate_small_polygons(max_side=3):
        xr = {x: i for i, x in enumerate(sorted({x for x, _ in p.outer}))}
        yr = {y: j for j, y in enumerate(sorted({y for _, y in p.outer}))}
        types.add(tuple((xr[x], yr[y]) for x, y in p.outer))
    return types


def test_guard_small_matches_first_verified_guard():
    """guard_small's lookup by rank type against pixelating each polygon.

    Every rank type is taken under 100 random strictly increasing maps;
    narrow coordinate ranges put midlines on grid lines and make sums of
    cuts collide, where a metric test would tell the maps apart.
    """
    types = _rank_types()
    assert len(types) == 43
    polys = list(enumerate_small_polygons())
    rng = random.Random(12)
    for ranks in sorted(types):
        nx = 1 + max(x for x, _ in ranks)
        ny = 1 + max(y for _, y in ranks)
        for trial in range(100):
            span = (8, 40, 10**6)[trial % 3]
            xs = sorted(rng.sample(range(-span, span), nx))
            ys = sorted(rng.sample(range(-span, span), ny))
            polys.append(sc.validate_polygon([[(xs[i], ys[j]) for i, j in ranks]]))
    for seed in range(400):
        n = random.Random(seed).choice([4, 6, 8])
        polys.append(sc.gen_random_simple(n, seed + 7000))
    for p in polys:
        assert sc.guard_small(p) == loop_guard_small(p), p.outer


def _peel_outcome(fn, poly):
    try:
        sol, steps = fn(poly)
    except Exception as e:
        return (type(e), str(e))
    return sol.cameras, [(s.slices_removed, s.subpolygon, s.camera, s.remainder) for s in steps]


@functools.lru_cache(maxsize=1)
def _path_corpus():
    polys = [sc.gen_comb(k) for k in range(1, 61)]
    polys += [sc.gen_path_lb(k) for k in range(1, 27)]
    rng = random.Random(99)  # the staircases of test_path_guard_staircases
    polys += [staircase_polygon(rng.randint(1, 10), rng) for _ in range(25)]
    for n in range(12, 30, 2):  # random shapes whose dual is a path, refused ones too
        picked, seed = 0, 0
        while picked < 34:
            p = sc.gen_random_simple(n, seed)
            seed += 1
            if any(ref_path_order(sc.segmentation_dual(p, o)) is not None
                   for o in (VERTICAL, HORIZONTAL)):
                polys.append(p)
                picked += 1
    return tuple(polys)


def test_path_guard_matches_per_peel_reference():
    polys = _path_corpus()
    refused = 0
    for p in polys:
        want = _peel_outcome(loop_path_guard_steps, p)
        assert _peel_outcome(sc.path_guard_steps, p) == want, p
        refused += isinstance(want[0], type)
    assert 30 <= refused < len(polys) - 300


def test_path_guard_matches_its_steps():
    """path_guard asks for no remainders; its cameras, or the exception it
    raises, are path_guard_steps' on every shape, refused ones included,
    and the steps without remainders are the same steps with none."""
    refused = 0
    for p in _path_corpus():
        want = _peel_outcome(sc.path_guard_steps, p)
        try:
            got = sc.path_guard(p).cameras
        except Exception as e:
            got = (type(e), str(e))
        bare = _peel_outcome(lambda p: sc.path_guard_steps(p, remainders=False), p)
        if isinstance(want[0], type):
            assert got == bare == want, p
            refused += 1
        else:
            assert got == want[0], p
            assert bare == (want[0], [(*step[:3], None) for step in want[1]]), p
    assert refused >= 30


def test_path_cameras_are_the_extended_records():
    """A path solve carries its cameras as runs, and ``make_solution``
    builds each record once, with the hit set of the final verify's walk:
    each camera's ``hit_set`` is ``_segment_hit_mask`` of its key, and each
    step's camera is the solution's record for its key, equal to what
    ``extend_to_maximal`` returns for ``guard_small``'s camera of the
    piece.  With and without remainders, on the per-peel corpus, comb(400)
    and path_lb(160).  No solve falls back to the stabbing index: every
    camera run extends along a chain of slice sides."""
    solved = extended = 0
    for p in [*_path_corpus(), sc.gen_comb(400), sc.gen_path_lb(160)]:
        sc.geometry.pixelate.cache_clear()
        for remainders in (True, False):
            try:
                sol, steps = sc.path_guard_steps(p, remainders=remainders)
            except (sc.NotPathSegmentation, AssertionError):
                continue
            pix = sc.pixelate(p)
            for g in sol.cameras:
                assert g.id == -1 and g.hit_set == pix._segment_hit_mask(*g.key()), (p, g)
            records = {g.key(): g for g in sol.cameras}
            for step in steps:
                small = sc.guard_small(step.subpolygon)
                assert step.camera is records[step.camera.key()], p
                assert step.camera == extend_to_maximal(pix, small.orientation, small.anchor,
                                                        small.lo, small.hi), p
            solved += 1
            extended += len(steps) + 1
        assert sc.pixelate(p)._stabbing == {}, p
    assert solved > 600 and extended > 5000, (solved, extended)


def test_small_guard_memo_stays_bounded(monkeypatch):
    """Every piece of the per-peel corpus is looked up among the 43 rank types."""
    monkeypatch.setattr(gallery, "_SMALL_GUARDS", {})
    for p in _path_corpus():
        try:
            sc.path_guard_steps(p)
        except AssertionError:
            pass
    assert 10 <= len(gallery._SMALL_GUARDS) <= 43


def ref_slice_sides(pix, orientation):
    """The slice sides per grid line by ``setdefault`` and a sort of both lists."""
    out = {}
    for sid, (a0, lo, a1, hi) in enumerate(pix._chains[orientation]):
        out.setdefault(a1, ([], []))[0].append((lo, hi, sid))
        out.setdefault(a0, ([], []))[1].append((lo, hi, sid))
    for ending, starting in out.values():
        ending.sort()
        starting.sort()
    return out


def test_slice_sides_match_sorted_reference(polygons):
    """The kept slice sides, whose starting lists come unsorted in rect
    order, are the reference's: the same lines in the same order, the same
    lists.  A second read returns the kept dict."""
    shapes = [*polygons.values(), *(make() for make in _BENCH_SIZE.values())]
    for p in shapes:
        pix = sc.Pixelation(p)
        for o in (VERTICAL, HORIZONTAL):
            sides = pix._slice_sides(o)
            assert list(sides.items()) == list(ref_slice_sides(pix, o).items()), (p, o)
            assert pix._slice_sides(o) is sides


def test_slice_path_matches_path_order_reference(polygons):
    """path_guard_steps' path test reads each orientation's dual as the
    reference reads slice_dual, so trying V, then H, gives the same
    orientation and order.  On the per-peel corpus, the bench's combs and
    spirals, holed shapes and random shapes of n = 12..60, most of which
    are not path-dual."""
    shapes = [*_path_corpus(), *polygons.values()]
    shapes += [sc.gen_comb(k) for k in (*range(20, 201, 15), 400)]
    shapes += [sc.gen_path_lb(k) for k in (10, 20, 30, 40, 48, 160)]
    shapes += [gen_random_holed(s) for s in range(12, 24)]
    shapes += [_holed_grid(g, g + 1, g) for g in (2, 4)]
    for n in range(12, 62, 2):
        for seed in range(8):
            try:
                shapes.append(sc.gen_random_simple(n, seed))
            except sc.GenerationFailed:
                pass
    kinds = collections.Counter()
    for p in shapes:
        pix = sc.pixelate(p)
        for o in (VERTICAL, HORIZONTAL):
            want = ref_path_order(pix.slice_dual(o))
            assert gallery._slice_path(pix._slice_sides(o), len(pix._chains[o])) == want, (p, o)
            kinds[want is not None, bool(p.holes)] += 1
    assert kinds[True, False] > 400 and kinds[False, False] > 400 and kinds[False, True] > 40, kinds


def test_reflex_at_matches_reflex_vertices(polygons, monkeypatch):
    """The seam-end reflex test is membership in reflex_vertices: at every
    ring vertex, holes included, on its line of either orientation, and at
    both ends of every seam that path_guard_steps meets, ends that lie
    strictly inside an edge included; no seam ends at a convex vertex."""
    for p in [*polygons.values(), *_path_corpus()]:
        pix = sc.pixelate(p)
        reflex = set(reflex_vertices(p))
        for o, ends in ((VERTICAL, pix._v_spans), (HORIZONTAL, pix._h_spans)):
            sides = pix._slice_sides(o)
            for ring in p.rings():
                for x, y in ring:
                    a, c = (x, y) if o == VERTICAL else (y, x)
                    assert gallery._reflex_at(ends[a], sides[a], c) == ((x, y) in reflex), (p, x, y)
    met = []
    shared = gallery._shared_side

    def recorded(c1, c2):
        met.append(shared(c1, c2))
        return met[-1]

    monkeypatch.setattr(gallery, "_shared_side", recorded)
    kinds = collections.Counter()
    for p in _path_corpus():
        met.clear()
        try:
            sc.path_guard_steps(p)
        except AssertionError:
            pass
        pix = sc.pixelate(p)
        vertical = ref_path_order(pix.slice_dual(VERTICAL)) is not None
        ends = pix._v_spans if vertical else pix._h_spans
        sides = pix._slice_sides(VERTICAL if vertical else HORIZONTAL)
        reflex = set(reflex_vertices(p))
        for a, c0, c1 in met:
            for c in (c0, c1):
                t = (a, c) if vertical else (c, a)
                assert gallery._reflex_at(ends[a], sides[a], c) == (t in reflex), (p, t)
                kinds[t in reflex, t in p.outer] += 1
    assert kinds[True, True] > 1000 and kinds[False, False] > 1000 and len(kinds) == 2, kinds


def test_small_guard_run_matches_guard_small(monkeypatch):
    """Every piece that path_guard_steps looks up, the last piece of each
    solve included, is a normalised ring, and its run is the orientation,
    anchor, lo and hi of guard_small's record for it."""
    rings = set()
    lookup = gallery._small_guard

    def recorded(ring):
        rings.add(tuple(ring))
        return lookup(ring)

    monkeypatch.setattr(gallery, "_small_guard", recorded)
    for p in _path_corpus():
        try:
            sc.path_guard_steps(p)
        except AssertionError:
            pass
    monkeypatch.undo()
    assert len(rings) > 200
    for ring in rings:
        poly = sc.validate_polygon([ring])
        assert poly.outer == ring
        g = sc.guard_small(poly)
        assert gallery._small_guard(ring)[0] == (g.orientation, g.anchor, g.lo, g.hi), ring


_TABLES = ("x_cuts", "y_cuts", "_v_spans", "_h_spans", "_chains", "h_supports", "v_supports",
           "_sigma_lines", "_slice_cross_mask", "guard_runs", "guard_masks")


def test_close_cut_arc_matches_validate_polygon(monkeypatch):
    """Both parts of every cut of the per-peel corpus, refused peels
    included.  Every fourth pixelates to the tables of its validated twin,
    though it builds its spans and vertical slices on first read and the
    twin takes those of its validation."""
    arcs = []
    cut = gallery._cut

    def recorded(*args):
        parts = cut(*args)
        assert parts[1] is not None  # path_guard_steps builds remainders by default
        arcs.extend(parts)
        return parts

    monkeypatch.setattr(gallery, "_cut", recorded)
    for p in _path_corpus():
        try:
            sc.path_guard_steps(p)
        except AssertionError:
            pass
    merged = collections.Counter()
    for k, arc in enumerate(arcs):
        want = sc.validate_polygon([arc])
        got = close_cut_arc(arc)
        assert got == want, arc
        if k % 4 == 0:
            assert "_v_slices" not in vars(got), arc
            pix, twin = sc.Pixelation(got), sc.Pixelation(want)
            assert [getattr(pix, t) for t in _TABLES] == [getattr(twin, t) for t in _TABLES], arc
        merged[len(arc) - want.n] += 1
    assert sorted(merged) == [0, 1, 2], merged


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _loop_sign(x):
    return (x > 0) - (x < 0)


def loop_corner_notch(ring, rng):
    """A convex corner's notch as drawn by gen_random_simple, unchecked."""
    n = len(ring)
    i = rng.randrange(n)
    p, v, q = ring[(i - 1) % n], ring[i], ring[(i + 1) % n]
    d1 = (_loop_sign(v[0] - p[0]), _loop_sign(v[1] - p[1]))
    d2 = (_loop_sign(q[0] - v[0]), _loop_sign(q[1] - v[1]))
    if d1[0] * d2[1] - d1[1] * d2[0] <= 0:
        return None
    len1 = abs(v[0] - p[0]) + abs(v[1] - p[1])
    len2 = abs(q[0] - v[0]) + abs(q[1] - v[1])
    if len1 < 2 or len2 < 2:
        return None
    a = rng.randint(1, min(3, len1 - 1))
    b = rng.randint(1, min(3, len2 - 1))
    A = (v[0] - a * d1[0], v[1] - a * d1[1])
    M = (A[0] + b * d2[0], A[1] + b * d2[1])
    C = (v[0] + b * d2[0], v[1] + b * d2[1])
    return ring[:i] + [A, M, C] + ring[i + 1:]


def loop_edge_notch(ring, rng):
    """An edge's notch as drawn by gen_random_simple, unchecked."""
    n = len(ring)
    i = rng.randrange(n)
    u, v = ring[i], ring[(i + 1) % n]
    d = (_loop_sign(v[0] - u[0]), _loop_sign(v[1] - u[1]))
    inward = (-d[1], d[0])
    length = abs(v[0] - u[0]) + abs(v[1] - u[1])
    if length < 3:
        return None
    off = rng.randint(1, length - 2)
    width = rng.randint(1, min(3, length - off - 1))
    depth = rng.randint(1, 3)
    e1 = (u[0] + off * d[0], u[1] + off * d[1])
    e2 = (e1[0] + depth * inward[0], e1[1] + depth * inward[1])
    e3 = (e2[0] + width * d[0], e2[1] + width * d[1])
    e4 = (e1[0] + width * d[0], e1[1] + width * d[1])
    return ring[:i + 1] + [e1, e2, e3, e4] + ring[i + 1:]


def loop_try_random_simple(n, rng):
    """One try of gen_random_simple that validates every notched ring in full."""
    size = max(6, n)
    w, h = rng.randint(5, size), rng.randint(5, size)
    ring = [(0, 0), (w, 0), (w, h), (0, h)]
    while len(ring) < n:
        remaining = n - len(ring)
        want_edge_notch = remaining >= 4 and rng.random() < 0.35
        for _ in range(40):
            cand = (loop_edge_notch(ring, rng) if want_edge_notch
                    else loop_corner_notch(ring, rng))
            if cand is None:
                continue
            try:
                poly = sc.validate_polygon([cand])
            except sc.PolygonError:
                continue
            if poly.n == len(cand) and len(cand) == len(ring) + (4 if want_edge_notch else 2):
                ring = [tuple(v) for v in poly.outer]
                break
        else:
            return None
    try:
        return sc.validate_polygon([ring])
    except sc.PolygonError:
        return None


def loop_random_simple(n, seed):
    rng = random.Random(f"simple:{n}:{seed}")
    for _ in range(300):
        poly = loop_try_random_simple(n, rng)
        if poly is not None:
            return poly
    raise sc.GenerationFailed(f"could not generate a simple polygon with n={n}")


def _gen_outcome(fn, *args):
    try:
        return fn(*args)
    except sc.GenerationFailed as e:
        return (type(e), str(e))


def test_random_simple_matches_validate_per_notch_reference():
    """The local notch test accepts exactly the notches whose ring validates:
    every shape, and every give-up, is the per-notch reference's."""
    cases = [(n, seed) for n in range(4, 61, 2) for seed in range(40)]
    cases += [(n, seed) for n in range(80, 161, 20) for seed in range(5)]
    cases.append((200, 0))
    failed = []
    for n, seed in cases:
        want = _gen_outcome(loop_random_simple, n, seed)
        assert _gen_outcome(sc.gen_random_simple, n, seed) == want, (n, seed)
        if isinstance(want, tuple):
            failed.append((n, seed))
    assert (200, 0) in failed


def test_path_lb_matches_traced_spiral_cells():
    for k in range(1, 81):
        assert sc.gen_path_lb(k) == sc.validate_polygon([_boundary_corners(_spiral_cells(k))]), k


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------

def loop_greedy(inst):
    """The picks of a scan over every guard per pick, most gain first and the
    lowest id among equals."""
    masks = inst.pix.guard_masks
    uncovered = inst.wanted
    picked = []
    while uncovered:
        best, best_gain = None, -1
        for g in sorted(inst.universe):
            gain = (masks[g] & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = g, gain
        picked.append(best)
        uncovered &= ~masks[best]
    return picked


def test_greedy_matches_scan_loop():
    """Spirals, where greedy takes about n/2 cameras; a comb, whose base
    camera sees everything in msc and mvsc; a random shape; holed grids."""
    shapes = {f"path_lb{k}": sc.gen_path_lb(k) for k in (80, 160, 320)}
    shapes["comb800"] = sc.gen_comb(800)
    shapes["rand160"] = sc.gen_random_simple(160, 1)
    shapes.update((f"grid{g}x{g}", _holed_grid(g, g, g)) for g in (6, 9, 14))
    for name, p in shapes.items():
        pix = sc.Pixelation(p)
        for mode in ("msc", "mhsc", "mvsc"):
            inst = sc.solve.instance_for_mode(pix, mode)
            assert sc.greedy_cover(inst).guard_ids == tuple(sorted(loop_greedy(inst))), (name, mode)


# ---------------------------------------------------------------------------
# Net finders and the reweighting loop
# ---------------------------------------------------------------------------

def loop_heavy_sets(inst, r):
    W = inst.total_weight()
    sets = loop_sets(inst.pix, inst.xprime, inst.universe)
    return [c for c in inst.xprime
            if sum(inst.weight_of(g) for g in sets[c]) * r.numerator >= W * r.denominator]


def loop_weighted_sample(rng, items, weights, k):
    cum = []
    total = 0
    for w in weights:
        total += w
        cum.append(total)
    picked = set()
    for _ in range(k):
        t = rng.randrange(total)
        lo, hi = 0, len(cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] > t:
                hi = mid
            else:
                lo = mid + 1
        picked.add(items[lo])
    return picked


def loop_find_net(inst, req):
    """find_net over the per-cross guard sets, with its own budget and sampling loop."""
    if not inst.feasible:
        raise sc.Infeasible("net finder needs a feasible instance")
    r = _as_fraction(req.r)
    if r < 1:
        raise ValueError("net parameter r must be at least 1")
    budget = req.budget(len(inst.xprime))
    universe = sorted(inst.universe)
    if budget >= len(universe):
        return frozenset(universe)
    weights = [inst.weight_of(g) for g in universe]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    sets = loop_sets(inst.pix, inst.xprime, inst.universe)
    heavy = loop_heavy_sets(inst, r)
    rng = random.Random(f"net:{req.seed}")
    for _ in range(50):
        net = loop_weighted_sample(rng, universe, weights, budget)
        if all(sets[c] & net for c in heavy):
            return frozenset(net)
    raise sc.BudgetInsufficient(f"no valid net of size {budget} found in 50 attempts")


def loop_subinstance_net(sub, req):
    """The orientation-part copy of the loop, dropping heavy sets left empty."""
    r = _as_fraction(req.r)
    budget = req.budget(len(sub.xprime))
    universe = sorted(sub.universe)
    if budget >= len(universe):
        return frozenset(universe)
    weights = [sub.weight_of(g) for g in universe]
    sets = loop_sets(sub.pix, sub.xprime, sub.universe)
    heavy = [c for c in loop_heavy_sets(sub, r) if sets[c]]
    rng = random.Random(f"net:{req.seed}")
    for _ in range(50):
        net = loop_weighted_sample(rng, universe, weights, budget)
        if all(sets[c] & net for c in heavy):
            return frozenset(net)
    raise sc.BudgetInsufficient(f"no valid net of size {budget} found in 50 attempts")


def loop_combined_net(inst, req):
    r = _as_fraction(req.r)
    parts = []
    for orientation, tag in ((HORIZONTAL, "h"), (VERTICAL, "v")):
        sub = inst.restrict_orientation(orientation)
        if not sub.universe:
            continue
        sub_req = NetRequest(r=2 * r, seed=f"{req.seed}:{tag}", net_constant=req.net_constant)
        parts.append(loop_subinstance_net(sub, sub_req))
    net = frozenset().union(*parts) if parts else frozenset()
    sets = loop_sets(inst.pix, inst.xprime, inst.universe)
    if not all(sets[c] & net for c in loop_heavy_sets(inst, r)):
        raise sc.BudgetInsufficient("combined net failed verification at parameter r")
    return net


def loop_net_budget(inst, r, net_constant):
    m = len(inst.xprime)
    single = math.ceil(net_constant * float(r) * math.log(max(2, m)))
    if len(inst.orientations()) > 1:
        return 2 * math.ceil(net_constant * float(2 * r) * math.log(max(2, m)))
    return single


def loop_bg(inst, seed=0, net_constant=4.0, round_constant=4.0):
    """bg_hitting_set with a geometric verify of every net and the witness's guard set."""
    if not inst.feasible:
        raise sc.Infeasible(f"crosses {inst.infeasible_crosses} cannot be hit")
    universe = sorted(inst.universe)
    if not inst.xprime:
        sol = make_solution(inst.pix, inst.xprime, [], "bg")
        return sc.ApproxReport(solution=sol, opt_guess_history=(), iterations=0,
                               net_sizes=(), terminating_k=0, budget_at_2k=0, budget_at_4k=0)
    mixed = len(inst.orientations()) > 1
    sets = loop_sets(inst.pix, inst.xprime, inst.universe)
    guesses, net_sizes, iterations, k = [], [], 0, 1
    while True:
        guesses.append(k)
        cutoff = max(1, math.ceil(round_constant * k * math.log2(max(2.0, len(universe) / k))))
        weights = {g: 1 for g in universe}
        for rnd in range(cutoff):
            iterations += 1
            winst = inst.with_weights(weights)
            req = NetRequest(r=Fraction(2 * k), seed=f"{seed}:{k}:{rnd}",
                             net_constant=net_constant)
            net = loop_combined_net(winst, req) if mixed else loop_find_net(winst, req)
            net_sizes.append(len(net))
            uncovered, _ = loop_verify_cover(inst.pix, sorted(net), inst.xprime)
            if not uncovered:
                return sc.ApproxReport(
                    solution=make_solution(inst.pix, inst.xprime, sorted(net), "bg"),
                    opt_guess_history=tuple(guesses), iterations=iterations,
                    net_sizes=tuple(net_sizes), terminating_k=k,
                    budget_at_2k=loop_net_budget(inst, Fraction(2 * k), net_constant),
                    budget_at_4k=loop_net_budget(inst, Fraction(4 * k), net_constant))
            witness = uncovered[0]
            w_set = sum(weights[g] for g in sets[witness])
            if w_set * 2 * k > sum(weights.values()):
                raise AssertionError("witness set is heavy; net verification is broken")
            for g in sets[witness]:
                weights[g] *= 2
        k *= 2
        if k > 4 * len(universe) + 4:
            raise AssertionError("reweighting loop failed to terminate")


def _net_outcome(fn, inst, req):
    try:
        return fn(inst, req)
    except (sc.BudgetInsufficient, sc.Infeasible, ValueError) as e:
        return (type(e), str(e))


def _net_corpus():
    """test_approx's weighted corpora and acceptance 6's 200 weighted instances."""
    out = [(inst, r, str(seed))
           for count, tag in ((200, "net"), (10, "det"), (200, "comb"))
           for inst, r, seed in weighted_instances(count, tag)]
    for seed in range(200):
        inst = sc.build_instance(sc.pixelate(
            sc.gen_random_simple(4 + 2 * (seed % 5), seed + 30_000)))
        rng = random.Random(f"acc6:{seed}")
        weights = {g: rng.randint(1, 100) for g in inst.universe}
        out.append((inst.with_weights(weights), Fraction(rng.randint(1, 8)), f"acc6:{seed}"))
    return out


def test_nets_match_per_cross_set_loops():
    outcomes = collections.Counter()
    for inst, r, seed in _net_corpus():
        uni = len(inst.universe)
        scale = float(r) * math.log(max(2, len(inst.xprime)))
        # the default budget usually takes the whole universe; net constants
        # that give find_net a budget of 1, 2, 3 or uni // 2 sample
        for budget in (None, 1, 2, 3, uni // 2):
            constant = DEFAULT_NET_CONSTANT if budget is None else (budget - 0.5) / scale
            req = NetRequest(r=r, seed=seed, net_constant=constant)
            assert budget is None or req.budget(len(inst.xprime)) == budget
            for fn, ref in ((sc.find_net, loop_find_net), (sc.combined_net, loop_combined_net)):
                want = _net_outcome(ref, inst, req)
                assert _net_outcome(fn, inst, req) == want, (seed, budget, fn.__name__)
                outcomes["error" if isinstance(want, tuple) else "net"] += 1
        # an orientation part, with nets that also hold guards outside its universe
        for part in (inst, inst.restrict_orientation(HORIZONTAL)):
            assert heavy_sets(part, r) == loop_heavy_sets(part, r), seed
            for net in (frozenset(), frozenset(inst.universe[::2]), frozenset(inst.universe)):
                sets = loop_sets(part.pix, part.xprime, part.universe)
                want = all(sets[c] & net for c in loop_heavy_sets(part, r))
                assert is_net(part, net, r) == want, seed
    assert outcomes["net"] > 1000 and outcomes["error"] > 100, outcomes


def _bg_corpus():
    """Acceptance 5's 200 instances, a quarter of them also in mhsc and mvsc,
    and msc / mhsc / mvsc instances of combs, spirals and larger random shapes."""
    out = []
    for seed in range(200):
        pix = sc.pixelate(sc.gen_random_simple(4 + 2 * (seed % 5), seed + 20_000))
        out.append((sc.build_instance(pix), seed))
        if seed % 4 == 0:
            out += [(oriented_instance(pix, (o,)), seed) for o in (HORIZONTAL, VERTICAL)]
    polys = [sc.gen_comb(k) for k in range(3, 13)] + [sc.gen_path_lb(k) for k in range(1, 5)]
    polys += [sc.gen_random_simple(n, s) for n in (20, 30, 40) for s in range(5)]
    for seed, p in enumerate(polys):
        pix = sc.pixelate(p)
        out.append((sc.build_instance(pix), seed))
        out += [(oriented_instance(pix, (o,)), seed) for o in (HORIZONTAL, VERTICAL)]
    return out


def _bg_outcome(fn, inst, **kw):
    try:
        return fn(inst, **kw)
    except (sc.BudgetInsufficient, sc.Infeasible) as e:
        return (type(e), str(e))


def test_bg_reports_match_verify_per_round_loop():
    rounds = 0
    for inst, seed in _bg_corpus():
        # the default constants stop after one round (the net is the whole
        # universe); a small net constant makes the loop sample and reweight
        for net_constant in (4.0, 0.5, 0.25):
            want = _bg_outcome(loop_bg, inst, seed=seed, net_constant=net_constant)
            got = _bg_outcome(sc.bg_hitting_set, inst, seed=seed, net_constant=net_constant)
            assert got == want, (seed, net_constant)
            if isinstance(want, sc.ApproxReport):
                assert got.solution.guard_ids == want.solution.guard_ids
                rounds += want.iterations
    assert rounds > 1500, rounds


# ---------------------------------------------------------------------------
# Nice decomposition
# ---------------------------------------------------------------------------

@dataclass
class _NiceNode:
    kind: str                      # leaf | introduce | forget | join
    bag: tuple                     # sorted
    vertex: object = None
    children: tuple = ()


def _sorted_bag(bag):
    return tuple(sorted(bag))


def _make_nice(td):
    """Binary nice decomposition with an empty root bag: loop_dp's input.

    Children are binarized into joins over the parent bag; between bags,
    forgets run before introduces.  The list is ordered so that children
    always precede their parent; the last node is the empty root.
    """
    nodes = []

    def add(node):
        nodes.append(node)
        return len(nodes) - 1

    def chain(from_idx, from_bag, to_bag):
        cur_idx, cur = from_idx, sorted(from_bag)
        for v in _sorted_bag(from_bag - to_bag):
            cur.remove(v)
            cur_idx = add(_NiceNode("forget", tuple(cur), v, (cur_idx,)))
        for v in _sorted_bag(to_bag - from_bag):
            bisect.insort(cur, v)
            cur_idx = add(_NiceNode("introduce", tuple(cur), v, (cur_idx,)))
        return cur_idx

    adj = td.neighbors()
    # depth-first from bag 0 with an explicit stack of (bag, parent, children
    # left, finished child chains); a finished bag chains into its parent's bag
    stack = [(0, -1, iter(sorted(adj[0])), [])]
    while True:
        b, parent, todo, kid_idxs = stack[-1]
        nb = next(todo, None)
        if nb is not None:
            if nb != parent:
                stack.append((nb, b, iter(sorted(adj[nb])), []))
            continue
        bag = set(td.bags[b])
        if kid_idxs:
            top = kid_idxs[0]
            for k in kid_idxs[1:]:
                top = add(_NiceNode("join", _sorted_bag(bag), None, (top, k)))
        else:
            top = chain(add(_NiceNode("leaf", (), None, ())), set(), bag)
        stack.pop()
        if not stack:
            break
        stack[-1][3].append(chain(top, bag, set(td.bags[parent])))
    chain(top, set(td.bags[0]), set())
    return nodes


def loop_make_nice(td):
    """_make_nice built by recursion, raising the interpreter's recursion limit."""
    nodes = []

    def add(node):
        nodes.append(node)
        return len(nodes) - 1

    def chain(from_idx, from_bag, to_bag):
        cur_idx, cur = from_idx, set(from_bag)
        for v in _sorted_bag(from_bag - to_bag):
            cur = cur - {v}
            cur_idx = add(_NiceNode("forget", _sorted_bag(cur), v, (cur_idx,)))
        for v in _sorted_bag(to_bag - from_bag):
            cur = cur | {v}
            cur_idx = add(_NiceNode("introduce", _sorted_bag(cur), v, (cur_idx,)))
        return cur_idx

    adj = td.neighbors()

    def build(b, parent):
        bag = set(td.bags[b])
        kid_idxs = []
        for nb in sorted(adj[b]):
            if nb != parent:
                sub = build(nb, b)
                kid_idxs.append(chain(sub, set(td.bags[nb]), bag))
        if not kid_idxs:
            leaf = add(_NiceNode("leaf", (), None, ()))
            return chain(leaf, set(), bag)
        cur = kid_idxs[0]
        for k in kid_idxs[1:]:
            cur = add(_NiceNode("join", _sorted_bag(bag), None, (cur, k)))
        return cur

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(td.bags) + 100))
    try:
        top = build(0, -1)
    finally:
        sys.setrecursionlimit(old)
    chain(top, set(td.bags[0]), set())
    return nodes


def _acceptance4_polygons():
    polys = [sc.gen_thin_tree(1 + s % 5, s) for s in range(50)]
    seed = 0
    randoms = 0
    while randoms < 50:
        p = sc.gen_random_simple(4 + 2 * (seed % 5), seed + 10_000)
        pix = sc.pixelate(p)
        if lift_decomposition(decompose(dual_graph(pix)), sc.build_auxiliary_graph(pix), pix).width <= 13:
            polys.append(p)
            randoms += 1
        seed += 1
    return polys


def test_make_nice_matches_recursive_builder():
    polys = _acceptance4_polygons()
    polys += [sc.gen_comb(k) for k in range(1, 31)] + [sc.gen_path_lb(k) for k in range(1, 13)]
    for p in polys:
        pix = sc.pixelate(p)
        td = decompose(dual_graph(pix))
        for t in (td, lift_decomposition(td, sc.build_auxiliary_graph(pix), pix)):
            assert _make_nice(t) == loop_make_nice(t), p


# ---------------------------------------------------------------------------
# Min-fill elimination and the DP
# ---------------------------------------------------------------------------

# slice-segment states of loop_dp
_S_FREE = 0      # unhit, nothing depends on it
_S_HIT = 1       # intersected by a selected guard
_S_NEEDED = 2    # unhit, but some cross committed to it


def loop_decompose(adj):
    """decompose recounting the fill of every remaining vertex at each elimination.

    It leaves the components of a disconnected graph as separate trees,
    where ``decompose`` chains them into one.
    """
    vertices = sorted(adj)
    if not vertices:
        raise ValueError("empty graph")
    work = {v: set(adj[v]) for v in vertices}

    order = []
    bag_of = {}
    while work:
        def fill(v):
            ns = sorted(work[v])
            cnt = 0
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    if ns[j] not in work[ns[i]]:
                        cnt += 1
            return cnt

        v = min(work, key=lambda u: (fill(u), u))
        ns = sorted(work[v])
        bag_of[v] = frozenset([v, *ns])
        order.append(v)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                work[ns[i]].add(ns[j])
                work[ns[j]].add(ns[i])
        for u in ns:
            work[u].discard(v)
        del work[v]

    elim_index = {v: i for i, v in enumerate(order)}
    bags = [bag_of[v] for v in order]
    edges = []
    for i, v in enumerate(order):
        later = [u for u in bag_of[v] if u != v and elim_index[u] > i]
        if later:
            j = elim_index[min(later, key=lambda u: elim_index[u])]
            edges.append((min(i, j), max(i, j)))
    return sc.TreeDecomposition(bags=tuple(bags), edges=tuple(sorted(set(edges))))


def loop_dp(nodes, H):
    """Minimum cover on a decomposition with cross vertices, on tuple states.

    One entry per bag vertex in bag order, and a cross is satisfied or not;
    the oracle for _dp, which runs on the contraction of the same
    decomposition, over the support graph.
    """
    adj = H.adj

    order = []
    seen = [False] * len(nodes)

    def post(i: int):
        stack = [(i, False)]
        while stack:
            n, done = stack.pop()
            if done:
                order.append(n)
                continue
            if seen[n]:
                continue
            seen[n] = True
            stack.append((n, True))
            for ch in nodes[n].children:
                stack.append((ch, False))

    root = len(nodes) - 1
    post(root)

    tables = {}

    for idx in order:
        node = nodes[idx]
        bag = node.bag
        pos = {v: i for i, v in enumerate(bag)}
        table = {}

        def put(state, cost, back):
            cur = table.get(state)
            if cur is None or cost < cur[0]:
                table[state] = (cost, back)

        if node.kind == "leaf":
            table[()] = (0, ("leaf",))

        elif node.kind == "introduce":
            child = nodes[node.children[0]]
            v = node.vertex
            p = pos[v]
            cpos = {u: i for i, u in enumerate(child.bag)}
            nbrs = adj.get(v, frozenset())
            for cstate, (cost, _) in tables[node.children[0]].items():
                def insert(val, extra=()):
                    st = list(cstate)
                    st.insert(p, val)
                    for (u, uv) in extra:
                        st[pos[u]] = uv
                    return tuple(st)

                if v[0] == "g":
                    put(insert(0), cost, ("intro", cstate))
                    # selecting the guard upgrades its slice-segments in the
                    # bag and satisfies crosses adjacent to those segments
                    upgraded = []
                    for u in bag:
                        if u[0] == "s" and u in nbrs and u != v:
                            old = cstate[cpos[u]]
                            if old in (_S_FREE, _S_NEEDED):
                                upgraded.append(u)
                    extra = [(u, _S_HIT) for u in upgraded]
                    for u in upgraded:
                        for c in adj.get(u, ()):
                            if c[0] == "c" and c in pos and c != v:
                                if cstate[cpos[c]] == 0:
                                    extra.append((c, 1))
                    put(insert(1, extra), cost + 1, ("intro", cstate))

                elif v[0] == "s":
                    hit = any(u[0] == "g" and u in nbrs and cstate[cpos[u]] == 1
                              for u in child.bag)
                    if hit:
                        extra = []
                        for c in adj.get(v, ()):
                            if c[0] == "c" and c in pos and cstate[cpos[c]] == 0:
                                extra.append((c, 1))
                        put(insert(_S_HIT, extra), cost, ("intro", cstate))
                    else:
                        put(insert(_S_FREE), cost, ("intro", cstate))
                        # commit every unsatisfied adjacent cross to this
                        # segment in one branch; committing a subset is never
                        # better
                        takers = [c for c in adj.get(v, ())
                                  if c[0] == "c" and c in pos and cstate[cpos[c]] == 0]
                        if takers:
                            extra = [(c, 1) for c in takers]
                            put(insert(_S_NEEDED, extra), cost, ("intro", cstate))

                else:  # cross
                    done = False
                    for s in adj.get(v, ()):
                        if s in pos and s != v and s[0] == "s":
                            sv = cstate[cpos[s]]
                            if sv in (_S_HIT, _S_NEEDED):
                                done = True
                                break
                    if done:
                        put(insert(1), cost, ("intro", cstate))
                    else:
                        put(insert(0), cost, ("intro", cstate))
                        for s in sorted(adj.get(v, ())):
                            if s in pos and s[0] == "s" and cstate[cpos[s]] == _S_FREE:
                                put(insert(1, [(s, _S_NEEDED)]), cost, ("intro", cstate))

        elif node.kind == "forget":
            child = nodes[node.children[0]]
            v = node.vertex
            cp = {u: i for i, u in enumerate(child.bag)}[v]
            for cstate, (cost, _) in tables[node.children[0]].items():
                val = cstate[cp]
                if v[0] == "s" and val == _S_NEEDED:
                    continue  # promised segment was never hit
                if v[0] == "c" and val == 0:
                    continue  # cross left unsatisfied
                st = cstate[:cp] + cstate[cp + 1:]
                put(st, cost, ("forget", cstate))

        else:  # join
            left, right = node.children
            gpos = [i for i, u in enumerate(bag) if u[0] == "g"]
            groups = {}
            for rstate in tables[right]:
                groups.setdefault(tuple(rstate[i] for i in gpos), []).append(rstate)
            for lstate, (lcost, _) in tables[left].items():
                key = tuple(lstate[i] for i in gpos)
                dup = sum(key)
                for rstate in groups.get(key, ()):
                    rcost = tables[right][rstate][0]
                    merged = []
                    for i, u in enumerate(bag):
                        a, b = lstate[i], rstate[i]
                        if u[0] == "g":
                            merged.append(a)
                        elif u[0] == "c":
                            merged.append(max(a, b))
                        else:
                            if _S_HIT in (a, b):
                                merged.append(_S_HIT)
                            elif _S_NEEDED in (a, b):
                                merged.append(_S_NEEDED)
                            else:
                                merged.append(_S_FREE)
                    put(tuple(merged), lcost + rcost - dup, ("join", lstate, rstate))

        tables[idx] = table

    root_table = tables[root]
    if () not in root_table:
        return None

    # traceback: collect guards selected at their introduce nodes
    selected = set()
    stack = [(root, ())]
    while stack:
        idx, state = stack.pop()
        node = nodes[idx]
        entry = tables[idx].get(state)
        back = entry[1]
        if back[0] == "leaf":
            continue
        if back[0] == "intro":
            child_state = back[1]
            v = node.vertex
            if v[0] == "g":
                p = {u: i for i, u in enumerate(node.bag)}[v]
                if state[p] == 1:
                    selected.add(v[1])
            stack.append((node.children[0], child_state))
        elif back[0] == "forget":
            stack.append((node.children[0], back[1]))
        else:
            stack.append((node.children[0], back[1]))
            stack.append((node.children[1], back[2]))
    return frozenset(selected)


def traceback_bag_dp(td, S):
    """``_bag_dp`` as it was with back-pointers: each table keeps, per
    state, the state it came from (a join's two states packed as
    ``left << 2W | right``), each step the id of each guard it introduces
    by its bit, and a traceback walk down the tree from the root's state 0
    collects the guards.  Same states, costs, tables and tie-breaking."""
    adj, universe = S.adj, S.universe
    n, ng = len(adj), len(universe)
    order, kids, slot = _slots(td, n)
    parent = [-1] * len(td.bags)
    for b, cs in enumerate(kids):
        for c in cs:
            parent[c] = b
    # a vertex's slot bit, and that bit only for a guard or only for a
    # segment: bag vertices hold distinct slots, so sums of bits are ORs
    bit = [1 << i for i in slot]
    guard_bit = bit[:ng] + [0] * (n - ng)
    seg_bit = [0] * ng + bit[ng:]
    width = td.width + 1
    low, half = (1 << width) - 1, 2 * width

    def step(costs, old, new):
        """The table ``costs`` over bag ``old`` as one over bag ``new``, and
        the id of each guard it introduces by its bit."""
        cur = set(old)
        forgets = []
        for v in old - new:  # in any order: the state comes out the same
            cur.discard(v)
            need = sum(map(seg_bit.__getitem__, cur & adj[v])) if v >= ng else 0
            forgets.append((bit[v], bit[v] << width, need))
        # each subset of the new guards, unselected first, as the bits it
        # sets and keeps: selecting a guard hits its segments in the new bag
        # and drops their "needed"; a new segment is also hit by a selected
        # kept guard that meets it
        picks = [(0, -1, 0)]
        guards = {}
        segments = []
        for v in sorted(new - old):  # guards first; cur now holds the kept vertices
            if v < ng:
                mask = sum(map(bit.__getitem__, new & adj[v]))
                guards[bit[v]] = universe[v]
                picks = [p for on, keep, k in picks
                         for p in ((on, keep, k), (on | bit[v] | mask, keep & ~(mask << width), k + 1))]
            else:
                mask = sum(map(guard_bit.__getitem__, cur & adj[v]))
                if mask:
                    segments.append((bit[v], mask))
        out = {}
        back = {}
        for st0, cost in costs.items():
            st = st0
            for b, dead, need in forgets:
                if st & dead:
                    break
                if st & b:
                    st ^= b
                elif need:
                    st |= (need & ~st) << width
            else:
                for on, keep, k in picks:
                    s = (st | on) & keep
                    for b, mask in segments:
                        if s & mask:
                            s |= b
                    best = out.get(s)
                    if best is None or cost + k < best:
                        out[s] = cost + k
                        back[s] = st0
        return out, back, guards

    def join(left, right, gmask):
        """Guards agree; hit ORs, needed stays unless hit."""
        groups = {}
        for rst in right:
            groups.setdefault(rst & gmask, []).append(rst)
        out = {}
        back = {}
        for lst, lcost in left.items():
            key = lst & gmask
            base = lcost - key.bit_count()
            for rst in groups.get(key, ()):
                full = lst | rst
                full &= ~((full & low) << width)
                cost = base + right[rst]
                best = out.get(full)
                if best is None or cost < best:
                    out[full] = cost
                    back[full] = lst << half | rst
        return out, back

    empty = frozenset()
    # the (costs, back, guards) each bag sends up to its parent, each leaf's
    # start from the empty bag, and the back dicts joining a bag's children
    # in turn.  Tables are dicts of ints only, which the garbage collector
    # does not track.
    sent = [()] * len(td.bags)
    starts = {}
    joins = {}
    tables = []
    for b in reversed(order):  # children before their parent
        bag = td.bags[b]
        if kids[b]:
            ins = [sent[c] for c in kids[b]]
        else:
            ins = [step({0: 0}, empty, bag)]
            starts[b] = ins[0]
        costs = ins[0][0]
        tables.append(costs)
        if len(ins) > 1:
            gmask = sum(map(guard_bit.__getitem__, bag))
            joins[b] = []
            for other, _, _ in ins[1:]:
                costs, back = join(costs, other, gmask)
                joins[b].append(back)
                tables += (other, costs)
        if parent[b] >= 0:
            sent[b] = step(costs, bag, td.bags[parent[b]])
    final, root_back, _ = step(costs, td.bags[0], empty)
    if 0 not in final:
        return None, tables

    # traceback: unwind each bag's joins, then collect the guards each
    # table it received selected where it introduced them
    picked = set()
    rmask = (1 << half) - 1
    stack = [(0, root_back[0])]
    while stack:
        b, st = stack.pop()
        if not kids[b]:
            picked.update(g for gb, g in starts[b][2].items() if st & gb)
            continue
        states = []
        for back in reversed(joins.get(b, ())):
            pair = back[st]
            st = pair >> half
            states.append(pair & rmask)
        states.append(st)
        for c, st in zip(kids[b], reversed(states)):
            _, back, guards = sent[c]
            picked.update(g for gb, g in guards.items() if st & gb)
            stack.append((c, back[st]))
    return frozenset(picked), tables


def _synthetic_graphs():
    """Graphs that stress the fill bookkeeping, by name.

    A star (the comb's base camera is such a hub), a clique, a cycle, a
    grid, the support graph of comb(30), and random G(n, p), with int and
    with ("g", i) / ("s", i) labels; several are disconnected.
    """
    def from_edges(vertices, edges):
        adj = {v: set() for v in vertices}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def labelled(adj):
        name = {v: ("g" if v % 3 == 0 else "s", v) for v in adj}
        return {name[v]: frozenset(name[u] for u in ns) for v, ns in adj.items()}

    graphs = {
        "star60": from_edges(range(61), [(0, i) for i in range(1, 61)]),
        "k8": from_edges(range(8), [(a, b) for a in range(8) for b in range(a + 1, 8)]),
        "c30": from_edges(range(30), [(i, (i + 1) % 30) for i in range(30)]),
        "grid6x6": from_edges(range(36), [(6 * r + c, 6 * r + c + 1) for r in range(6) for c in range(5)]
                              + [(6 * r + c, 6 * r + c + 6) for r in range(5) for c in range(6)]),
        "comb30_support": support_of(sc.build_auxiliary_graph(sc.pixelate(sc.gen_comb(30)))),
    }
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(5, 40)
        p = rng.choice([0.05, 0.1, 0.2, 0.4])
        graphs[f"gnp{seed}"] = from_edges(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)
                                                     if rng.random() < p])
    for name in ("star60", "grid6x6", "gnp0", "gnp1", "gnp2", "gnp3"):
        graphs[f"{name}_labelled"] = labelled(graphs[name])
    return graphs


def test_decompose_matches_full_recompute_on_synthetic_graphs():
    """The kept fill counts give loop_decompose's elimination where deltas pile
    up: a hub losing its leaves, a clique, cycles, grids and random graphs.
    On a disconnected graph loop_decompose leaves one tree per component,
    so there only the bags, in elimination order, are compared."""
    disconnected = 0
    for name, adj in _synthetic_graphs().items():
        td, ref = decompose(adj), loop_decompose(adj)
        connected = len(ref.edges) == len(adj) - 1
        disconnected += not connected
        assert (td if connected else td.bags) == (ref if connected else ref.bags), name
        ok, wit = validate_decomposition(td, adj, [(u, v) for u in adj for v in adj[u]])
        assert ok, (name, wit)
        assert is_tree({i: frozenset(ns) for i, ns in td.neighbors().items()}), name
    assert disconnected >= 3, disconnected


def test_decompose_matches_full_recompute(polygons):
    """Identical output on the connected dual, auxiliary and support graphs of the corpus."""
    polys = dict(polygons)
    polys["comb50"] = sc.gen_comb(50)
    for n in (40, 60, 80):
        polys[f"rand{n}_1"] = sc.gen_random_simple(n, 1)
    for name, p in polys.items():
        pix = sc.pixelate(p)
        H = sc.build_auxiliary_graph(pix)
        for graph in (dual_graph(pix), H.adj, support_of(H)):
            assert decompose(graph) == loop_decompose(graph), name


def test_contract_matches_scan_over_every_bag(polygons):
    """Scanning the shorter of the two supports' bag lists finds the same first
    bag as scanning every bag, on the corpus and on comb(60), whose base
    midline sits in most bags; the decompositions, in H's nodes, are mapped
    onto the support graph's ids, with or without cross vertices."""
    polys = dict(polygons)
    polys["comb60"] = sc.gen_comb(60)
    for name, p in polys.items():
        pix = sc.pixelate(p)
        H = sc.build_auxiliary_graph(pix)
        S = sc.build_support_graph(pix, H.xprime, H.universe)
        lifted = lift_decomposition(decompose(dual_graph(pix)), H, pix)
        for td in (lifted, decompose(support_of(H)), decompose(H.adj)):
            full = _with_crosses(_numbered(td, S), S)
            ref = with_leaf_bags(td, H)
            assert (full.bags, full.edges) == (ref.bags, ref.edges), name


def assert_auxiliary_graph_matches_walk(pix, xs, gids, name):
    """H built from S equals the walk's H, and the lift reads the same
    crosses and guards off S as off H."""
    H, ref = sc.build_auxiliary_graph(pix, xs, gids), loop_auxiliary_graph(pix, xs, gids)
    assert H.adj == ref.adj, name
    assert H.nodes() == ref.nodes(), name
    assert H.edges() == ref.edges(), name
    assert H == ref, name
    S = sc.build_support_graph(pix, H.xprime, H.universe)
    td = decompose(dual_graph(pix))
    assert lift_decomposition(td, S, pix) == lift_decomposition(td, H, pix), name


def test_auxiliary_graph_matches_walk(polygons):
    for name, p in polygons.items():
        assert_auxiliary_graph_matches_walk(sc.pixelate(p), None, None, name)
    for i, (pix, xs, gids) in enumerate(_restricted_instances()):
        assert_auxiliary_graph_matches_walk(pix, xs, gids, i)


@pytest.mark.parametrize("name", sorted(_BENCH_SIZE))
def test_auxiliary_graph_matches_walk_at_bench_size(name):
    pix = sc.pixelate(_BENCH_SIZE[name]())
    for mode in ("msc", "mhsc"):
        inst = sc.solve.instance_for_mode(pix, mode)
        assert_auxiliary_graph_matches_walk(pix, inst.xprime, inst.universe, (name, mode))


def _restricted_instances():
    """Random X' with orientation-restricted guards or one to three random guards.

    The few-guard ones are often infeasible.
    """
    rng = random.Random(23)
    out = []
    for seed in range(160):
        pix = sc.pixelate(sc.gen_random_simple(4 + 2 * (seed % 6), seed + 2500))
        xs = sorted(rng.sample(range(len(pix.crosses)), rng.randint(1, len(pix.crosses))))
        if seed % 4 == 3:
            gids = sorted(rng.sample(range(len(pix.guards)), rng.randint(1, 3)))
        else:
            orientation = rng.choice([("H",), ("V",), ("H", "V")])
            gids = [g.id for g in sc.guard_segments(pix, orientation)]
        out.append((pix, xs, gids))
    return out


def _dp_cases():
    """Acceptance polygons and restricted instances with their auxiliary graph
    and its lifted and min-fill decompositions."""
    cases = [(sc.pixelate(p), None, None) for p in _acceptance4_polygons()]
    cases += _restricted_instances()
    for pix, xs, gids in cases:
        H = sc.build_auxiliary_graph(pix, xprime=xs, gammaprime=gids)
        S = sc.build_support_graph(pix, H.xprime, H.universe)
        lifted = lift_decomposition(decompose(dual_graph(pix)), H, pix)
        yield pix, xs, gids, H, S, lifted, decompose(H.adj)


def test_dp_matches_tuple_state_reference():
    """The bag-by-bag DP has loop_dp's optimum (or None).

    loop_dp runs on the nice form of the lifted and min-fill decompositions
    as they are, cross vertices included; _bag_dp runs on their
    contraction's bag tree on the support graph's ids.
    """
    solved = infeasible = narrower = 0
    for pix, xs, gids, H, S, lifted, minfill in _dp_cases():
        narrower += minfill.width < lifted.width
        for td in (lifted, minfill):
            if td.width > 13:
                continue
            picked, tables = _bag_dp(_numbered(td, S), S)
            ref = loop_dp(_make_nice(td), H)
            assert max(map(len, tables)) >= 1
            if ref is None:
                assert picked is None
                infeasible += 1
                continue
            assert len(picked) == len(ref), (pix.polygon, xs, gids)
            assert sc.verify_cover(pix, sorted(picked), xs).covered
            solved += 1
    assert solved > 400 and infeasible > 10 and narrower > 200, (solved, infeasible, narrower)


def _dp_shapes():
    """comb, path_lb, thin_tree and random shapes, each with its support
    graph and min-fill decomposition (as a solve builds them) in msc and in
    mhsc (horizontal cameras only)."""
    polys = [sc.gen_comb(k) for k in (2, 7, 60)] + [sc.gen_path_lb(k) for k in (3, 5, 12)]
    polys += [sc.gen_thin_tree(b, seed) for b, seed in ((4, 1), (10, 2), (40, 3))]
    polys += [sc.gen_random_simple(n, seed) for n, seed in ((12, 4), (18, 5), (30, 6), (60, 7))]
    for p in polys:
        pix = sc.pixelate(p)
        for orientations in (("H", "V"), ("H",)):
            inst = oriented_instance(pix, orientations)
            S = sc.build_support_graph(pix, inst.xprime, inst.universe)
            yield pix, orientations, S, decompose(S.adj)


def test_bag_dp_matches_traceback_reference():
    """Carrying each state's selection picks the very guards the
    back-pointer traceback picks, through the same tables, on the lifted
    and min-fill decompositions of the DP cases and on min-fill of the
    support graph of each shape in msc and mhsc: ties break alike."""
    solved = infeasible = 0
    cases = [(pix, (xs, gids), S, _numbered(td, S)) for pix, xs, gids, H, S, lifted, minfill in _dp_cases()
             for td in (lifted, minfill) if td.width <= 13]
    for pix, name, S, cf in itertools.chain(cases, _dp_shapes()):
        picked, tables = _bag_dp(cf, S)
        ref_picked, ref_tables = traceback_bag_dp(cf, S)
        assert picked == ref_picked, (pix.polygon, name)
        assert tables == ref_tables, (pix.polygon, name)
        solved += picked is not None
        infeasible += picked is None
    assert solved > 500 and infeasible > 10, (solved, infeasible)


def test_slots_are_distinct_in_bags_and_states_fit_the_width():
    """On the contraction of the lifted decomposition and of min-fill on S
    and on H, each bag's vertices hold distinct slots below width + 1, and
    every state the DP keeps fits in 2 * (width + 1) bits."""
    checked = 0
    for pix, xs, gids, H, S, lifted, minfill in _dp_cases():
        for td in (lifted, decompose(support_of(H)), minfill):
            if td.width > 13:
                continue
            cf = _numbered(td, S)
            width = cf.width + 1
            slot = _slots(cf, len(S.adj))[2]
            for bag in cf.bags:
                slots = {slot[v] for v in bag}
                assert len(slots) == len(bag) and max(slots) < width, (pix.polygon, xs, gids, bag)
            tables = _bag_dp(cf, S)[1]
            assert all(0 <= st < 1 << 2 * width for t in tables for st in t), (pix.polygon, xs, gids)
            checked += 1
    assert checked > 600, checked


def test_cross_free_decomposition_is_valid_for_contracted_graph():
    """Contracting each cross into its vertical support leaves a tree
    decomposition of the guard/slice-segment graph plus one edge between
    the supports of each requested cross (the support graph), no wider than
    its input; one leaf bag per requested cross turns it back into a tree
    decomposition of the auxiliary graph, of width max(contracted width, 2)."""
    for pix, xs, gids, H, S, lifted, minfill in _dp_cases():
        vertices = [v for v in H.nodes() if v[0] != "c"]
        edges = [(u, v) for u, v in H.edges() if "c" not in (u[0], v[0])]
        edges += [tuple(sorted([("s", pix.crosses[c].v_support), ("s", pix.crosses[c].h_support)]))
                  for c in H.xprime]
        support = support_of(H)
        assert sorted(support) == sorted(vertices)
        assert sorted((u, v) for u in support for v in support[u] if u < v) == sorted(edges)
        for td in (lifted, minfill, decompose(support)):
            cf = _numbered(td, S)
            full = _with_crosses(cf, S)
            cf = sc.TreeDecomposition(bags=tuple(frozenset(map(S.node, bag)) for bag in cf.bags),
                                      edges=cf.edges)
            ok, wit = validate_decomposition(cf, vertices, edges)
            assert ok, (wit, pix.polygon, xs, gids)
            assert cf.width <= td.width
            ok, wit = validate_decomposition(full, H.nodes(), H.edges())
            assert ok, (wit, pix.polygon, xs, gids)
            assert is_tree({i: frozenset(ns) for i, ns in full.neighbors().items()})
            assert full.width == (max(cf.width, 2) if H.xprime else cf.width)
