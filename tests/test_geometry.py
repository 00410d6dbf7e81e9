import json
from fractions import Fraction

import pytest

import slidecam as sc
from slidecam.exact import make_solution
from slidecam.geometry import GuardSegment

from conftest import (LSHAPE, NOTCHED_HOLE, RECT, extend_to_maximal, ref_counts, ref_path_order,
                      ref_point_inside, reflex_vertices)
from test_reference_equivalence import GridPixelation, loop_verify_cover


# ---------------------------------------------------------------------------
# validate_polygon
# ---------------------------------------------------------------------------

def test_validate_rectangle():
    p = sc.validate_polygon(RECT)
    assert p.n == 4
    assert p.outer == ((0, 0), (4, 0), (4, 4), (0, 4))


def test_validate_lshape_reflex():
    p = sc.validate_polygon(LSHAPE)
    assert p.n == 6
    assert reflex_vertices(p) == [(1, 1)]


def test_validate_diagonal_rejected():
    with pytest.raises(sc.NonOrthogonalEdge):
        sc.validate_polygon([[(0, 0), (3, 1), (0, 2)]])


def test_validate_rejects_non_integer_coordinates():
    for ring in ([(0, 0), (2.5, 0), (2.5, 2), (0, 2)],
                 [(0, 0), (Fraction(5, 2), 0), (Fraction(5, 2), 2), (0, 2)],
                 [(0, 0), (2, 0), (2, float("nan")), (0, 2)]):
        with pytest.raises(sc.PolygonError):
            sc.validate_polygon([ring])
    assert sc.validate_polygon([[(0, 0), (2.0, 0), (2, 2), (0, Fraction(2))]]).outer == (
        (0, 0), (2, 0), (2, 2), (0, 2))


def test_validate_merges_collinear():
    p = sc.validate_polygon([[(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)]])
    assert p.n == 4


def test_validate_rejects_self_intersection():
    with pytest.raises(sc.SelfIntersection):
        sc.validate_polygon([[(0, 0), (4, 0), (4, 2), (2, 2), (2, -1), (1, -1), (1, 2), (0, 2)]])


def test_validate_rejects_spur():
    with pytest.raises((sc.SelfIntersection, sc.DegenerateRing)):
        sc.validate_polygon([[(0, 0), (4, 0), (6, 0), (4, 0), (4, 4), (0, 4)]])


def test_validate_hole_containment():
    with pytest.raises(sc.HoleOutsideOuter):
        sc.validate_polygon([[(0, 0), (4, 0), (4, 4), (0, 4)],
                             [(5, 5), (5, 6), (6, 6), (6, 5)]])
    with pytest.raises((sc.HoleOutsideOuter, sc.SelfIntersection)):
        sc.validate_polygon([[(0, 0), (4, 0), (4, 4), (0, 4)],
                             [(0, 1), (0, 2), (2, 2), (2, 1)]])


def test_validate_orientation_normalized():
    cw = [[(0, 0), (0, 4), (4, 4), (4, 0)]]
    p = sc.validate_polygon(cw)
    assert p.area2() > 0
    hole = [[(0, 0), (10, 0), (10, 10), (0, 10)], [(2, 2), (5, 2), (5, 5), (2, 5)]]
    p2 = sc.validate_polygon(hole)
    from slidecam.geometry import _signed_area2
    assert _signed_area2(list(p2.holes[0])) < 0


def test_pixelate_reuses_the_validation_sweep(monkeypatch, corpus):
    """``validate_polygon`` builds the edge spans and sweeps the vertical
    slices, and the pixelation shares both: validating and pixelating runs
    ``_sweep_slices`` once per orientation, and the cameras need no more."""
    sweep = sc.geometry._sweep_slices
    calls = []

    def counted(spans):
        calls.append(spans)
        return sweep(spans)

    monkeypatch.setattr(sc.geometry, "_sweep_slices", counted)
    for name, p in corpus.items():
        calls.clear()
        sc.geometry.pixelate.cache_clear()
        q = sc.validate_polygon([list(r) for r in p.rings()])
        pix = sc.pixelate(q)
        assert pix.guard_masks, name
        assert len(calls) == 2 and calls[0] is q._spans[0] and calls[1] is q._spans[1], name
        assert pix._v_spans is q._spans[0] and pix._h_spans is q._spans[1], name
        assert pix._chains[sc.VERTICAL] is q._v_slices, name


def _solve_outcome(poly, algo):
    try:
        sol, _ = sc.solve_polygon(poly, algo=algo)
    except (sc.SlidecamError, AssertionError) as e:
        return (type(e), str(e))
    return (sol.size, sol.cameras)


def test_valid_polygons_never_reach_the_fault_search(monkeypatch, corpus):
    """The contact search and the hole scan run only to name a rejection:
    with both raising, every polygon of the corpus validates to itself and
    every solve gives what it gave without them."""
    algos = ("exact", "greedy", "bg", "dp", "path")
    want = {(name, algo): _solve_outcome(p, algo) for name, p in corpus.items() for algo in algos}

    def fail(*args):
        raise AssertionError("a valid polygon reached the fault search")

    monkeypatch.setattr(sc.geometry, "_first_contact", fail)
    monkeypatch.setattr(sc.geometry, "_point_in_ring", fail)
    for name, p in corpus.items():
        q = sc.validate_polygon([list(r) for r in p.rings()])
        assert q == p, name
        for algo in algos:
            assert _solve_outcome(q, algo) == want[name, algo], (name, algo)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_segmentation_lshape():
    p = sc.validate_polygon(LSHAPE)
    v = sorted(s.rect for s in sc.segmentation(p, "V"))
    assert v == [(0, 0, 1, 2), (1, 0, 2, 1)]
    h = sorted(s.rect for s in sc.segmentation(p, "H"))
    assert h == [(0, 0, 2, 1), (0, 1, 1, 2)]


def test_segmentation_rectangle():
    p = sc.validate_polygon(RECT)
    assert len(sc.segmentation(p, "V")) == 1
    assert len(sc.segmentation(p, "H")) == 1


def test_slices_partition_area(corpus):
    for name, p in corpus.items():
        area2 = p.area2()
        for o in ("H", "V"):
            slices = sc.segmentation(p, o)
            total = sum(2 * (s.rect[2] - s.rect[0]) * (s.rect[3] - s.rect[1]) for s in slices)
            assert total == area2, name
            # interior-disjoint: pairwise rectangle interiors must not overlap
            for i in range(len(slices)):
                for j in range(i + 1, len(slices)):
                    a, b = slices[i].rect, slices[j].rect
                    assert (min(a[2], b[2]) <= max(a[0], b[0])
                            or min(a[3], b[3]) <= max(a[1], b[1])), name


# ---------------------------------------------------------------------------
# pixelate
# ---------------------------------------------------------------------------

def test_pixelate_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    assert len(pix.pixels) == 1
    assert len(pix.crosses) == 1
    assert pix.dual_edges == ()


def test_pixelate_lshape():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    assert len(pix.pixels) == 3
    assert len(pix.crosses) == 3
    # dual graph is a path on three vertices
    degs = sorted(sum(1 for e in pix.dual_edges if v in e) for v in range(3))
    assert degs == [1, 1, 2]


def test_pixelate_counts_vs_reference(corpus):
    for name in ("rect", "lshape", "comb3", "spiral2", "notched_hole", "rand1", "rand3"):
        p = corpus[name]
        pix = sc.pixelate(p)
        nv, nh, npix = ref_counts(p)
        assert len(pix.slices_v) == nv, name
        assert len(pix.slices_h) == nh, name
        assert len(pix.pixels) == npix, name


def test_pixel_area_partition(corpus):
    for name, p in corpus.items():
        pix = sc.pixelate(p)
        total = sum(2 * (r[2] - r[0]) * (r[3] - r[1]) for r in (px.rect for px in pix.pixels))
        assert total == p.area2(), name


def test_crosses_match_pixels(corpus):
    for name, p in corpus.items():
        pix = sc.pixelate(p)
        assert len(pix.crosses) == len(pix.pixels), name
        for cr in pix.crosses:
            x2, y2 = cr.point2
            xl, yl, xh, yh = pix.pixels[cr.pixel_id].rect
            assert 2 * xl <= x2 <= 2 * xh and 2 * yl <= y2 <= 2 * yh, name


def test_pixelation_not_just_vertex_grid():
    """A wide hole keeps the bottom strip a single pixel across grid cells."""
    pix = sc.pixelate(sc.validate_polygon(NOTCHED_HOLE))
    strips = [p for p in pix.pixels if p.rect == (1, 0, 9, 4)]
    assert len(strips) == 1


# ---------------------------------------------------------------------------
# guards and hits
# ---------------------------------------------------------------------------

def test_rectangle_canonical_guards():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    assert len(pix.guards) == 2
    assert {g.orientation for g in pix.guards} == {"H", "V"}
    for g in pix.guards:
        assert g.hit_set == 0b1


def test_lshape_canonical_h_guards():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    hs = {(g.anchor, g.lo, g.hi) for g in sc.guard_segments(pix, ("H",))}
    assert (0, 0, 2) in hs
    assert (2, 0, 1) in hs


def test_lshape_hits_examples():
    p = sc.validate_polygon(LSHAPE)
    pix = sc.pixelate(p)
    by_rect = {pix.pixels[c.pixel_id].rect: c for c in pix.crosses}
    c_upper = by_rect[(0, 1, 1, 2)]
    c_right = by_rect[(1, 0, 2, 1)]
    g_bottom = GuardSegment(orientation="H", anchor=0, lo=0, hi=2)
    g_top = GuardSegment(orientation="H", anchor=2, lo=0, hi=1)
    assert sc.hits(g_bottom, c_upper, pix)
    assert not sc.hits(g_top, c_right, pix)
    # a guard along a pixel's side hits that pixel's cross
    for px in pix.pixels:
        xl, yl, xh, yh = px.rect
        g = GuardSegment(orientation="H", anchor=yl, lo=xl, hi=xh)
        assert sc.hits(g, pix.crosses[px.id], pix)


def test_guard_maximality_on_lshape():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    for g in pix.guards:
        ext = extend_to_maximal(pix, g.orientation, g.anchor, g.lo, g.hi)
        assert (ext.lo, ext.hi) == (g.lo, g.hi)


def test_visible_region_examples():
    p = sc.validate_polygon(LSHAPE)
    pix = sc.pixelate(p)
    g_bottom = GuardSegment(orientation="H", anchor=0, lo=0, hi=2)
    assert sc.visible_region(pix, g_bottom) == {0, 1, 2}
    g_right = GuardSegment(orientation="V", anchor=2, lo=0, hi=1)
    rects = {pix.pixels[i].rect for i in sc.visible_region(pix, g_right)}
    assert rects == {(0, 0, 1, 1), (1, 0, 2, 1)}


def test_rect_visible_region():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    g = next(g for g in pix.guards if g.orientation == "H")
    assert sc.visible_region(pix, g) == {0}


def test_hit_visibility_agreement(corpus):
    """visible_region membership coincides with hits for every guard/cross pair."""
    for name, p in corpus.items():
        pix = sc.pixelate(p)
        assert len(pix.crosses) <= 200
        for g in pix.guards:
            vis = sc.visible_region(pix, g)
            for cross in pix.crosses:
                assert (cross.pixel_id in vis) == sc.hits(g, cross, pix), name
            assert vis == {c for c in range(len(pix.crosses)) if g.hit_set >> c & 1}, name


def test_parallel_shift_maximality(corpus):
    """Non-maximal sub-segments see no more than their maximal extension."""
    import random
    rng = random.Random(7)
    for name in ("lshape", "comb3", "spiral2", "rand0", "rand4", "notched_hole"):
        pix = sc.pixelate(corpus[name])
        for g in pix.guards:
            units = g.hi - g.lo
            if units < 1:
                continue
            lo = g.lo + rng.randint(0, units - 1) if units > 1 else g.lo
            hi = rng.randint(lo + 1, g.hi)
            sub = GuardSegment(orientation=g.orientation, anchor=g.anchor, lo=lo, hi=hi)
            ext = extend_to_maximal(pix, g.orientation, g.anchor, lo, hi)
            assert sc.visible_region(pix, sub) <= sc.visible_region(pix, ext), name


def test_thin_tree_duals(corpus):
    from slidecam.treewidth import dual_graph, is_tree
    for name, p in corpus.items():
        pix = sc.pixelate(p)
        if pix.is_thin() and not p.holes:
            assert is_tree(dual_graph(pix)), name


# ---------------------------------------------------------------------------
# verify_cover
# ---------------------------------------------------------------------------

def test_verify_cover_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    g = next(g for g in pix.guards if g.orientation == "H")
    assert sc.verify_cover(pix, [g.id]).covered


def test_verify_cover_lshape_single_guard():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    g = GuardSegment(orientation="H", anchor=0, lo=0, hi=2)
    report = sc.verify_cover(pix, [g])
    assert report.covered
    assert set(report.certificate) == {0, 1, 2}


def test_verify_cover_comb_single_tooth():
    p = sc.gen_comb(3)
    pix = sc.pixelate(p)
    tooth0 = [g for g in sc.guard_segments(pix, ("H",)) if g.anchor == 0]
    report = sc.verify_cover(pix, [g.id for g in tooth0])
    assert not report.covered
    # the other two teeth remain unseen
    uncovered_rects = {pix.pixels[c].rect for c in report.uncovered}
    assert (1, 2, 2, 3) in uncovered_rects and (1, 4, 2, 5) in uncovered_rects


def test_verify_cover_deterministic_order():
    pix = sc.pixelate(sc.gen_comb(3))
    report = sc.verify_cover(pix, [])
    assert report.uncovered == tuple(sorted(report.uncovered))


def test_verify_cover_rejects_unknown_cross_ids():
    pix = sc.pixelate(sc.gen_comb(3))
    for cid in (-1, len(pix.h_supports)):
        with pytest.raises(ValueError, match="cross id"):
            sc.verify_cover(pix, [], [0, cid])


def test_camera_ids_outside_the_cameras_are_rejected():
    """comb(3) has 7 cameras: ids -1, -4, 7 and 99 name none of them, and
    each call raises rather than reading the tables from the end or past it."""
    pix = sc.pixelate(sc.gen_comb(3))
    n = len(pix.guard_masks)
    assert n == 7
    for gid in (-1, -4, n, 99):
        with pytest.raises(ValueError, match=rf"camera id {gid} is not in 0\.\.{n - 1}"):
            pix.guard(gid)
        with pytest.raises(ValueError, match="camera id"):
            sc.verify_cover(pix, [0, gid])
        with pytest.raises(ValueError, match="camera id"):
            make_solution(pix, range(len(pix.h_supports)), [gid, 3], "custom")
    assert pix.guard(n - 1).id == n - 1
    assert make_solution(pix, range(len(pix.h_supports)), list(range(n)), "custom").guard_ids == tuple(range(n))


# ---------------------------------------------------------------------------
# segmentation dual
# ---------------------------------------------------------------------------

def test_segmentation_dual_shapes():
    rect = sc.validate_polygon(RECT)
    assert sc.segmentation_dual(rect, "V") == {0: set()}
    lshape = sc.validate_polygon(LSHAPE)
    adj = sc.segmentation_dual(lshape, "V")
    assert len(adj) == 2 and all(len(v) == 1 for v in adj.values())
    spiral = sc.gen_path_lb(3)
    assert ref_path_order(sc.segmentation_dual(spiral, "V")) is not None


def test_inside_matches_reference(corpus):
    for name in ("lshape", "notched_hole", "spiral2", "rand2"):
        p = corpus[name]
        pix = GridPixelation(p)
        for i in range(len(pix.x_cuts) - 1):
            for j in range(len(pix.y_cuts) - 1):
                cx = Fraction(pix.x_cuts[i] + pix.x_cuts[i + 1], 2)
                cy = Fraction(pix.y_cuts[j] + pix.y_cuts[j + 1], 2)
                assert (pix.pixel[i][j] >= 0) == ref_point_inside(p, cx, cy), name


def _sigma_cross(sv, sh):
    # vertical midline against horizontal midline, closed semantics
    return (2 * sh.lo <= sv.anchor2 <= 2 * sh.hi
            and 2 * sv.lo <= sh.anchor2 <= 2 * sv.hi)


def test_cross_count_equals_crossing_pairs(corpus):
    """Crosses, pixels and crossing slice-segment pairs are in bijection."""
    for name, p in corpus.items():
        pix = sc.pixelate(p)
        pairs = sum(1 for sv in pix.slices_v for sh in pix.slices_h
                    if _sigma_cross(sv.segment, sh.segment))
        assert pairs == len(pix.pixels) == len(pix.crosses), name


def test_guard_canonicalization(corpus):
    for name, p in corpus.items():
        pix = GridPixelation(p)
        seen = {}
        for g in pix.guards:
            key = (g.orientation, g.hit_set)
            assert key not in seen, name  # one guard per class
            seen[key] = g
        for raw in pix.raw_guards:
            rep = seen[(raw.orientation, raw.hit_set)]
            assert rep.key() <= raw.key(), name  # lexicographically smallest wins


MULTI_HOLE = [
    [(0, 0), (14, 0), (14, 10), (0, 10)],
    [(2, 2), (2, 4), (4, 4), (4, 2)],
    [(8, 6), (8, 8), (11, 8), (11, 6)],
    [(6, 1), (6, 3), (7, 3), (7, 1)],
]


def test_multi_hole_pixelation():
    p = sc.validate_polygon(MULTI_HOLE)
    pix = sc.pixelate(p)
    total = sum(2 * (r[2] - r[0]) * (r[3] - r[1]) for r in (px.rect for px in pix.pixels))
    assert total == p.area2()
    assert len(pix.crosses) == len(pix.pixels)
    sol = sc.brute_force_min_cover(sc.build_instance(pix))
    assert sc.verify_cover(pix, list(sol.guard_ids)).covered
    # horizontal cameras alone always suffice, holes or not
    hins = sc.build_instance(pix, gammaprime=[g.id for g in sc.guard_segments(pix, ("H",))])
    assert hins.feasible
    assert sc.brute_force_min_cover(hins).size <= p.n // 4


_ON_FIRST_READ = ("pixels", "dual_edges", "side_guards")


def _lazy_shape(shape):
    return {"comb10": lambda: sc.gen_comb(10),
            "spiral4": lambda: sc.gen_path_lb(4),
            "multi_hole": lambda: sc.validate_polygon(MULTI_HOLE)}[shape]()


@pytest.mark.parametrize("shape, algo", [
    *((shape, algo) for shape in ("comb10", "multi_hole") for algo in ("greedy", "exact", "bg", "dp")),
    ("comb10", "path"),
    *(("spiral4", algo) for algo in ("greedy", "exact", "bg", "dp", "path")),
    ("multi_hole", "path"),  # path refuses polygons with holes
    *((shape, "bounds") for shape in ("comb10", "multi_hole")),  # check_bounds
])
def test_solve_builds_no_product_it_does_not_read(shape, algo, monkeypatch):
    """Products only some solvers read are derived on first read: after a
    greedy, exact, bg or dp solve neither those nor the slices were built,
    and path builds no slice record and never the canonical guards or the
    runs behind them.  No solve builds the ``crosses``, ``sigmas`` or
    ``guards`` records: solvers read the int tables (``h_supports``,
    ``v_supports``, ``guard_runs``, ``guard_masks``) and the midline ids of
    ``sigma_ids_hit``, and ``make_solution`` builds only the records of the
    cameras it returns.  dp reads the dual edges and side guards only when
    it falls back to the lifted decomposition, which none of these shapes
    needs.  Path's refusal of a holed polygon builds none of them either,
    and nor does ``check_bounds``, which takes its horizontal cameras from
    ``guard_runs``.  No solve builds the per-cross certificate; read
    afterwards, it equals the guard-by-guard loop's."""
    witnessed = []
    witnesses = sc.geometry._witnesses
    monkeypatch.setattr(sc.geometry, "_witnesses", lambda *a: witnessed.append(1) or witnesses(*a))
    p = _lazy_shape(shape)
    sc.geometry.pixelate.cache_clear()
    sol = None
    if algo == "bounds":
        sc.check_bounds(p)
    elif p.holes and algo == "path":
        with pytest.raises(sc.NotPathSegmentation):
            sc.solve_polygon(p, algo=algo)
    else:
        sol, _ = sc.solve_polygon(p, algo=algo)
    pix = sc.pixelate(p)
    built = vars(pix)
    assert not [k for k in _ON_FIRST_READ if k in built]
    assert not [k for k in ("crosses", "sigmas", "guards", "slices_v", "slices_h") if k in built]
    if algo == "path":
        assert "guard_masks" not in built and "_masked_runs" not in built
    assert not witnessed
    if sol is not None:
        assert dict(sol.certificate) == loop_verify_cover(pix, sol.cameras)[1]
        assert len(witnessed) == 1


@pytest.mark.parametrize("shape", ["comb10", "spiral4", "multi_hole"])
def test_cli_solve_and_verify_read_no_cell_grid(tmp_path, shape):
    """The library keeps no cell grid (tests build them, see
    ``GridPixelation``), and a CLI greedy solve and its ``verify`` build
    none of the products derived on first read, nor the ``crosses``,
    ``sigmas`` or ``guards`` records."""
    from slidecam.cli import main

    p = _lazy_shape(shape)
    poly, sol = tmp_path / "poly.json", tmp_path / "sol.json"
    poly.write_text(json.dumps(p.to_dict()))
    sc.geometry.pixelate.cache_clear()
    assert main(["solve", str(poly), "--algo", "greedy", "--out", str(sol)]) == 0
    assert main(["verify", str(poly), str(sol)]) == 0
    assert not [k for k in ("vslice", "hslice", "pixel", "raw_guards") if hasattr(sc.Pixelation, k)]
    built = vars(sc.pixelate(p))
    assert not [k for k in (*_ON_FIRST_READ, "crosses", "sigmas", "guards") if k in built]


@pytest.mark.parametrize("shape", ["comb10", "spiral4", "multi_hole"])
def test_cli_pixelate_counts_from_the_tables(tmp_path, capsys, shape):
    """``slidecam pixelate`` prints the counts of the records without
    building them: the same line as counted from ``pixels``, ``crosses``,
    ``slices_h``, ``slices_v`` and ``guards``, and afterwards none of those
    records, nor ``sigmas``, exists on the cached pixelation."""
    from slidecam.cli import main

    p = _lazy_shape(shape)
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(p.to_dict()))
    sc.geometry.pixelate.cache_clear()
    capsys.readouterr()
    assert main(["pixelate", str(poly)]) == 0
    out = capsys.readouterr().out
    built = vars(sc.pixelate(p))
    assert not [k for k in ("pixels", "crosses", "slices_h", "slices_v", "guards", "sigmas")
                if k in built]
    ref = sc.Pixelation(p)
    assert out == (f"n={p.n} pixels={len(ref.pixels)} crosses={len(ref.crosses)} "
                   f"slices_h={len(ref.slices_h)} slices_v={len(ref.slices_v)} "
                   f"guards={len(ref.guards)}\n")


def test_polygon_dict_round_trip(corpus):
    for name, p in corpus.items():
        assert sc.OrthoPolygon.from_dict(p.to_dict()) == p, name


def test_closed_semantics_endpoint_touch():
    """Touching a support at a single boundary point counts as a hit."""
    p = sc.validate_polygon(LSHAPE)
    pix = sc.pixelate(p)
    # the top guard y=2 ends exactly on the left slice's midline x=0.5:
    # (0.5, 2) is the midline's upper endpoint, so the touch is a hit
    g_top = GuardSegment(orientation="H", anchor=2, lo=0, hi=1)
    upper = next(c for c in pix.crosses if pix.pixels[c.pixel_id].rect == (0, 1, 1, 2))
    lower = next(c for c in pix.crosses if pix.pixels[c.pixel_id].rect == (0, 0, 1, 1))
    assert sc.hits(g_top, upper, pix)
    assert sc.hits(g_top, lower, pix)  # same vertical support, endpoint touch
    # consistency both ways: the visible region contains exactly those pixels
    assert sc.visible_region(pix, g_top) == {upper.pixel_id, lower.pixel_id}


def _ref_segment_in_closed_polygon(poly, orientation, anchor, lo, hi):
    """Every point of the segment at a multiple of 1/2 lies in the closed polygon.

    Membership along a grid-parallel line changes only at integer
    coordinates, so those points decide it.  A point with half-integer
    coordinates is in the closed polygon iff one of its four diagonal
    neighbours at distance 1/4 on each axis is strictly inside.
    """
    q = Fraction(1, 4)
    for t2 in range(2 * lo, 2 * hi + 1):
        along = Fraction(t2, 2)
        x, y = (anchor, along) if orientation == "V" else (along, anchor)
        if not any(ref_point_inside(poly, x + dx, y + dy) for dx in (-q, q) for dy in (-q, q)):
            return False
    return True


def test_contains_segment_matches_point_sampling(corpus):
    """Cameras on grid lines and between them, past the polygon, and of length 0."""
    import random

    rng = random.Random(5)
    for name, poly in corpus.items():
        pix = sc.pixelate(poly)
        x0, y0, x1, y1 = poly.bbox()
        for _ in range(60):
            o = rng.choice("HV")
            a_lo, a_hi, s_lo, s_hi = (y0, y1, x0, x1) if o == "H" else (x0, x1, y0, y1)
            anchor = rng.randint(a_lo - 1, a_hi + 1)
            lo = rng.randint(s_lo - 1, s_hi)
            hi = rng.choice([lo, rng.randint(lo, s_hi + 1)])
            want = _ref_segment_in_closed_polygon(poly, o, anchor, lo, hi)
            assert pix.contains_segment(o, anchor, lo, hi) == want, (name, o, anchor, lo, hi)


@pytest.mark.parametrize("gen, args, algo", [("gen_path_lb", (160,), "path"), ("gen_comb", (400,), "path"),
                                             ("gen_random_simple", (160, 0), "greedy")])
def test_contains_segment_on_solver_covers_builds_no_segment_tree(gen, args, algo):
    """``verify``'s input check on a solver's cover: every camera runs
    along pixel edges, so each lies in a chain of slice sides on its line,
    and neither the solve nor the check builds the stabbing index."""
    p = getattr(sc, gen)(*args)
    sc.geometry.pixelate.cache_clear()
    sol, _ = sc.solve_polygon(p, algo=algo)
    pix = sc.pixelate(p)
    assert sol.size > 1
    assert all(pix.contains_segment(*g.key()) for g in sol.cameras)
    assert pix._stabbing == {}
