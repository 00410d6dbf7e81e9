import random

import pytest

import slidecam as sc
from slidecam import gallery
from slidecam.gallery import _boundary_corners
from slidecam.treewidth import dual_graph, is_tree

from conftest import LSHAPE, RECT, oriented_instance, ref_path_order, reflex_vertices


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_comb_counts_and_optima():
    for k in range(1, 6):
        p = sc.gen_comb(k)
        assert p.n == 4 * k
        pix = sc.pixelate(p)
        assert sc.brute_force_min_cover(oriented_instance(pix, ("H",))).size == k
        assert sc.brute_force_min_cover(sc.build_instance(pix)).size == 1


def test_gen_path_lb_counts_and_optima():
    for k in range(1, 5):
        p = sc.gen_path_lb(k)
        assert p.n == 6 * k - 2
        assert ref_path_order(sc.segmentation_dual(p, "V")) is not None
        pix = sc.pixelate(p)
        assert sc.brute_force_min_cover(sc.build_instance(pix)).size == k


def _spiral_cells(k):
    """The cells of gen_path_lb(k)'s spiral, stepped one by one along its legs."""
    turns = 3 * (k - 1)
    length = 3 * k - 1
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    x, y = 0, 0
    cells = {(x, y)}
    for leg in range(turns + 1):
        dx, dy = dirs[leg % 4]
        steps = (length - leg) - (1 if leg == 0 else 0)
        for _ in range(steps):
            x, y = x + dx, y + dy
            cells.add((x, y))
    return cells


def test_boundary_corners_are_the_polygon_vertices():
    rng = random.Random(5)
    cell_sets = [_spiral_cells(k) for k in range(1, 7)]
    cell_sets += [{(x, y) for x in range(4) for y in range(4) if rng.random() < 0.75}
                  for _ in range(200)]
    traced = 0
    for cells in cell_sets:
        try:
            ring = _boundary_corners(cells)
        except sc.GenerationFailed:  # pinched, holed or disconnected
            continue
        poly = sc.validate_polygon([ring])
        assert len(ring) == poly.n and set(ring) == set(poly.outer)
        traced += 1
    assert traced >= 20


def test_gen_random_simple_valid():
    for seed in range(30):
        n = 4 + 2 * (seed % 6)
        p = sc.gen_random_simple(n, seed)
        assert p.n == n
        assert not p.holes


def test_generators_validate_once(monkeypatch):
    """A random_simple try validates only its finished ring, each notch being
    checked locally, and the spiral's ring comes from its legs, not from
    tracing its cells."""
    calls, tries = [], []
    try_once = gallery._try_random_simple

    def counted(rings):
        calls.append(len(rings[0]))
        return sc.validate_polygon(rings)

    def one_try(n, rng):
        calls.clear()
        poly = try_once(n, rng)
        tries.append((poly is not None, list(calls)))
        return poly

    def traced(cells):
        raise AssertionError("gen_path_lb traced a cell set")

    monkeypatch.setattr(gallery, "validate_polygon", counted)
    monkeypatch.setattr(gallery, "_try_random_simple", one_try)
    monkeypatch.setattr(gallery, "_boundary_corners", traced)
    for n, seed in ((4, 0), (12, 1), (40, 2), (120, 1), (160, 0)):
        tries.clear()
        assert sc.gen_random_simple(n, seed).n == n
        assert tries[-1] == (True, [n]), (n, seed)
        assert all(t == (False, []) for t in tries[:-1]), (n, seed)
    calls.clear()
    assert sc.gen_path_lb(30).n == 178 and calls == [178]


def test_gen_random_simple_deterministic():
    a = sc.gen_random_simple(12, 9)
    b = sc.gen_random_simple(12, 9)
    assert a == b


def test_gen_thin_tree_properties():
    corridor = sc.gen_thin_tree(1, 0)
    pix = sc.pixelate(corridor)
    d = dual_graph(pix)
    assert is_tree(d)
    assert all(len(ns) <= 2 for ns in d.values())  # a path
    for b in (2, 3, 4):
        p = sc.gen_thin_tree(b, 5)
        pix = sc.pixelate(p)
        assert pix.is_thin()
        d = dual_graph(pix)
        assert is_tree(d)
        leaves = sum(1 for ns in d.values() if len(ns) == 1)
        assert leaves >= b


# ---------------------------------------------------------------------------
# guard_small
# ---------------------------------------------------------------------------

def enumerate_small_polygons(max_side=4, max_n=8):
    """Every simply connected polyomino polygon in a box with at most max_n corners."""
    seen = set()
    cells_all = [(x, y) for x in range(max_side) for y in range(max_side)]
    for bits in range(1, 1 << len(cells_all)):
        cells = frozenset(c for i, c in enumerate(cells_all) if bits >> i & 1)
        if cells in seen:
            continue
        seen.add(cells)
        if not _connected(cells):
            continue
        try:
            poly = sc.polygon_from_cells(set(cells))
        except sc.GenerationFailed:
            continue
        if poly.n <= max_n:
            yield poly


def _connected(cells):
    start = next(iter(cells))
    todo = [start]
    found = {start}
    while todo:
        x, y = todo.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in found:
                found.add(nb)
                todo.append(nb)
    return len(found) == len(cells)


def test_guard_small_rectangle_and_lshape():
    g = sc.guard_small(sc.validate_polygon(RECT))
    assert g.orientation == "H"
    p = sc.validate_polygon(LSHAPE)
    g = sc.guard_small(p)
    assert sc.verify_cover(sc.pixelate(p), [g]).covered
    # the first guard in key order that hits every cross is horizontal and
    # lies on the full-width bottom band
    assert g.orientation == "H" and 0 <= g.anchor <= 1


def test_guard_small_staircase():
    p = sc.validate_polygon([[(0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (6, 4), (6, 6), (0, 6)]])
    g = sc.guard_small(p)
    assert sc.verify_cover(sc.pixelate(p), [g]).covered


def test_guard_small_rotation_case():
    # two reflex vertices sharing their x coordinate leave no middle vertical
    # slice; a single camera covers the polygon all the same
    p = sc.validate_polygon([[(0, 0), (3, 0), (3, 2), (2, 2), (2, 4), (3, 4),
                              (3, 6), (0, 6)]])
    pix = sc.pixelate(p)
    refl = reflex_vertices(p)
    assert len(refl) == 2 and refl[0][0] == refl[1][0]
    g = sc.guard_small(p)
    assert sc.verify_cover(pix, [g]).covered


def test_guard_small_rejects_large_or_holed():
    with pytest.raises(sc.PreconditionViolated):
        sc.guard_small(sc.gen_comb(3))
    holed = sc.validate_polygon([[(0, 0), (6, 0), (6, 6), (0, 6)],
                                 [(2, 2), (2, 4), (4, 4), (4, 2)]])
    with pytest.raises(sc.PreconditionViolated):
        sc.guard_small(holed)


def test_guard_small_exhaustive_lattice():
    count = 0
    for poly in enumerate_small_polygons():
        g = sc.guard_small(poly)
        assert sc.verify_cover(sc.pixelate(poly), [g]).covered, poly.outer
        count += 1
    assert count > 100


def test_guard_small_random_cases():
    for seed in range(100):
        n = random.Random(seed).choice([4, 6, 8])
        p = sc.gen_random_simple(n, seed + 4000)
        g = sc.guard_small(p)
        assert sc.verify_cover(sc.pixelate(p), [g]).covered, seed


# ---------------------------------------------------------------------------
# path_guard
# ---------------------------------------------------------------------------

def test_path_guard_rectangle():
    sol = sc.path_guard(sc.validate_polygon(RECT))
    assert sol.size == 1


def test_path_guard_spirals_meet_lower_bound():
    for k in (1, 2, 3, 4):
        p = sc.gen_path_lb(k)
        sol = sc.path_guard(p)
        assert sol.size == k == (p.n + 2) // 6


def test_path_guard_rejects_non_path():
    holed = sc.validate_polygon([[(0, 0), (6, 0), (6, 6), (0, 6)],
                                 [(2, 2), (2, 4), (4, 4), (4, 2)]])
    with pytest.raises(sc.NotPathSegmentation):
        sc.path_guard(holed)


def staircase_polygon(steps, rng):
    """Monotone staircase: x-sorted columns with nondecreasing heights."""
    xs = [0]
    for _ in range(steps):
        xs.append(xs[-1] + rng.randint(1, 3))
    heights = []
    h = rng.randint(1, 3)
    for _ in range(steps):
        heights.append(h)
        h += rng.randint(1, 3)
    ring = [(xs[0], 0)]
    for i in range(steps):
        ring.append((xs[i], heights[i]))
        ring.append((xs[i + 1], heights[i]))
    ring.append((xs[-1], 0))
    return sc.validate_polygon([ring])


def test_path_guard_staircases():
    rng = random.Random(99)
    for _ in range(25):
        p = staircase_polygon(rng.randint(1, 10), rng)
        if p.n > 24:
            continue
        sol, steps = sc.path_guard_steps(p)
        assert sol.size <= (p.n + 2) // 6
        pix = sc.pixelate(p)
        assert sc.verify_cover(pix, list(sol.cameras)).covered
        oracle = sc.brute_force_min_cover(sc.build_instance(pix)).size
        assert sol.size >= oracle


# gen_random_simple(12, seed=0): its vertical slices form a path, but the
# first peel takes three slices whose union has 10 vertices.
REFUSED_PATH_SHAPE = [(0, 0), (2, 0), (2, 1), (3, 1), (3, 4), (5, 4), (5, 6),
                      (2, 6), (2, 4), (1, 4), (1, 6), (0, 6)]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="path_guard refuses: peeled piece has 10 > 8 vertices")
def test_path_guard_known_refusal():
    p = sc.validate_polygon([REFUSED_PATH_SHAPE])
    if ref_path_order(sc.segmentation_dual(p, "V")) is None:
        pytest.fail("the pinned shape lost its path segmentation")
    sol = sc.path_guard(p)
    assert sol.size <= (p.n + 2) // 6


def test_peel_soundness():
    for k in (2, 3, 4):
        p = sc.gen_path_lb(k)
        _, steps = sc.path_guard_steps(p)
        n = p.n
        for step in steps:
            assert step.slices_removed in (2, 3)
            assert step.subpolygon.n <= 8
            assert step.remainder.n <= n - 6
            assert (ref_path_order(sc.segmentation_dual(step.remainder, "V")) is not None
                    or ref_path_order(sc.segmentation_dual(step.remainder, "H")) is not None)
            n = step.remainder.n


def test_path_peels_validate_nothing(monkeypatch):
    """Each cut is normalised at its seam; no part is validated in full."""
    p = sc.gen_comb(60)  # generated before validate_polygon is counted
    calls = []
    validate = gallery.validate_polygon

    def counted(rings):
        calls.append(rings)
        return validate(rings)

    monkeypatch.setattr(gallery, "validate_polygon", counted)
    _, steps = sc.path_guard_steps(p)
    assert len(steps) > 30
    assert calls == []


@pytest.mark.parametrize("make", [lambda: sc.gen_comb(60),
                                  lambda: sc.gen_random_simple(30, 6)],
                         ids=["comb60", "random30"])
def test_path_pixelates_only_its_input(monkeypatch, make):
    """Once every piece's rank type is known, a solve builds one Pixelation."""
    p = make()
    assert any(ref_path_order(sc.segmentation_dual(p, o)) is not None for o in "VH")
    sc.path_guard_steps(p)
    built = []
    init = sc.geometry.Pixelation.__init__

    def counted(self, polygon):
        built.append(polygon)
        init(self, polygon)

    monkeypatch.setattr(sc.geometry.Pixelation, "__init__", counted)
    sc.pixelate.cache_clear()
    _, steps = sc.path_guard_steps(p)
    assert len(steps) >= 4
    assert built == [p]


@pytest.mark.parametrize("k", [5, 30, 100])
def test_path_lists_each_camera_once(k):
    """The comb's spine camera serves every other tooth but is listed once."""
    p = sc.gen_comb(k)
    sol, steps = sc.path_guard_steps(p)
    keys = [c.key() for c in sol.cameras]
    assert len(set(keys)) == len(keys) == sol.size
    assert sol.size < len(steps) + 1  # some camera served more than one piece
    assert sol.size <= (p.n + 2) // 6


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_check_bounds_rectangle():
    rep = sc.check_bounds(sc.validate_polygon(RECT))
    assert rep.msc == 1 and rep.msc_bound == 1
    assert rep.ok


def test_check_bounds_comb_tight():
    rep = sc.check_bounds(sc.gen_comb(3))
    assert rep.mhsc == 3 == rep.mhsc_bound
    assert rep.ok


def test_check_bounds_holed_skips_msc():
    holed = sc.validate_polygon([[(0, 0), (6, 0), (6, 6), (0, 6)],
                                 [(2, 2), (2, 4), (4, 4), (4, 2)]])
    rep = sc.check_bounds(holed)
    assert not rep.msc_checked
    assert rep.mhsc is not None and rep.ok


def test_check_bounds_row_and_instances(monkeypatch):
    """A report's row lists its fields in order, then ``ok``, and both
    optima are solved on the instances of ``instance_for_mode``."""
    modes = []
    real = sc.solve.instance_for_mode
    monkeypatch.setattr(sc.solve, "instance_for_mode",
                        lambda pix, mode: modes.append(mode) or real(pix, mode))
    rep = sc.check_bounds(sc.gen_path_lb(2))
    assert modes == ["mhsc", "msc"]
    assert rep.to_dict() == {"n": 10, "msc": 2, "mhsc": 2, "msc_bound": 2,
                             "mhsc_bound": 2, "msc_checked": True, "ok": True}
    assert list(rep.to_dict()) == ["n", "msc", "mhsc", "msc_bound", "mhsc_bound",
                                   "msc_checked", "ok"]


def test_path_solve_keeps_at_most_one_pixelation():
    sc.solve_polygon(sc.gen_comb(60), algo="path")
    # the <= 8-vertex pieces' pixelations are throwaway; none of them is kept
    assert sc.pixelate.cache_info().currsize <= 1


def test_path_builds_no_segment_tree_and_walks_each_camera_once(monkeypatch):
    """On path_lb(160) every camera run extends along the slice sides on
    its line: no stabbing index and no eager hit mask are built, and the
    final verify walks each camera's midlines once."""
    masks, walks = [], []
    hit_mask, walk = sc.Pixelation._segment_hit_mask, sc.Pixelation.sigma_ids_hit
    monkeypatch.setattr(sc.Pixelation, "_segment_hit_mask",
                        lambda self, *key: masks.append(key) or hit_mask(self, *key))
    monkeypatch.setattr(sc.Pixelation, "sigma_ids_hit",
                        lambda self, *key: walks.append(key) or walk(self, *key))
    p = sc.gen_path_lb(160)
    sc.geometry.pixelate.cache_clear()
    sol = sc.path_guard(p)
    pix = sc.pixelate(p)
    assert sol.size == 160
    assert pix._stabbing == {} and not masks
    assert sorted(walks) == [g.key() for g in sol.cameras]
