import inspect
import json
import random
import sys

import pytest

import slidecam as sc
from slidecam.cli import main
from slidecam.treewidth import (
    TreeDecomposition,
    decompose,
    dp_solve,
    dual_graph,
    is_tree,
    lift_decomposition,
    validate_decomposition,
)

from conftest import LSHAPE, RECT, in_nodes, support_of, with_leaf_bags
from test_fuzz import gen_random_holed

# square with four unit bumps, one per side: the pixelation core is a 3x3 grid
PINWHEEL = [[(0, 0), (1, 0), (1, -1), (2, -1), (2, 0), (3, 0), (3, 1), (4, 1),
             (4, 2), (3, 2), (3, 3), (2, 3), (2, 4), (1, 4), (1, 3), (0, 3),
             (0, 2), (-1, 2), (-1, 1), (0, 1)]]


def test_dual_graph_shapes():
    assert dual_graph(sc.pixelate(sc.validate_polygon(RECT))) == {0: frozenset()}
    d = dual_graph(sc.pixelate(sc.validate_polygon(LSHAPE)))
    assert is_tree(d)
    corridor = sc.gen_thin_tree(1, 3)
    assert is_tree(dual_graph(sc.pixelate(corridor)))


def test_decompose_k1_and_path():
    td = decompose({0: frozenset()})
    assert td.width == 0 and len(td.bags) == 1
    td2 = decompose({0: frozenset([1]), 1: frozenset([0, 2]), 2: frozenset([1])})
    assert td2.width == 1
    ok, _ = validate_decomposition(td2, [0, 1, 2], [(0, 1), (1, 2)])
    assert ok


def test_decompose_disconnected_graph_is_one_tree():
    adj = {0: frozenset([1]), 1: frozenset([0]), 2: frozenset(),
           3: frozenset([4]), 4: frozenset([3])}
    td = decompose(adj)
    assert is_tree({i: frozenset(ns) for i, ns in td.neighbors().items()})
    ok, wit = validate_decomposition(td, adj, [(0, 1), (3, 4)])
    assert ok, wit


def test_dp_on_disconnected_auxiliary_graph():
    """One cross and one guard leave the other slice-segments isolated."""
    poly = sc.validate_polygon(LSHAPE)
    sol, info = sc.solve_polygon(poly, mode="custom", algo="dp", xprime=[2], guard_ids=[2])
    assert sol.size == 1 and sol.guard_ids == (2,)
    assert info["width_used"] == sol.decomposition.width
    H = sc.build_auxiliary_graph(sc.pixelate(poly), xprime=[2], gammaprime=[2])
    ok, wit = validate_decomposition(sol.decomposition, H.nodes(), H.edges())
    assert ok, wit


def test_decompose_grid_heuristic():
    pix = sc.pixelate(sc.validate_polygon(PINWHEEL))
    d = dual_graph(pix)
    assert len(d) == 13  # 3x3 core plus four bump pixels
    td = decompose(d)
    ok, _ = validate_decomposition(td, d.keys(), pix.dual_edges)
    assert ok
    assert td.width <= 3


def test_validate_decomposition_witnesses():
    bags = (frozenset({0, 1}), frozenset({1, 2}))
    td = TreeDecomposition(bags=bags, edges=((0, 1),))
    ok, wit = validate_decomposition(td, [0, 1, 2], [(0, 1), (1, 2)])
    assert ok
    ok, wit = validate_decomposition(td, [0, 1, 2], [(0, 2)])
    assert not ok and wit == ("edge-uncovered", (0, 2))
    td_bad = TreeDecomposition(bags=(frozenset({0}), frozenset({1}), frozenset({0})),
                               edges=((0, 1), (1, 2)))
    ok, wit = validate_decomposition(td_bad, [0, 1], [(0, 1)])
    assert not ok and wit == ("vertex-disconnected", 0)


def test_lift_rectangle_bag():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    td = decompose(dual_graph(pix))
    H = sc.build_auxiliary_graph(pix)
    tdh = lift_decomposition(td, H, pix)
    # one bag holding the cross, both supports and the two canonical guards;
    # opposite sides merge, so the bag is smaller than the 7-item worst case
    assert len(tdh.bags) == 1
    assert tdh.width <= 7 * td.width + 6
    ok, _ = validate_decomposition(tdh, H.nodes(), H.edges())
    assert ok


def test_lift_removed_support_breaks_validity():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    td = decompose(dual_graph(pix))
    H = sc.build_auxiliary_graph(pix)
    tdh = lift_decomposition(td, H, pix)
    sigma = next(v for v in tdh.bags[0] if v[0] == "s")
    broken = TreeDecomposition(bags=(tdh.bags[0] - {sigma},), edges=())
    ok, wit = validate_decomposition(broken, H.nodes(), H.edges())
    assert not ok and wit[0] in ("vertex-missing", "edge-uncovered")


def test_lift_bound_and_validity_random():
    for seed in range(100):
        n = 4 + 2 * (seed % 5)
        p = sc.gen_random_simple(n, seed + 1500)
        pix = sc.pixelate(p)
        td = decompose(dual_graph(pix))
        H = sc.build_auxiliary_graph(pix)
        tdh = lift_decomposition(td, H, pix)
        assert tdh.width <= 7 * td.width + 6, seed
        ok, wit = validate_decomposition(tdh, H.nodes(), H.edges())
        assert ok, (seed, wit)


def test_lshape_lift_width():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    td = decompose(dual_graph(pix))
    H = sc.build_auxiliary_graph(pix)
    assert lift_decomposition(td, H, pix).width <= 13


def dp_pipeline(pix, gammaprime=None, xprime=None, width_max=20):
    td = decompose(dual_graph(pix))
    H = sc.build_auxiliary_graph(pix, xprime=xprime, gammaprime=gammaprime)
    tdh = lift_decomposition(td, H, pix)
    return dp_solve(H, tdh, width_max=width_max)


def test_dp_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    assert dp_pipeline(pix).size == 1


def test_dp_spiral_three():
    pix = sc.pixelate(sc.gen_path_lb(3))
    assert dp_pipeline(pix).size == 3


def test_dp_thin_trees_match_oracle():
    for seed in range(50):
        p = sc.gen_thin_tree(1 + seed % 5, seed)
        pix = sc.pixelate(p)
        oracle = sc.brute_force_min_cover(sc.build_instance(pix)).size
        assert dp_pipeline(pix).size == oracle, seed


def test_dp_matches_oracle_random_restricted():
    rng = random.Random(23)
    done = 0
    for seed in range(200):
        if done >= 60:
            break
        n = 4 + 2 * (seed % 6)
        p = sc.gen_random_simple(n, seed + 2500)
        pix = sc.pixelate(p)
        td = decompose(dual_graph(pix))
        # random restricted problems: any X', orientation-restricted guards
        xs = sorted(rng.sample(range(len(pix.crosses)),
                               rng.randint(1, len(pix.crosses))))
        orientation = rng.choice([("H",), ("V",), ("H", "V")])
        gids = [g.id for g in sc.guard_segments(pix, orientation)]
        inst = sc.build_instance(pix, xprime=xs, gammaprime=gids)
        H = sc.build_auxiliary_graph(pix, xprime=xs, gammaprime=gids)
        tdh = lift_decomposition(td, H, pix)
        if tdh.width > 16:
            continue
        ok, wit = validate_decomposition(tdh, H.nodes(), H.edges())
        assert ok, (seed, wit)
        if inst.feasible:
            oracle = sc.brute_force_min_cover(inst).size
            sol = dp_solve(H, tdh)
            assert sol.size == oracle, seed
            assert sc.verify_cover(pix, list(sol.guard_ids), xs).covered
        else:
            with pytest.raises(sc.Infeasible):
                dp_solve(H, tdh)
        done += 1
    assert done >= 60


def test_dp_width_exceeded():
    pix = sc.pixelate(sc.validate_polygon(PINWHEEL))
    with pytest.raises(sc.WidthExceeded):
        dp_pipeline(pix, width_max=3)


def test_decomposition_dump_format():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    td = decompose(dual_graph(pix))
    text = td.to_text()
    assert text.startswith("s td ")
    assert text.count("\nb ") == len(td.bags)


def str_of_repr_sorted_dump(td):
    """The dump as it was first written: items sorted by repr, each written with str."""
    lines = [f"s td {len(td.bags)} {max((len(b) for b in td.bags), default=0)}"]
    for i, bag in enumerate(td.bags):
        items = " ".join(str(v) for v in sorted(bag, key=repr))
        lines.append(f"b {i + 1} {items}".rstrip())
    for a, b in td.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["msc", "mhsc"])
def test_dump_td_text_is_byte_identical_to_str_of_repr_sorted(tmp_path, mode):
    """--dump-td bytes for pixel-id bags and for auxiliary-graph bags."""
    poly = sc.gen_random_simple(16, 3)
    poly_path, td_path = tmp_path / "poly.json", tmp_path / "td.txt"
    poly_path.write_text(json.dumps(poly.to_dict()))
    assert main(["solve", str(poly_path), "--algo", "dp", "--mode", mode,
                 "--dump-td", str(td_path)]) == 0
    sol, _ = sc.solve_polygon(poly, mode=mode, algo="dp")
    assert td_path.read_bytes() == str_of_repr_sorted_dump(sol.decomposition).encode()
    dual = decompose(dual_graph(sc.pixelate(poly)))
    assert dual.to_text() == str_of_repr_sorted_dump(dual)
    empty = sc.TreeDecomposition(bags=(), edges=())
    assert empty.width == -1 and empty.to_text() == str_of_repr_sorted_dump(empty)


def reference_dump(bags, edges, width: int, name) -> str:
    """The dump's lines: each bag's items by ``name``, sorted."""
    lines = [f"s td {len(bags)} {width + 1}"]
    for i, bag in enumerate(bags):
        items = " ".join(sorted(map(name, bag)))
        lines.append(f"b {i + 1} {items}".rstrip())
    for a, b in edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def _line_runs(fn, marker: str, call) -> int:
    """How often the first line of ``fn`` after the one holding ``marker``
    that reads ``continue`` runs during ``call()``."""
    lines, first = inspect.getsourcelines(fn)
    start = next(k for k, line in enumerate(lines) if marker in line)
    target = first + next(k for k in range(start, len(lines)) if lines[k].strip() == "continue")
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        runs += event == "line" and frame.f_lineno == target
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is fn.__code__ else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return runs


_HOLED = {"outer": [[0, 0], [8, 0], [8, 6], [0, 6]],
          "holes": [[[2, 2], [2, 4], [3, 4], [3, 2]], [[5, 1], [5, 3], [6, 3], [6, 1]]]}
_DP_SHAPES = {
    "comb3": lambda: sc.gen_comb(3), "comb6": lambda: sc.gen_comb(6),
    "path_lb2": lambda: sc.gen_path_lb(2), "path_lb4": lambda: sc.gen_path_lb(4),
    "thin_tree4": lambda: sc.gen_thin_tree(4, 1), "thin_tree8": lambda: sc.gen_thin_tree(8, 2),
    **{f"rand{n}": (lambda n=n: sc.gen_random_simple(n, 1)) for n in range(10, 20, 2)},
    "hole1": lambda: sc.OrthoPolygon.from_dict({**_HOLED, "holes": _HOLED["holes"][:1]}),
    "hole2": lambda: sc.OrthoPolygon.from_dict(_HOLED),
}


@pytest.mark.parametrize("mode", ["msc", "mhsc"])
@pytest.mark.parametrize("shape", list(_DP_SHAPES))
def test_dp_files_match_the_solve(tmp_path, shape, mode):
    """``--dump-td`` writes the bytes of ``reference_dump`` over the support
    graph's names, ``--out`` and ``--report`` load to the solution's dict
    and the solve's info, and min-fill takes its fill-0 shortcut."""
    poly = _DP_SHAPES[shape]()
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps(poly.to_dict()))
    files = {k: tmp_path / f"{k}.out" for k in ("out", "report", "td")}
    argv = ["solve", str(poly_path), "--algo", "dp", "--mode", mode, "--out", str(files["out"]),
            "--report", str(files["report"]), "--dump-td", str(files["td"])]
    codes = []
    assert _line_runs(decompose, "if not f:", lambda: codes.append(main(argv))) > 0
    assert codes == [0]
    sol, info = sc.solve_polygon(poly, mode=mode, algo="dp")
    full = sol.decomposition
    want = reference_dump(full.ids, full.edges, full.width, full.S.names.__getitem__)
    assert files["td"].read_bytes() == want.encode()
    assert json.loads(files["out"].read_text()) == sol.to_dict()
    assert json.loads(files["report"].read_text()) == info
    dual = decompose(dual_graph(sc.pixelate(poly)))
    assert dual.to_text() == reference_dump(dual.bags, dual.edges, dual.width, repr)


def test_dp_runtime_scaling_informational(capsys):
    """Non-gating: report a linear fit of DP runtime against bag count."""
    import time
    points = []
    for k in (2, 4, 6, 8, 10):
        pix = sc.pixelate(sc.gen_comb(k))
        td = decompose(dual_graph(pix))
        H = sc.build_auxiliary_graph(pix)
        tdh = lift_decomposition(td, H, pix)
        t0 = time.perf_counter()
        dp_solve(H, tdh)
        points.append((len(tdh.bags), time.perf_counter() - t0))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    n = len(points)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in points) / denom
    with capsys.disabled():
        print(f"\n[info] dp runtime vs bags: {points}; "
              f"fit {slope * 1000:.3f} ms/bag (informational)")
    assert all(y < 10.0 for y in ys)  # sanity only, not a scaling assertion


def test_dp_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise RuntimeError(f"sys.setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    sol, _ = sc.solve_polygon(sc.gen_comb(30), algo="dp")
    assert sol.size == 1


@pytest.mark.parametrize("k", [15, 20])
def test_dp_on_spirals_past_the_oracle_limit(k):
    """path_lb(k) needs exactly k cameras; exact refuses it (over 40 candidates)."""
    poly = sc.gen_path_lb(k)
    with pytest.raises(sc.TooLargeForOracle):
        sc.solve_polygon(poly, algo="exact")
    sol, _ = sc.solve_polygon(poly, algo="dp")
    assert sol.size == k


@pytest.mark.parametrize("n", [40, 80])
def test_dp_matches_exact_on_wide_random_shapes(n):
    """Min-fill width 17 and 19 at the default width limit."""
    poly = sc.gen_random_simple(n, 1)
    sol, info = sc.solve_polygon(poly, algo="dp")
    assert info["width_used"] >= 17
    assert sol.size == sc.solve_polygon(poly, algo="exact")[0].size


@pytest.mark.parametrize("poly", [sc.gen_comb(10), sc.gen_random_simple(24, 0)],
                         ids=["comb10", "rand24"])
def test_dp_solve_decomposes_no_cross_vertex(monkeypatch, poly):
    """solve_polygon decomposes the support graph once, and never a cross;
    the dual graph is left to the fallback, which neither shape needs."""
    graphs = []

    def recorded(adj):
        graphs.append(adj)
        return decompose(adj)

    monkeypatch.setattr(sc.solve, "decompose", recorded)
    sol, info = sc.solve_polygon(poly, algo="dp")
    pix = sc.pixelate(poly)
    H = sc.build_auxiliary_graph(pix)
    S = sc.build_support_graph(pix, H.xprime, H.universe)
    assert graphs == [S.adj]
    assert in_nodes(S) == support_of(H)
    assert "width_d" not in info and "width_h" not in info
    ok, wit = validate_decomposition(sol.decomposition, H.nodes(), H.edges())
    assert ok, wit
    assert info["width_used"] == sol.decomposition.width


ONE_HOLE = [[(0, 0), (8, 0), (8, 6), (0, 6)], [(2, 2), (2, 4), (3, 4), (3, 2)]]
TWO_HOLES = ONE_HOLE + [[(5, 1), (5, 3), (6, 3), (6, 1)]]


@pytest.mark.parametrize("mode", ["msc", "mhsc"])
def test_int_support_graph_matches_the_auxiliary_graph(corpus, mode):
    """A solve's int pipeline against the one on H's tuple nodes it replaced.

    S numbers the universe's guards first, then every midline at
    len(universe) + id, which is the sorted order of H's support graph; under
    that numbering S equals it, min-fill gives the same bags and tree, dp the
    same cover and width, and --dump-td the same bytes as H's decomposition
    with a leaf bag per cross, written by TreeDecomposition.to_text.
    """
    polys = dict(corpus)
    polys.update(comb8=sc.gen_comb(8), comb30=sc.gen_comb(30), spiral5=sc.gen_path_lb(5),
                 spiral12=sc.gen_path_lb(12), thin6=sc.gen_thin_tree(6, 1),
                 thin12=sc.gen_thin_tree(12, 4), hole1=sc.validate_polygon(ONE_HOLE),
                 hole2=sc.validate_polygon(TWO_HOLES))
    polys.update((f"holed{seed}", gen_random_holed(seed)) for seed in range(4))
    for name, poly in polys.items():
        pix = sc.pixelate(poly)
        inst = sc.solve.instance_for_mode(pix, mode)
        H = sc.build_auxiliary_graph(pix, xprime=inst.xprime, gammaprime=inst.universe)
        S = sc.build_support_graph(pix, inst.xprime, inst.universe)
        support = support_of(H)
        assert [S.node(v) for v in range(len(S.adj))] == sorted(support), name
        assert in_nodes(S) == support, name
        td, ref_td = decompose(S.adj), decompose(support)
        assert tuple(frozenset(map(S.node, bag)) for bag in td.bags) == ref_td.bags, name
        assert td.edges == ref_td.edges, name
        sol, info = sc.solve_polygon(poly, mode=mode, algo="dp")
        ref = dp_solve(H, ref_td)
        assert sol.guard_ids == ref.guard_ids, name
        ref_full = with_leaf_bags(ref_td, H)
        assert info["width_used"] == ref.decomposition.width == ref_full.width, name
        assert sol.decomposition.to_text() == ref_full.to_text(), name
        assert sol.decomposition.bags == ref_full.bags, name


def _refuse_auxiliary_graph(*args, **kwargs):
    raise AssertionError("the auxiliary graph H was built")


@pytest.mark.parametrize("mode", ["msc", "mhsc"])
def test_dp_builds_no_auxiliary_graph_when_min_fill_fits(tmp_path, monkeypatch, mode):
    """solve_polygon and `solve --algo dp --dump-td` build no AuxiliaryGraph
    while min-fill on S fits --width-max; the dump is still H's decomposition."""
    poly = sc.gen_random_simple(16, 3)
    poly_path, td_path = tmp_path / "poly.json", tmp_path / "td.txt"
    poly_path.write_text(json.dumps(poly.to_dict()))
    monkeypatch.setattr(sc.hitset, "AuxiliaryGraph", _refuse_auxiliary_graph)
    sol, info = sc.solve_polygon(poly, mode=mode, algo="dp")
    assert main(["solve", str(poly_path), "--algo", "dp", "--mode", mode,
                 "--dump-td", str(td_path)]) == 0
    assert "width_h" not in info
    monkeypatch.undo()
    assert td_path.read_text() == sol.decomposition.to_text()
    pix = sc.pixelate(poly)
    inst = sc.solve.instance_for_mode(pix, mode)
    H = sc.build_auxiliary_graph(pix, xprime=inst.xprime, gammaprime=inst.universe)
    ok, wit = validate_decomposition(sol.decomposition, H.nodes(), H.edges())
    assert ok, wit


def test_dp_fallback_past_width_max_lifts_onto_the_support_graph(monkeypatch):
    """Min-fill on S made one bag of all its vertices, wider than --width-max:
    the solve lifts the dual graph's decomposition onto S's crosses and
    guards without building H, walks each camera's midlines once (S's build)
    and each picked camera's once more (the final verify), reports width_d
    and width_h, and returns a verified optimum, at a --width-max as small
    as the width it solved at and not one below."""
    poly = sc.gen_comb(10)
    pix = sc.pixelate(poly)
    walks = []
    aux_graph, sigma_ids_hit = sc.hitset.AuxiliaryGraph, sc.Pixelation.sigma_ids_hit

    def one_bag_for_s(adj):
        if isinstance(adj, dict):  # the dual graph; S comes as a list of int neighbour sets
            return decompose(adj)
        return TreeDecomposition(bags=(frozenset(range(len(adj))),), edges=())

    def counted(self, *run):
        walks.append(run)
        return sigma_ids_hit(self, *run)

    monkeypatch.setattr(sc.solve, "decompose", one_bag_for_s)
    monkeypatch.setattr(sc.hitset, "AuxiliaryGraph", _refuse_auxiliary_graph)
    monkeypatch.setattr(sc.Pixelation, "sigma_ids_hit", counted)
    sol, info = sc.solve_polygon(poly, algo="dp")
    monkeypatch.setattr(sc.hitset, "AuxiliaryGraph", aux_graph)
    monkeypatch.setattr(sc.Pixelation, "sigma_ids_hit", sigma_ids_hit)
    assert len(walks) == info["universe"] + sol.size
    H = sc.build_auxiliary_graph(pix)
    dual = decompose(dual_graph(pix))
    assert info["width_d"] == dual.width
    assert info["width_h"] == lift_decomposition(dual, H, pix).width
    assert info["width_used"] == sol.decomposition.width <= info["width_h"]
    ok, wit = validate_decomposition(sol.decomposition, H.nodes(), H.edges())
    assert ok, wit
    assert sol.size == sc.brute_force_min_cover(sc.build_instance(pix)).size
    assert sc.verify_cover(pix, list(sol.guard_ids)).covered
    width = info["width_used"]
    assert sc.solve_polygon(poly, algo="dp", width_max=width)[0].guard_ids == sol.guard_ids
    with pytest.raises(sc.WidthExceeded, match=f"lifted width {width} exceeds limit {width - 1}"):
        sc.solve_polygon(poly, algo="dp", width_max=width - 1)
