import importlib
import json
import re
import sys

import pytest

import slidecam as sc
from slidecam import cli
from slidecam.cli import main
from slidecam.render import render_svg

from conftest import LSHAPE, RECT


def write_poly(tmp_path, rings, name="poly.json"):
    path = tmp_path / name
    poly = sc.validate_polygon(rings)
    path.write_text(json.dumps(poly.to_dict()))
    return str(path)


def test_validate_round_trip(tmp_path):
    src = tmp_path / "raw.json"
    # scrambled orientation and a redundant collinear vertex
    src.write_text(json.dumps({"outer": [[0, 4], [4, 4], [4, 0], [2, 0], [0, 0]]}))
    out1 = tmp_path / "norm1.json"
    out2 = tmp_path / "norm2.json"
    assert main(["validate", str(src), "--out", str(out1)]) == 0
    assert main(["validate", str(out1), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_comb_exact(tmp_path, capsys):
    p = sc.gen_comb(3)
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(p.to_dict()))
    out = tmp_path / "sol.json"
    rc = main(["solve", str(path), "--mode", "mhsc", "--algo", "exact",
               "--out", str(out)])
    assert rc == 0
    assert "size=3" in capsys.readouterr().out
    sol = json.loads(out.read_text())
    assert sol["size"] == 3
    assert all(c["orientation"] == "H" for c in sol["cameras"])


def test_solve_then_verify_round_trip(tmp_path):
    poly_path = write_poly(tmp_path, LSHAPE)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", poly_path, "--out", str(sol_path)]) == 0
    assert main(["verify", poly_path, str(sol_path)]) == 0


def test_verify_detects_uncovered(tmp_path, capsys):
    p = sc.gen_comb(3)
    poly_path = tmp_path / "comb.json"
    poly_path.write_text(json.dumps(p.to_dict()))
    sol_path = tmp_path / "bad.json"
    sol_path.write_text(json.dumps({
        "size": 1, "method": "manual",
        "cameras": [{"orientation": "H", "anchor": 0, "span": [0, 2]}]}))
    assert main(["verify", str(poly_path), str(sol_path)]) == 2
    # the bottom edge meets only the vertical midlines of the spine and of
    # the bottom tooth, so the crosses of the two upper teeth stay uncovered
    assert capsys.readouterr().out == "uncovered crosses: 6,7\n"


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"outer": [[0, 0], [3, 1], [0, 2]]}))
    assert main(["solve", str(bad)]) == 1


def test_infeasible_exit_code(tmp_path):
    poly_path = write_poly(tmp_path, LSHAPE)
    # only the short top guard allowed: the right-hand cross stays unhit
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    gid = next(g.id for g in pix.guards if g.orientation == "H" and g.anchor == 2)
    rc = main(["solve", poly_path, "--mode", "custom", "--guard-ids", str(gid)])
    assert rc == 2


def test_limit_exit_code(tmp_path):
    poly_path = write_poly(tmp_path, RECT)
    # a width limit of -1 cannot hold any decomposition
    rc = main(["solve", poly_path, "--algo", "dp", "--width-max", "-1"])
    assert rc == 3


def test_generate_and_bounds(tmp_path, capsys):
    out = tmp_path / "comb.json"
    assert main(["generate", "--shape", "comb", "--k", "3", "--out", str(out)]) == 0
    assert main(["bounds", str(out)]) == 0
    assert "ok=True" in capsys.readouterr().out


def test_pixelate_render(tmp_path, capsys):
    poly_path = write_poly(tmp_path, LSHAPE)
    svg = tmp_path / "out.svg"
    assert main(["pixelate", poly_path, "--render", str(svg)]) == 0
    assert "pixels=3" in capsys.readouterr().out
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<rect") == 3


def test_export_instance(tmp_path, capsys):
    poly_path = write_poly(tmp_path, RECT)
    assert main(["export", poly_path, "--mode", "mhsc"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["universe"]) == 1
    assert data["sets"][0]["guards"] == data["universe"]


def test_svg_deterministic():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    sol = sc.brute_force_min_cover(sc.build_instance(pix))
    assert render_svg(pix, sol) == render_svg(pix, sol)


def test_svg_shading_lshape():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    sol = sc.brute_force_min_cover(sc.build_instance(pix))
    text = render_svg(pix, sol)
    assert text.count('fill="#bfdfff"') == 3  # all pixels visible
    assert text.count('stroke="#cc2222"') == 1


def test_solve_bg_and_path_algos(tmp_path):
    p = sc.gen_path_lb(2)
    path = tmp_path / "spiral.json"
    path.write_text(json.dumps(p.to_dict()))
    assert main(["solve", str(path), "--algo", "bg", "--seed", "5"]) == 0
    assert main(["solve", str(path), "--algo", "path"]) == 0
    assert main(["solve", str(path), "--algo", "dp"]) == 0
    assert main(["solve", str(path), "--algo", "greedy"]) == 0


def test_solve_reports_guards_only_when_it_built_them(tmp_path, capsys):
    """path never builds the canonical cameras: its report and stdout have no
    guard count, while greedy's have one, and the path cover still verifies."""
    p = sc.gen_comb(12)
    poly = tmp_path / "comb.json"
    poly.write_text(json.dumps(p.to_dict()))
    sol, report = tmp_path / "sol.json", tmp_path / "r.json"
    assert main(["solve", str(poly), "--algo", "greedy", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["guards"] == len(sc.Pixelation(p).guards)
    assert "guards=" in capsys.readouterr().out
    assert main(["solve", str(poly), "--algo", "path", "--out", str(sol),
                 "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert "guards" not in data
    assert data["size"] <= (data["n"] + 2) // 6
    assert "guards=" not in capsys.readouterr().out
    assert main(["verify", str(poly), str(sol)]) == 0


def test_path_solve_keeps_the_input_pixelation_cached(monkeypatch):
    """solve --algo path --render pixelates the input for the render from cache.

    The rank-type memo starts empty, so each piece's type is pixelated too.
    """
    monkeypatch.setattr(sc.gallery, "_SMALL_GUARDS", {})
    p = sc.gen_comb(12)
    sc.solve_polygon(p, algo="path")
    assert sc.gallery._SMALL_GUARDS
    hits = sc.pixelate.cache_info().hits
    sc.pixelate(p)
    assert sc.pixelate.cache_info().hits == hits + 1


def test_solve_bg_report(tmp_path):
    p = sc.gen_comb(3)
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(p.to_dict()))
    report = tmp_path / "report.json"
    assert main(["solve", str(path), "--mode", "mhsc", "--algo", "bg",
                 "--seed", "7", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["bg"]["terminating_k"] >= 1
    assert data["size"] >= 3


def test_solve_dp_dump_td(tmp_path):
    poly_path = write_poly(tmp_path, LSHAPE)
    td_path = tmp_path / "td.txt"
    assert main(["solve", poly_path, "--algo", "dp", "--dump-td", str(td_path)]) == 0
    assert td_path.read_text().startswith("s td ")


def test_solve_dp_dump_td_is_the_solved_decomposition(tmp_path):
    """Under mhsc the dump holds only the horizontal guards the DP was given."""
    p = sc.gen_comb(3)
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(p.to_dict()))
    td_path = tmp_path / "td.txt"
    assert main(["solve", str(path), "--mode", "mhsc", "--algo", "dp",
                 "--dump-td", str(td_path)]) == 0
    dumped = {int(g) for g in re.findall(r"\('g', (\d+)\)", td_path.read_text())}
    pix = sc.pixelate(p)
    assert dumped
    assert dumped <= {g.id for g in pix.guards if g.orientation == "H"}


def test_solve_custom_crosses(tmp_path, capsys):
    p = sc.gen_comb(3)
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(p.to_dict()))
    pix = sc.pixelate(p)
    # restrict to the three tooth crosses only
    tooth = [str(c.pixel_id) for c in pix.crosses
             if pix.pixels[c.pixel_id].rect[0] == 1]
    rc = main(["solve", str(path), "--mode", "custom",
               "--crosses", ",".join(tooth), "--guard-orientations", "H"])
    assert rc == 0
    assert "size=3" in capsys.readouterr().out


def test_path_algo_mode_validation(tmp_path):
    poly_path = write_poly(tmp_path, RECT)
    assert main(["solve", poly_path, "--algo", "path", "--mode", "mhsc"]) == 1


def test_solve_mvsc_comb(tmp_path, capsys):
    p = sc.gen_comb(3)
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(p.to_dict()))
    assert main(["solve", str(path), "--mode", "mvsc"]) == 0
    assert "size=1" in capsys.readouterr().out  # the spine camera


def test_solve_bg_report_says_whether_net_is_universe(tmp_path):
    poly_path = tmp_path / "comb.json"
    poly_path.write_text(json.dumps(sc.gen_comb(3).to_dict()))
    report = tmp_path / "report.json"
    assert main(["solve", str(poly_path), "--algo", "bg", "--report", str(report)]) == 0
    info = json.loads(report.read_text())
    assert info["bg"]["net_is_universe"] is (info["size"] == info["universe"])


def test_solve_counts_repeated_guard_ids_once(tmp_path):
    poly_path = tmp_path / "comb4.json"
    poly_path.write_text(json.dumps(sc.gen_comb(4).to_dict()))
    report = tmp_path / "report.json"
    assert main(["solve", str(poly_path), "--mode", "custom",
                 "--guard-ids", "0,0,1,2,3,4,5,6,7,8", "--algo", "bg",
                 "--report", str(report)]) == 0
    info = json.loads(report.read_text())
    assert info["universe"] == 9
    assert info["bg"]["net_is_universe"] is True
    inst = sc.build_instance(sc.pixelate(sc.gen_comb(4)), gammaprime=[0, 0, *range(1, 9)])
    assert inst.universe == tuple(range(9))


@pytest.mark.parametrize("algo", ["exact", "greedy", "bg", "dp"])
@pytest.mark.parametrize("shape, mode", [("comb3", "msc"), ("spiral2", "mhsc")])
def test_each_solve_verifies_its_cover_once(monkeypatch, algo, shape, mode):
    real = sc.geometry.verify_cover
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # wrapped where each caller looks it up, as a tracer would
    for name in ("exact", "approx", "solve", "gallery"):
        module = importlib.import_module(f"slidecam.{name}")
        if hasattr(module, "verify_cover"):
            monkeypatch.setattr(module, "verify_cover", counted)
    poly = sc.gen_comb(3) if shape == "comb3" else sc.gen_path_lb(2)
    sol, _ = sc.solve_polygon(poly, mode=mode, algo=algo)
    assert len(calls) == 1
    assert sorted(calls[0][1]) == sorted(sol.guard_ids)


@pytest.mark.parametrize("args", [
    ["--guard-ids", "999"], ["--guard-ids", "-1"], ["--crosses", "999"], ["--crosses", "-1"],
    ["--guard-orientations", "X"], ["--guard-orientations", "HX"]])
def test_custom_mode_rejects_unknown_ids(tmp_path, capsys, args):
    poly_path = write_poly(tmp_path, LSHAPE)
    assert main(["solve", poly_path, "--mode", "custom", *args]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_export_rejects_unknown_orientation(tmp_path, capsys):
    poly_path = write_poly(tmp_path, LSHAPE)
    assert main(["export", poly_path, "--mode", "custom", "--guard-orientations", "X"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--mode", "msc", "--guard-orientations", "X"],
    ["--mode", "msc", "--guard-orientations", "H"],
    ["--mode", "mhsc", "--guard-ids", "0"],
    ["--mode", "custom", "--guard-ids", "0", "--guard-orientations", "H"],
    ["--algo", "path", "--guard-orientations", "X"],
    ["--algo", "path", "--guard-ids", "0"]])
def test_solve_rejects_ignored_or_conflicting_guard_flags(tmp_path, capsys, args):
    poly_path = write_poly(tmp_path, LSHAPE)
    assert main(["solve", poly_path, *args]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("algo", ["exact", "greedy", "bg", "path"])
def test_solve_rejects_dump_td_outside_dp(tmp_path, capsys, algo):
    """Only dp has a decomposition to write; a stale file must stay as it was."""
    poly_path = write_poly(tmp_path, LSHAPE)
    td_path = tmp_path / "td.txt"
    td_path.write_text("stale\n")
    assert main(["solve", poly_path, "--algo", algo, "--dump-td", str(td_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert td_path.read_text() == "stale\n"


def test_export_rejects_orientations_outside_custom_mode(tmp_path, capsys):
    poly_path = write_poly(tmp_path, LSHAPE)
    assert main(["export", poly_path, "--mode", "mvsc", "--guard-orientations", "H"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


_TD_NODE = re.compile(r"\('([cgs])', (\d+)\)")


def read_td(text):
    """The TreeDecomposition of a --dump-td file."""
    bags, edges = [], []
    for line in text.splitlines()[1:]:
        if line.startswith("b "):
            bags.append(frozenset((kind, int(i)) for kind, i in _TD_NODE.findall(line)))
        else:
            a, b = map(int, line.split())
            edges.append((a - 1, b - 1))
    return sc.TreeDecomposition(bags=tuple(bags), edges=tuple(edges))


@pytest.mark.parametrize("shape, mode", [("comb3", "mhsc"), ("spiral3", "msc"), ("rand16", "msc")])
def test_solve_dp_reports_the_width_it_solved_at(tmp_path, shape, mode):
    poly = {"comb3": sc.gen_comb(3), "spiral3": sc.gen_path_lb(3),
            "rand16": sc.gen_random_simple(16, 3)}[shape]
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps(poly.to_dict()))
    report, td_path = tmp_path / "report.json", tmp_path / "td.txt"
    assert main(["solve", str(poly_path), "--algo", "dp", "--mode", mode,
                 "--report", str(report), "--dump-td", str(td_path)]) == 0
    info = json.loads(report.read_text())
    assert "width_d" not in info and "width_h" not in info  # min-fill on S fits: no lift
    pix = sc.pixelate(poly)
    inst = sc.solve.instance_for_mode(pix, mode)
    H = sc.build_auxiliary_graph(pix, xprime=inst.xprime, gammaprime=inst.universe)
    assert info["width_used"] <= sc.lift_decomposition(sc.decompose(sc.dual_graph(pix)), H, pix).width
    assert info["width_used"] == read_td(td_path.read_text()).width
    assert info["dp_peak_table"] >= 1


@pytest.mark.parametrize("shape, mode", [("comb10", "msc"), ("spiral5", "mhsc")])
def test_solve_dp_falls_back_to_the_lifted_decomposition(tmp_path, monkeypatch, shape, mode):
    """Min-fill on the support graph S made one bag of all its vertices, wider
    than --width-max: the solve lifts the dual graph's decomposition and runs
    the DP on that, and the report says so with width_d and width_h."""
    poly = {"comb10": sc.gen_comb(10), "spiral5": sc.gen_path_lb(5)}[shape]

    def one_bag_for_s(adj):
        if isinstance(adj, dict):  # the dual graph; S comes as a list of int neighbour sets
            return sc.decompose(adj)
        assert len(adj) > 21  # one bag is wider than the default --width-max
        return sc.TreeDecomposition(bags=(frozenset(range(len(adj))),), edges=())

    monkeypatch.setattr(sc.solve, "decompose", one_bag_for_s)
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps(poly.to_dict()))
    report, td_path = tmp_path / "report.json", tmp_path / "td.txt"
    assert main(["solve", str(poly_path), "--algo", "dp", "--mode", mode,
                 "--report", str(report), "--dump-td", str(td_path)]) == 0
    info = json.loads(report.read_text())
    pix = sc.pixelate(poly)
    inst = sc.solve.instance_for_mode(pix, mode)
    H = sc.build_auxiliary_graph(pix, xprime=inst.xprime, gammaprime=inst.universe)
    dual = sc.decompose(sc.dual_graph(pix))
    assert info["width_d"] == dual.width
    assert info["width_h"] == sc.lift_decomposition(dual, H, pix).width
    td = read_td(td_path.read_text())
    assert info["width_used"] == td.width <= info["width_h"]
    ok, wit = sc.validate_decomposition(td, H.nodes(), H.edges())
    assert ok, wit
    assert info["size"] == sc.brute_force_min_cover(inst).size


def test_solve_dp_width_exceeded_names_both_widths(tmp_path, capsys):
    """Past --width-max on min-fill and on the lift: exit 3, both widths named."""
    poly_path = tmp_path / "rand24.json"
    poly_path.write_text(json.dumps(sc.gen_random_simple(24, 0).to_dict()))
    report = tmp_path / "report.json"
    assert main(["solve", str(poly_path), "--algo", "dp", "--report", str(report)]) == 0
    capsys.readouterr()
    assert main(["solve", str(poly_path), "--algo", "dp", "--width-max", "5"]) == 3
    err = capsys.readouterr().err
    m = re.fullmatch(r"limit: min-fill width (\d+) exceeds limit 5; "
                     r"lifted width (\d+) exceeds limit 5\n", err)
    assert m, err
    assert int(m[1]) == json.loads(report.read_text())["width_used"] < int(m[2])


def test_solve_dp_random24_within_default_width_max(tmp_path, capsys):
    """Lifted width 24 exceeds the default --width-max 20; min-fill gives 12."""
    poly = sc.gen_random_simple(24, 0)
    poly_path = tmp_path / "rand24.json"
    poly_path.write_text(json.dumps(poly.to_dict()))
    td_path = tmp_path / "td.txt"
    assert main(["solve", str(poly_path), "--algo", "dp", "--dump-td", str(td_path)]) == 0
    pix = sc.pixelate(poly)
    opt = sc.brute_force_min_cover(sc.build_instance(pix)).size
    assert f"size={opt} " in capsys.readouterr().out
    H = sc.build_auxiliary_graph(pix)
    ok, wit = sc.validate_decomposition(read_td(td_path.read_text()), H.nodes(), H.edges())
    assert ok, wit


@pytest.mark.parametrize("data", [
    {"outer": [[0, 0], [2.5, 0], [2.5, 2], [0, 2]]},  # not a 2x2 square: 2.5 is no integer
    {"outer": [[0, 0], ["2", 0], [2, 2], [0, 2]]},
    {"outer": [[0, 0], [2, 0], [2], [0, 2]]},
    {"outer": 5},
    {"holes": []},
    {"outer": [[0, 0], [4, 0], [4, 4], [0, 4]], "holes": 3},
    [[0, 0], [2, 0], [2, 2], [0, 2]],
    # "holes" misspelt: the hole must not be dropped without a word
    {"outer": [[0, 0], [8, 0], [8, 6], [0, 6]], "hole": [[[2, 2], [2, 4], [3, 4], [3, 2]]]}])
def test_validate_rejects_malformed_polygon(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cameras", [
    [{"orientation": "H", "anchor": 0}],
    [{"anchor": 0, "span": [0, 2]}],
    [{"orientation": "Q", "anchor": 0, "span": [0, 2]}],
    [{"orientation": "H", "anchor": 5.5, "span": [0, 2]}],
    [{"orientation": "H", "anchor": "0", "span": [0, 2]}],
    [{"orientation": "V", "anchor": 0, "span": [0, 1.5]}],
    [{"orientation": "H", "anchor": 0, "span": [2, 0]}],
    [{"orientation": "H", "anchor": 0, "span": [0]}],
    ["H 0 0 2"],
    None])
def test_verify_rejects_malformed_cameras(tmp_path, capsys, cameras):
    poly_path = write_poly(tmp_path, LSHAPE)
    sol_path = tmp_path / "bad.json"
    sol_path.write_text(json.dumps({} if cameras is None else {"cameras": cameras}))
    assert main(["verify", poly_path, str(sol_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_generate_reports_generator_retries_as_a_limit(monkeypatch, capsys):
    def gives_up(n, seed):
        raise sc.GenerationFailed(f"could not generate a simple polygon with n={n}")

    monkeypatch.setattr("slidecam.cli.gen_random_simple", gives_up)
    assert main(["generate", "--shape", "random_simple", "--n", "200"]) == 3
    assert capsys.readouterr().err.startswith("limit: ")


@pytest.mark.parametrize("camera", [
    {"orientation": "V", "anchor": 1, "span": [-50, 50]},
    {"orientation": "H", "anchor": 1, "span": [-9, 9]}])
def test_verify_rejects_cameras_outside_the_polygon(tmp_path, capsys, camera):
    """comb(4) spans y = 0..7 and x = 0..2: each camera crosses every cross
    but leaves the closed polygon."""
    poly_path = tmp_path / "comb4.json"
    poly_path.write_text(json.dumps(sc.gen_comb(4).to_dict()))
    sol_path = tmp_path / "out.json"
    sol_path.write_text(json.dumps({"cameras": [camera]}))
    assert main(["verify", str(poly_path), str(sol_path)]) == 1
    assert capsys.readouterr().err.startswith("error: camera 0: ")


@pytest.mark.parametrize("span", [[0, 4], [1, 2]])
def test_verify_accepts_cameras_between_grid_lines(tmp_path, span):
    """x = 3 is no grid line of [0, 10] x [0, 4]; the camera is inside."""
    poly_path = write_poly(tmp_path, [[(0, 0), (10, 0), (10, 4), (0, 4)]])
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"cameras": [{"orientation": "V", "anchor": 3, "span": span}]}))
    assert main(["verify", poly_path, str(sol_path)]) == 0


def reference_main(argv, monkeypatch):
    """``main`` with every argv parsed by the top-level parser, which hands
    what follows a command to the command's parser and refuses leftovers."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_args", lambda a: cli.build_parser().parse_args(a))
        return main(argv)


def _run(fn, argv, capsys):
    """Exit code (or ``SystemExit`` code), stdout and stderr of ``fn(argv)``."""
    try:
        code = fn(argv)
    except SystemExit as e:
        code = ("SystemExit", e.code)
    out, err = capsys.readouterr()
    return code, out, err


# {poly}, {sol} and {f} stand for a comb(3) file, a cover of it and an output file
_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "{poly}"], ["--bogus", "solve", "{poly}"],
    ["validate", "{poly}"], ["validate", "{poly}", "--out", "{f}"], ["validate", "-h"],
    ["validate"], ["validate", "{poly}", "--bogus"],
    ["pixelate", "{poly}"], ["pixelate", "{poly}", "--render", "{f}"], ["pixelate", "-h"],
    ["pixelate"],
    ["generate", "--shape", "comb"],
    ["generate", "--shape", "random_simple", "--k", "2", "--n", "8", "--seed", "1", "--out", "{f}"],
    ["generate"], ["generate", "--shape", "nope"], ["generate", "-h"],
    ["solve", "{poly}"],
    ["solve", "{poly}", "--mode", "custom", "--algo", "dp", "--seed", "1", "--cap", "40",
     "--width-max", "20", "--net-constant", "2.0", "--round-constant", "1.5", "--crosses", "0,1",
     "--guard-orientations", "HV", "--dump-td", "{f}.td", "--out", "{f}", "--report", "{f}.r",
     "--render", "{f}.svg"],
    ["solve", "{poly}", "--mode", "custom", "--crosses", "0", "--guard-ids", "0,1"],
    ["solve"], ["solve", "-h"], ["solve", "{poly}", "-h"], ["solve", "{poly}", "--mode", "nope"],
    ["solve", "{poly}", "--algo", "nope"], ["solve", "{poly}", "--bogus"],
    ["solve", "{poly}", "extra"], ["solve", "{poly}", "--seed", "x"], ["solve", "{poly}", "--algo"],
    ["solve", "--", "{poly}"], ["solve", "{poly}", "--alg", "dp"],
    ["verify", "{poly}", "{sol}"], ["verify", "{poly}"], ["verify", "-h"],
    ["bounds", "{poly}"], ["bounds", "{poly}", "{poly}", "--out", "{f}"], ["bounds"],
    ["bounds", "-h"],
    ["export", "{poly}"], ["export", "{poly}", "--mode", "custom", "--guard-orientations", "H",
                           "--out", "{f}"],
    ["export", "{poly}", "--mode", "nope"], ["export", "-h"], ["export"],
]


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_main_parses_as_the_top_level_parser(tmp_path, capsys, monkeypatch, argv):
    """Each command bare and with every option, help at both levels, a
    missing positional, bad choices and types, unknown options, commands
    and leftovers: the same exit code, stdout and stderr as parsing with the
    top-level parser."""
    monkeypatch.setenv("COLUMNS", "100")
    poly = tmp_path / "comb3.json"
    poly.write_text(json.dumps(sc.gen_comb(3).to_dict()))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(sc.solve_polygon(sc.gen_comb(3))[0].to_dict()))
    argv = [a.format(poly=poly, sol=sol, f=tmp_path / "f") for a in argv]
    got = _run(main, argv, capsys)
    assert got == _run(lambda a: reference_main(a, monkeypatch), argv, capsys)


@pytest.mark.parametrize("args", [[], ["-h"], ["solve"], ["validate", "{poly}"]])
def test_main_reads_sys_argv_as_the_top_level_parser(tmp_path, capsys, monkeypatch, args):
    poly = tmp_path / "comb3.json"
    poly.write_text(json.dumps(sc.gen_comb(3).to_dict()))
    monkeypatch.setattr(sys, "argv", ["slidecam", *(a.format(poly=poly) for a in args)])
    assert _run(main, None, capsys) == _run(lambda a: reference_main(a, monkeypatch), None, capsys)


def test_main_parses_a_command_without_the_top_level_parser(tmp_path, capsys, monkeypatch):
    """A command with nothing left over is parsed by its own parser alone."""
    poly = tmp_path / "comb3.json"
    poly.write_text(json.dumps(sc.gen_comb(3).to_dict()))
    top = cli._parsers()[0]

    def refused(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(top, "parse_args", refused)
    monkeypatch.setattr(top, "parse_known_args", refused)
    assert main(["solve", str(poly), "--algo", "dp", "--mode", "mhsc"]) == 0
    assert "size=3" in capsys.readouterr().out


def reference_render_svg(pix, solution=None):
    """``render_svg`` as it was: every coordinate mapped through module
    functions that read the polygon's bounding box afresh."""
    from slidecam.render import _PAD, _SCALE
    from slidecam.geometry import visible_region

    def _tx(pix, x2):
        xl, _, _, _ = pix.polygon.bbox()
        return (x2 - 2 * (xl - _PAD)) * _SCALE

    def _ty(pix, y2):
        _, _, _, yh = pix.polygon.bbox()
        return (2 * (yh + _PAD) - y2) * _SCALE

    def _ends(pix, orientation, anchor2, lo, hi):
        if orientation == "V":
            x = _tx(pix, anchor2)
            return f'x1="{x}" y1="{_ty(pix, 2 * lo)}" x2="{x}" y2="{_ty(pix, 2 * hi)}"'
        y = _ty(pix, anchor2)
        return f'x1="{_tx(pix, 2 * lo)}" y1="{y}" x2="{_tx(pix, 2 * hi)}" y2="{y}"'

    poly = pix.polygon
    xl, yl, xh, yh = poly.bbox()
    width = (xh - xl + 2 * _PAD) * 2 * _SCALE
    height = (yh - yl + 2 * _PAD) * 2 * _SCALE
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">']
    visible = set()
    if solution is not None:
        for cam in solution.cameras:
            visible |= visible_region(pix, cam)
    path = []
    for ring in poly.rings():
        pts = [f"{_tx(pix, 2 * x)},{_ty(pix, 2 * y)}" for x, y in ring]
        path.append("M " + " L ".join(pts) + " Z")
    out.append(f'<path d="{" ".join(path)}" fill="#f2f2f2" stroke="none" '
               f'fill-rule="evenodd"/>')
    for p in pix.pixels:
        x0, y0, x1, y1 = p.rect
        fill = "#bfdfff" if p.id in visible else "none"
        out.append(
            f'<rect x="{_tx(pix, 2 * x0)}" y="{_ty(pix, 2 * y1)}" '
            f'width="{(x1 - x0) * 2 * _SCALE}" height="{(y1 - y0) * 2 * _SCALE}" '
            f'fill="{fill}" stroke="#999999" stroke-width="1"/>')
    for seg in pix.sigmas:
        out.append(f'<line {_ends(pix, seg.orientation, seg.anchor2, seg.lo, seg.hi)} '
                   f'stroke="#2b7a2b" stroke-width="1" stroke-dasharray="4,3"/>')
    for orientation, anchor, lo, hi in pix.guard_runs:
        out.append(f'<line {_ends(pix, orientation, 2 * anchor, lo, hi)} '
                   f'stroke="#e0a030" stroke-width="1" opacity="0.6"/>')
    for cross in pix.crosses:
        cx, cy = _tx(pix, cross.point2[0]), _ty(pix, cross.point2[1])
        r = _SCALE // 3
        out.append(f'<line x1="{cx - r}" y1="{cy - r}" x2="{cx + r}" y2="{cy + r}" '
                   f'stroke="#444444" stroke-width="1"/>')
        out.append(f'<line x1="{cx - r}" y1="{cy + r}" x2="{cx + r}" y2="{cy - r}" '
                   f'stroke="#444444" stroke-width="1"/>')
    for ring in poly.rings():
        pts = [f"{_tx(pix, 2 * x)},{_ty(pix, 2 * y)}" for x, y in ring]
        out.append(f'<polygon points="{" ".join(pts)}" fill="none" '
                   f'stroke="#000000" stroke-width="3"/>')
    if solution is not None:
        for cam in solution.cameras:
            out.append(f'<line {_ends(pix, cam.orientation, 2 * cam.anchor, cam.lo, cam.hi)} '
                       f'stroke="#cc2222" stroke-width="5" stroke-linecap="round"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


TWO_HOLES = [[(0, 0), (8, 0), (8, 6), (0, 6)],
             [(2, 2), (2, 4), (3, 4), (3, 2)], [(5, 1), (5, 3), (6, 3), (6, 1)]]


def test_svg_reads_the_bounding_box_once(monkeypatch):
    calls = []
    bbox = sc.OrthoPolygon.bbox
    monkeypatch.setattr(sc.OrthoPolygon, "bbox", lambda self: calls.append(1) or bbox(self))
    p = sc.gen_comb(10)
    sol, _ = sc.solve_polygon(p, algo="greedy")
    pix = sc.pixelate(p)
    calls.clear()
    render_svg(pix, sol)
    assert len(calls) == 1


def test_svg_bytes_match_the_per_coordinate_reference(corpus, monkeypatch):
    """The same SVG as the renderer that read the bounding box per
    coordinate, with no cover, a greedy cover and a path cover, on the
    corpus, comb(400), path_lb(160) and a two-hole shape.  Each polygon's
    bounding box is computed once and then served from a memo, so the
    reference's many reads of it cost O(1) each and not O(n)."""
    bbox, memo = sc.OrthoPolygon.bbox, {}

    def memo_bbox(self):
        if id(self) not in memo:
            memo[id(self)] = (self, bbox(self))  # the polygon is kept, so its id stays its own
        return memo[id(self)][1]

    monkeypatch.setattr(sc.OrthoPolygon, "bbox", memo_bbox)
    shapes = {**corpus, "comb400": sc.gen_comb(400), "spiral160": sc.gen_path_lb(160),
              "two_holes": sc.validate_polygon(TWO_HOLES)}
    paths = 0
    for name, p in shapes.items():
        pix = sc.pixelate(p)
        covers = [None, sc.solve_polygon(p, algo="greedy")[0]]
        try:
            covers.append(sc.solve_polygon(p, algo="path")[0])
            paths += 1
        except sc.NotPathSegmentation:
            pass
        for sol in covers:
            assert render_svg(pix, sol) == reference_render_svg(pix, sol), name
    assert paths >= 10
