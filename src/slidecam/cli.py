"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 infeasible, 3 internal limit
(size cap, decomposition width, sampling budget or generator retries).
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

from .approx import DEFAULT_NET_CONSTANT, DEFAULT_ROUND_CONSTANT
from .errors import (
    BudgetInsufficient,
    CapExceeded,
    GenerationFailed,
    Infeasible,
    NotPathSegmentation,
    PolygonError,
    TooLargeForOracle,
    WidthExceeded,
)
from .gallery import check_bounds, gen_comb, gen_path_lb, gen_random_simple, gen_thin_tree
from .geometry import (HORIZONTAL, VERTICAL, GuardSegment, OrthoPolygon, Pixelation, pixelate,
                       verify_cover)
from .render import render_svg
from .solve import ALGOS, MODES, instance_for_mode, solve_polygon
from .treewidth import DEFAULT_WIDTH_MAX

log = logging.getLogger("slidecam")


def _read_polygon(path: str) -> OrthoPolygon:
    with open(path) as f:
        data = json.load(f)
    return OrthoPolygon.from_dict(data)


def _read_cameras(path: str, pix: Pixelation) -> list[GuardSegment]:
    """A solution file's cameras; a malformed one or one outside ``pix`` is a ValueError."""
    with open(path) as f:
        data = json.load(f)
    cams = data.get("cameras") if isinstance(data, dict) else None
    if not isinstance(cams, list):
        raise ValueError(f'{path}: no "cameras" list')
    out = []
    for k, c in enumerate(cams):
        try:
            ends = [c["anchor"], *c["span"]]
            anchor, lo, hi = ints = [int(t) for t in ends]
            orientation = c["orientation"]
        except (TypeError, KeyError, ValueError, OverflowError):
            raise ValueError(f'camera {k}: needs "orientation", an integer "anchor" '
                             f'and a "span" of two integers') from None
        if ints != ends:
            raise ValueError(f"camera {k}: anchor and span ends must be integers, got {ends}")
        if orientation not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"camera {k}: orientation {orientation!r} is not H or V")
        if lo > hi:
            raise ValueError(f"camera {k}: span [{lo}, {hi}] has lo > hi")
        if not pix.contains_segment(orientation, anchor, lo, hi):
            raise ValueError(f"camera {k}: {orientation} {anchor} [{lo}, {hi}] leaves the polygon")
        out.append(GuardSegment(orientation=orientation, anchor=anchor, lo=lo, hi=hi))
    return out


def _dump_json(obj, path):
    # no indent: json then encodes in C
    text = json.dumps(obj, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_text(text: str, path: str):
    with open(path, "w") as f:
        f.write(text)


def cmd_validate(args) -> int:
    poly = _read_polygon(args.polygon)
    _dump_json(poly.to_dict(), args.out)
    return 0


def cmd_pixelate(args) -> int:
    poly = _read_polygon(args.polygon)
    pix = pixelate(poly)
    # counted from the tables: pixels and crosses are 1:1 by id
    cells = len(pix.h_supports)
    print(f"n={poly.n} pixels={cells} crosses={cells} "
          f"slices_h={len(pix._chains[HORIZONTAL])} slices_v={len(pix._chains[VERTICAL])} "
          f"guards={len(pix.guard_runs)}")
    if args.render:
        _write_text(render_svg(pix), args.render)
    return 0


def cmd_generate(args) -> int:
    if args.shape == "comb":
        poly = gen_comb(args.k)
    elif args.shape == "path_lb":
        poly = gen_path_lb(args.k)
    elif args.shape == "random_simple":
        poly = gen_random_simple(args.n, args.seed)
    elif args.shape == "thin_tree":
        poly = gen_thin_tree(args.k, args.seed)
    else:
        raise ValueError(args.shape)
    _dump_json(poly.to_dict(), args.out)
    return 0


def cmd_solve(args) -> int:
    if args.dump_td and args.algo != "dp":
        # only dp has a decomposition; writing nothing would leave a stale
        # file that looks like this run's
        raise ValueError(f"--dump-td applies to algo dp, not {args.algo!r}")
    poly = _read_polygon(args.polygon)
    xprime = None
    if args.crosses:
        xprime = [int(t) for t in args.crosses.split(",") if t]
    guard_ids = None
    if args.guard_ids:
        guard_ids = [int(t) for t in args.guard_ids.split(",") if t]
    sol, info = solve_polygon(
        poly, mode=args.mode, algo=args.algo, seed=args.seed, cap=args.cap,
        width_max=args.width_max, net_constant=args.net_constant,
        round_constant=args.round_constant, xprime=xprime, guard_ids=guard_ids,
        guard_orientations=args.guard_orientations)
    if args.dump_td:
        _write_text(sol.decomposition.to_text(), args.dump_td)
    # path never builds the canonical cameras, so it reports no guard count
    guards = f"guards={info['guards']} " if "guards" in info else ""
    print(f"n={info['n']} pixels={info['pixels']} crosses={info['crosses']} "
          f"{guards}size={sol.size} "
          f"msc_bound={info['msc_bound']} mhsc_bound={info['mhsc_bound']}")
    if args.out:
        _dump_json(sol.to_dict(), args.out)
    if args.report:
        _dump_json(info, args.report)
    if args.render:
        _write_text(render_svg(pixelate(poly), sol), args.render)
    return 0


def cmd_verify(args) -> int:
    poly = _read_polygon(args.polygon)
    pix = pixelate(poly)
    report = verify_cover(pix, _read_cameras(args.solution, pix))
    if report.covered:
        print(f"covered: all {len(pix.h_supports)} crosses")
        return 0
    print(f"uncovered crosses: {','.join(map(str, report.uncovered))}")
    return 2


def cmd_bounds(args) -> int:
    rows = []
    for path in args.polygons:
        poly = _read_polygon(path)
        rep = check_bounds(poly)
        rows.append({"polygon": path, **rep.to_dict()})
        print(f"{path}: n={rep.n} msc={rep.msc} (<= {rep.msc_bound}) "
              f"mhsc={rep.mhsc} (<= {rep.mhsc_bound}) ok={rep.ok}")
    if args.out:
        _dump_json(rows, args.out)
    return 0 if all(r["ok"] for r in rows) else 3


def cmd_export(args) -> int:
    poly = _read_polygon(args.polygon)
    pix = pixelate(poly)
    inst = instance_for_mode(pix, args.mode,
                             guard_orientations=args.guard_orientations)
    _dump_json(inst.to_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="slidecam",
                                description="Sliding-camera guarding of orthogonal polygons")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="normalize a polygon JSON file")
    pv.add_argument("polygon")
    pv.add_argument("--out", default="-")
    pv.set_defaults(func=cmd_validate)

    pp = sub.add_parser("pixelate", help="build and report the pixelation")
    pp.add_argument("polygon")
    pp.add_argument("--render", help="write an SVG of the pixelation")
    pp.set_defaults(func=cmd_pixelate)

    pg = sub.add_parser("generate", help="generate a test polygon")
    pg.add_argument("--shape", required=True,
                    choices=["comb", "path_lb", "random_simple", "thin_tree"])
    pg.add_argument("--k", type=int, default=3)
    pg.add_argument("--n", type=int, default=12)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default="-")
    pg.set_defaults(func=cmd_generate)

    ps = sub.add_parser("solve", help="compute a camera set")
    ps.add_argument("polygon")
    ps.add_argument("--mode", default="msc", choices=list(MODES))
    ps.add_argument("--algo", default="exact", choices=list(ALGOS))
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--cap", type=int, default=None)
    ps.add_argument("--width-max", type=int, default=DEFAULT_WIDTH_MAX)
    ps.add_argument("--net-constant", type=float, default=DEFAULT_NET_CONSTANT)
    ps.add_argument("--round-constant", type=float, default=DEFAULT_ROUND_CONSTANT)
    ps.add_argument("--crosses", help="comma-separated pixel ids for custom mode")
    ps.add_argument("--guard-ids", help="comma-separated guard ids for custom mode "
                                        "(not with --guard-orientations)")
    ps.add_argument("--guard-orientations", help="H, V or HV for custom mode")
    ps.add_argument("--dump-td", help="write the DP's tree decomposition of the auxiliary "
                                        "graph (algo dp only; any other algo is invalid input)")
    ps.add_argument("--out")
    ps.add_argument("--report", help="write run statistics (incl. reweighting stats) as JSON")
    ps.add_argument("--render")
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("verify", help="check a solution file against a polygon")
    pw.add_argument("polygon")
    pw.add_argument("solution")
    pw.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bounds", help="exact optima versus the vertex-count bounds")
    pb.add_argument("polygons", nargs="+")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bounds)

    pe = sub.add_parser("export", help="dump the hitting-set instance as JSON")
    pe.add_argument("polygon")
    pe.add_argument("--mode", default="msc", choices=list(MODES))
    pe.add_argument("--guard-orientations")
    pe.add_argument("--out", default="-")
    pe.set_defaults(func=cmd_export)

    return p


@functools.lru_cache(maxsize=1)
def _parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parser of ``main`` and its command parsers by name, built once per
    process; parsing leaves them unchanged."""
    top = build_parser()
    return top, next(a.choices for a in top._actions if a.dest == "command")


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser parses it, in one pass when
    it starts with a command: the top-level parser hands everything after
    the command to that command's parser.  Only an argv without a command
    (none, ``-h`` or an unknown one) or with arguments the command's parser
    leaves over goes through the top-level parser, which then answers or
    refuses them with its own usage."""
    top, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args
    return top.parse_args(argv)


def main(argv=None) -> int:
    level = os.environ.get("SLIDECAM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _parse_args(argv)
    try:
        return args.func(args)
    except (PolygonError, FileNotFoundError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (Infeasible, NotPathSegmentation) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except (CapExceeded, WidthExceeded, BudgetInsufficient, TooLargeForOracle,
            GenerationFailed) as e:
        print(f"limit: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
