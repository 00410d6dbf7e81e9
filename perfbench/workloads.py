"""Inputs, operations and output checks of the three benchmark workloads.

Every workload turns ``--seed`` into a fixed list of cases.  Each case is a
polygon given as raw vertex rings, so every operation starts the way a user
reading JSON would: ``validate_polygon`` is on the timed path.  Sizes sit on
a fixed ladder per family and the seed picks the random shapes (thin trees,
random simple and holed polygons), so two seeds give different inputs with
the same mix of work.

A workload has three parts: ``setup`` builds the cases (input generation
plus reference optima), ``run`` is the timed operation, and ``check``
verifies the output outside the timed region and raises ``CheckFailed``
when it is wrong.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class CliExit(Exception):
    """``slidecam.cli.main`` returned a non-zero exit code."""

    def __init__(self, code: int):
        super().__init__(f"exit code {code}")
        self.code = code


# path_guard's known defect: it gives up on some inputs whose slice dual is a
# path, raising this instead of returning a cover.
KNOWN_REFUSAL = re.compile(r"peeled piece has \d+ > 8 vertices")


def failure_kind(exc: Exception) -> str:
    """The kind under which a failed operation is counted.

    Any ``AssertionError`` from the library other than the known refusal is
    one of its own output checks failing (a non-covering solution, a path
    cover over the paper's bound, a broken invariant); it counts as
    ``check``, like a failed check of the benchmark, so the run is marked
    incorrect.
    """
    if isinstance(exc, CliExit):
        return f"exit{exc.code}"
    if isinstance(exc, AssertionError):
        return "peel_size" if KNOWN_REFUSAL.search(str(exc)) else "check"
    return type(exc).__name__


@dataclass
class Case:
    family: str
    rings: list                      # raw vertex rings, outer first
    n: int
    mode: str = "msc"
    path: Optional[str] = None       # polygon JSON file (CLI workload)
    opt: Optional[int] = None        # reference optimum (CLI workload)


@dataclass
class Outcome:
    """What the checked output of one successful operation tells us."""

    size: int
    bound: int                       # the paper's vertex-count bound for the op
    info: Dict = field(default_factory=dict)
    dump_mismatch: bool = False


def clear_pixelate_cache(sc) -> None:
    """Empty the ``pixelate`` cache, if this version of slidecam has one."""
    fn = sc.geometry.pixelate
    while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__          # under a tracing wrapper
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()


class Setup:
    """Builds one workload's inputs and times its parts.

    ``totals`` holds the seconds spent in the gallery generators
    (``gallery.gen``) and on reference optima (``exact.oracle``).  The
    pixelate cache is emptied after every generated polygon, so set-up
    neither hands pixelations to the timed operations nor grows the
    process with pixelations of discarded shapes.

    Random shapes are picked by trying generator seeds until one gives an
    accepted shape.  A set-up without ``picks`` searches and records the
    seed it takes for each shape in ``picks``; a set-up given the ``picks``
    of an earlier one builds the same shapes straight from those seeds.  So
    a timed set-up pays for generating its inputs, and not for the varying
    number of shapes rejected on the way.

    Given a ``speed`` log, a timed set-up takes one host-speed probe after
    every generated polygon, so that the speed it is scaled by is the
    speed while it ran; the caller subtracts the probes' time.
    """

    def __init__(self, sc, rng: random.Random, picks: Optional[List[int]] = None,
                 speed=None):
        self.sc = sc
        self.rng = rng
        self.speed = speed
        self.totals: Dict[str, float] = {}
        self.searching = picks is None
        self.picks: List[int] = [] if picks is None else picks
        self._next_pick = 0

    def call(self, bucket: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.totals[bucket] = self.totals.get(bucket, 0.0) + time.perf_counter() - t0

    def gen(self, generator: str, *args):
        poly = self.call("gallery.gen", getattr(self.sc.gallery, generator), *args)
        clear_pixelate_cache(self.sc)
        if self.speed is not None:
            self.speed.sample()
        return poly

    def _candidates(self, n: int, seed: int):
        """(seed, polygon) of ``gen_random_simple(n, s)`` for s = seed, seed + 1, ...

        A seed the generator cannot build from (``GenerationFailed``) is
        skipped.  The pixelate cache is emptied after every candidate.
        """
        while True:
            try:
                poly = self.sc.gallery.gen_random_simple(n, seed)
            except self.sc.GenerationFailed:
                poly = None
            if poly is not None:
                yield seed, poly
            clear_pixelate_cache(self.sc)
            seed += 1

    def _replay(self, n: int):
        seed = self.picks[self._next_pick]
        self._next_pick += 1
        return self.gen("gen_random_simple", n, seed)

    def random_simple(self, n: int, accept=None):
        """The first random shape with ``n`` vertices that ``accept`` takes."""
        base = self.rng.randrange(10**9)   # drawn on replay too, to keep later draws alike
        if not self.searching:
            return self._replay(n)
        for seed, poly in self._candidates(n, base):
            if accept is None or accept(poly):
                self.picks.append(seed)
                return poly

    def random_simple_spread(self, n: int, count: int, key, pool: int) -> list:
        """``count`` random shapes with ``n`` vertices, spread evenly over ``key``.

        ``pool`` candidates whose ``key`` is not None are sorted by it, and
        the shapes are taken at evenly spaced ranks.  So the keys of the
        shapes follow the quantiles of ``pool`` draws rather than of
        ``count``, and move less between seeds.
        """
        base = self.rng.randrange(10**9)
        if not self.searching:
            return [self._replay(n) for _ in range(count)]
        candidates = []
        for seed, poly in self._candidates(n, base):
            k = key(poly)
            if k is not None:
                candidates.append((k, seed))
                if len(candidates) == pool:
                    break
        candidates.sort()
        chosen = [candidates[(2 * i + 1) * pool // (2 * count)][1] for i in range(count)]
        self.picks.extend(chosen)
        return [self.gen("gen_random_simple", n, seed) for seed in chosen]


def raw_rings(poly) -> list:
    return [[list(v) for v in ring] for ring in poly.rings()]


def gen_holed(gx: int, gy: int, rng: random.Random) -> list:
    """Raw rings of a rectangle with a jittered gx-by-gy grid of rectangular holes.

    Column widths and row heights are drawn from 3..7; each grid cell holds
    one hole, drawn inside the cell with a free margin of at least one unit,
    so holes never touch each other or the outer ring.
    """
    xs, ys = [1], [1]
    for _ in range(gx):
        xs.append(xs[-1] + rng.randint(3, 7))
    for _ in range(gy):
        ys.append(ys[-1] + rng.randint(3, 7))
    holes = []
    for i in range(gx):
        for j in range(gy):
            x0, x1 = xs[i], xs[i + 1] - 1
            y0, y1 = ys[j], ys[j + 1] - 1
            a = rng.randint(x0, x1 - 1)
            b = rng.randint(a + 1, x1)
            c = rng.randint(y0, y1 - 1)
            d = rng.randint(c + 1, y1)
            holes.append([[a, c], [b, c], [b, d], [a, d]])
    outer = [[0, 0], [xs[-1], 0], [xs[-1], ys[-1]], [0, ys[-1]]]
    return [outer, *holes]


def _is_path(adj: Dict[int, set]) -> bool:
    if len(adj) == 1:
        return True
    degrees = [len(nb) for nb in adj.values()]
    if degrees.count(1) != 2 or any(d > 2 for d in degrees):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def _verify(sc, poly, cameras) -> None:
    if not cameras:
        raise CheckFailed("empty camera set")
    report = sc.geometry.verify_cover(sc.geometry.pixelate(poly), list(cameras))
    if not report.covered:
        raise CheckFailed(f"crosses {report.uncovered[:5]} are not covered")


class Workload:
    """Set-up, timed operation and output check of one workload.

    ``workdir`` is a private scratch directory for the files a workload
    reads and writes.
    """

    name = ""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, sc, su: Setup) -> List[Case]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def run(self, sc, case: Case):
        raise NotImplementedError

    def check(self, sc, case: Case, result) -> Outcome:
        raise NotImplementedError


class LibraryWorkload(Workload):
    """``validate_polygon`` + ``solve_polygon`` called in-process."""

    algo = ""

    def run(self, sc, case: Case):
        poly = sc.geometry.validate_polygon(case.rings)
        sol, info = sc.solve.solve_polygon(poly, mode="msc", algo=self.algo)
        return poly, sol, info

    def bound(self, case: Case) -> int:
        raise NotImplementedError

    def check(self, sc, case: Case, result) -> Outcome:
        poly, sol, info = result
        if sol.size != len(sol.cameras):
            raise CheckFailed(f"size {sol.size} != {len(sol.cameras)} cameras")
        _verify(sc, poly, sol.cameras)
        return Outcome(size=sol.size, bound=self.bound(case), info=info)


class LargePolygons(LibraryWorkload):
    """Greedy msc on large polygons: pixelation and validation dominate."""

    name = "large_polygons"
    algo = "greedy"

    def setup(self, sc, su: Setup) -> List[Case]:
        # Operation times climb in steps of about 1.25x from case to case;
        # the cheap comb and holed cases fill the ladder densely, so that p50
        # hinges less on any one random shape.
        rng = su.rng
        polys = [("comb", su.gen("gen_comb", k)) for k in range(20, 201, 15)]
        # generating path_lb(k) grows like k**3.4: 1.2 s at k = 50, 2 s at k = 60
        polys += [("path_lb", su.gen("gen_path_lb", k)) for k in (10, 20, 30, 40, 48)]
        polys += [("thin_tree", su.gen("gen_thin_tree", b, rng.randrange(10**9)))
                  for b in range(20, 161, 15)]
        # gen_random_simple already fails on some seeds at n=160.  Greedy's
        # cameras over the bound spread widely between random shapes of one
        # n (about 0.3 in log), so they are few among many cases whose ratio
        # hardly depends on the seed, and cover_ratio stays within a few
        # percent from seed to seed.
        polys += [("random_simple", su.random_simple(n)) for n in range(40, 121, 10)]
        cases = [Case(family, raw_rings(p), p.n) for family, p in polys]
        for g in range(3, 9):
            for gx, gy in ((g, g), (g, g + 1), (g + 1, g), (g + 1, g + 1)):
                rings = gen_holed(gx, gy, rng)
                cases.append(Case("holed", rings, sum(len(r) for r in rings)))
        return cases

    def bound(self, case: Case) -> int:
        return (3 * case.n + 4) // 16


# Random path-dual shapes per n in path_peel, and how many of them path_guard
# refuses: the share it refused of 800 path-dual shapes at each n (16% at
# n=12, 14%, 14%, 24%, 27%, 26%, 33%, 36% and 36% at n=28), times 34.
PATH_SHAPES = 34
REFUSALS = {12: 5, 14: 5, 16: 5, 18: 8, 20: 9, 22: 9, 24: 11, 26: 12, 28: 12}


def _path_refuses(sc, poly) -> bool:
    """Whether ``solve --algo path`` stops on ``poly`` with the known refusal.

    Any other outcome, a wrong cover included, counts as not refused: the
    timed operation then meets it and counts it.
    """
    try:
        sc.solve.solve_polygon(sc.geometry.validate_polygon(raw_rings(poly)),
                               mode="msc", algo="path")
    except AssertionError as e:
        return bool(KNOWN_REFUSAL.search(str(e)))
    except Exception:
        return False
    finally:
        clear_pixelate_cache(sc)
    return False


class PathPeel(LibraryWorkload):
    """The ``path`` algorithm: many small re-validations and re-pixelations."""

    name = "path_peel"
    algo = "path"

    def setup(self, sc, su: Setup) -> List[Case]:
        # comb and path_lb depend on k alone.  These twelve take most of a
        # pass; they are few, so p50 and p90 fall among the random shapes,
        # whose many samples keep them steady between seeds.
        polys = [("comb", su.gen("gen_comb", k)) for k in (4, 15, 25, 35, 45, 55, 60)]
        polys += [("path_lb", su.gen("gen_path_lb", k)) for k in (3, 9, 15, 20, 26)]

        def path_dual(poly) -> bool:
            return any(_is_path(sc.geometry.segmentation_dual(poly, o))
                       for o in (sc.VERTICAL, sc.HORIZONTAL))

        # The share of random shapes whose dual is a path falls from nearly
        # all at n=12 to one in eight at n=40 and one in forty at n=60, and
        # set-up pays for every rejected one.  path_guard refuses a share of
        # the accepted ones that grows with n (KNOWN_REFUSAL), and half or
        # more above n=28.  Each seed takes exactly REFUSALS[n] refused and
        # PATH_SHAPES - REFUSALS[n] solved shapes at each n, so the defect shows in
        # every run at its measured share and the count of failed
        # operations is the same for every seed.
        for n, refusals in REFUSALS.items():
            left = {True: refusals, False: PATH_SHAPES - refusals}

            def accept(poly, left=left) -> bool:
                if not path_dual(poly):
                    return False
                refused = _path_refuses(sc, poly)
                if not left[refused]:
                    return False
                left[refused] -= 1
                return True

            polys += [("random_simple", su.random_simple(n, accept))
                      for _ in range(PATH_SHAPES)]
        return [Case(family, raw_rings(p), p.n) for family, p in polys]

    def bound(self, case: Case) -> int:
        return (case.n + 2) // 6

    def check(self, sc, case: Case, result) -> Outcome:
        out = super().check(sc, case, result)
        if out.size > out.bound:
            raise CheckFailed(f"path used {out.size} > {out.bound} cameras")
        return out


def _optimum(sc, poly, mode: str) -> int:
    inst = sc.solve.instance_for_mode(sc.geometry.pixelate(poly), mode)
    return sc.exact.brute_force_min_cover(inst).size


WIDTH_CAP = 18


def _lifted_width(sc, poly, mode: str) -> int:
    """Width of the decomposition ``solve --algo dp`` lifts for ``mode``."""
    pix = sc.geometry.pixelate(poly)
    inst = sc.solve.instance_for_mode(pix, mode)
    td = sc.treewidth.decompose(sc.treewidth.dual_graph(pix))
    aux = sc.hitset.build_auxiliary_graph(pix, xprime=inst.xprime, gammaprime=inst.universe)
    return sc.treewidth.lift_decomposition(td, aux, pix).width


_GUARD_NODE = re.compile(r"\('g', (\d+)\)")


class SmallDpCli(Workload):
    """``slidecam solve --algo dp`` through ``cli.main`` on small polygons."""

    name = "small_dp_cli"

    def setup(self, sc, su: Setup) -> List[Case]:
        rng = su.rng
        polys = [("thin_tree", su.gen("gen_thin_tree", b, rng.randrange(10**9)))
                 for b in range(2, 16, 2)]
        polys += [("path_lb", su.gen("gen_path_lb", k)) for k in (2, 3, 4, 5)]
        polys += [("comb", su.gen("gen_comb", k)) for k in (2, 4, 6, 8, 10)]
        # DP time and memory grow about twofold per 1.5 units of lifted
        # width, and the width of a random shape varies widely at one n.  So
        # the shapes at each n are spread over the width order (larger, then
        # smaller of the two modes' widths) of eight times as many
        # candidates: every seed then gets nearly the same widths, and with
        # them the same slow tail, p90 and peak memory.
        # Shapes are kept to a lifted width of WIDTH_CAP in both modes: the
        # 1-2% of shapes at n = 18 that reach 19 or 20 would each decide
        # their seed's peak memory, and none can hit the CLI's --width-max
        # 20 (exit 3).
        def widths(poly) -> Optional[tuple]:
            w = sorted((_lifted_width(sc, poly, mode) for mode in ("msc", "mhsc")), reverse=True)
            return tuple(w) if w[0] <= WIDTH_CAP else None

        counts = {10: 20, 12: 30, 14: 60, 16: 100, 18: 80}
        for n, count in counts.items():
            polys += [("random_simple", p)
                      for p in su.random_simple_spread(n, count, widths, pool=8 * count)]
        rings_list = [(family, raw_rings(p)) for family, p in polys]
        # one or two holes: a 2x2 grid of holes often lifts past width 20
        for gx, gy in [(1, 1)] * 8 + [(2, 1), (1, 2)] * 12:
            rings_list.append(("holed", gen_holed(gx, gy, rng)))

        cases = []
        for i, (family, rings) in enumerate(rings_list):
            path = os.path.join(self.workdir, f"case{i}.json")
            with open(path, "w") as f:
                json.dump({"outer": rings[0], "holes": rings[1:]}, f)
            poly = sc.geometry.validate_polygon(rings)
            clear_pixelate_cache(sc)
            for mode in ("msc", "mhsc"):
                opt = su.call("exact.oracle", _optimum, sc, poly, mode)
                cases.append(Case(family, rings, poly.n, mode=mode, path=path, opt=opt))
        return cases

    def _files(self) -> Dict[str, str]:
        return {k: os.path.join(self.workdir, f"{k}.out") for k in ("out", "report", "dump_td")}

    def prepare(self) -> None:
        # a failed op must not leave the previous op's files to be checked
        for path in self._files().values():
            if os.path.exists(path):
                os.remove(path)

    def run(self, sc, case: Case):
        files = self._files()
        argv = ["solve", case.path, "--algo", "dp", "--mode", case.mode,
                "--out", files["out"], "--report", files["report"],
                "--dump-td", files["dump_td"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = sc.cli.main(argv)
        if code:
            raise CliExit(code)
        return files

    def bound(self, case: Case) -> int:
        return (3 * case.n + 4) // 16 if case.mode == "msc" else case.n // 4

    def check(self, sc, case: Case, files) -> Outcome:
        with open(files["out"]) as f:
            cover = json.load(f)
        with open(files["report"]) as f:
            info = json.load(f)
        with open(files["dump_td"]) as f:
            dumped = {int(g) for g in _GUARD_NODE.findall(f.read())}
        cameras = [sc.GuardSegment(orientation=c["orientation"], anchor=c["anchor"],
                                   lo=c["span"][0], hi=c["span"][1])
                   for c in cover["cameras"]]
        if cover["size"] != len(cameras):
            raise CheckFailed(f"size {cover['size']} != {len(cameras)} cameras")
        if cover["size"] != case.opt:
            raise CheckFailed(f"dp size {cover['size']} != optimum {case.opt}")
        if case.mode == "mhsc" and any(c.orientation != sc.HORIZONTAL for c in cameras):
            raise CheckFailed("mhsc cover uses a vertical camera")
        poly = sc.geometry.validate_polygon(case.rings)
        _verify(sc, poly, cameras)
        pix = sc.geometry.pixelate(poly)
        universe = {g.id for g in pix.guards
                    if case.mode == "msc" or g.orientation == sc.HORIZONTAL}
        return Outcome(size=len(cameras), bound=self.bound(case), info=info,
                       dump_mismatch=not dumped <= universe)


WORKLOADS = {w.name: w for w in (LargePolygons, PathPeel, SmallDpCli)}
