"""One-stop solver dispatch shared by the CLI and the test suite."""
from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .approx import DEFAULT_NET_CONSTANT, DEFAULT_ROUND_CONSTANT, bg_hitting_set
from .errors import WidthExceeded
from .exact import Solution, brute_force_min_cover, greedy_cover
from .gallery import path_guard
from .geometry import (
    HORIZONTAL,
    VERTICAL,
    OrthoPolygon,
    Pixelation,
    pixelate,
)
from .hitset import HittingInstance, build_instance, build_support_graph
from .treewidth import DEFAULT_WIDTH_MAX, _numbered, decompose, dp_solve, dual_graph, lift_decomposition

MODES = ("msc", "mhsc", "mvsc", "custom")
ALGOS = ("exact", "dp", "bg", "greedy", "path")


def instance_for_mode(pix: Pixelation, mode: str,
                      xprime: Optional[Iterable[int]] = None,
                      guard_ids: Optional[Iterable[int]] = None,
                      guard_orientations: Optional[str] = None) -> HittingInstance:
    """The hitting-set instance of ``mode`` over the requested crosses.

    Guard ids and guard orientations restrict the guards in custom mode
    only, and only one of them may be given; raises ``ValueError`` for a
    restriction another mode would ignore or that conflicts with the other.
    """
    if mode != "custom" and (guard_ids is not None or guard_orientations):
        raise ValueError(f"guard ids and guard orientations apply to mode custom, not {mode!r}")
    if guard_ids is not None and guard_orientations:
        raise ValueError("give guard ids or guard orientations, not both")
    wanted = None  # the orientations of the guards, when restricted by them
    gp = None
    if mode == "mhsc":
        wanted = {HORIZONTAL}
    elif mode == "mvsc":
        wanted = {VERTICAL}
    elif mode == "custom":
        if guard_ids is not None:
            gp = list(guard_ids)
        elif guard_orientations:
            wanted = set(guard_orientations.upper())
            if not wanted <= {HORIZONTAL, VERTICAL}:
                raise ValueError(f"guard orientations {guard_orientations!r} are not H, V or HV")
    elif mode != "msc":
        raise ValueError(f"unknown mode {mode!r}")
    if wanted is not None:
        gp = [g for g, run in enumerate(pix.guard_runs) if run[0] in wanted]
    return build_instance(pix, xprime=xprime, gammaprime=gp)


def solve_polygon(poly: OrthoPolygon, mode: str = "msc", algo: str = "exact",
                  seed: int = 0, cap: Optional[int] = None,
                  width_max: int = DEFAULT_WIDTH_MAX,
                  net_constant: float = DEFAULT_NET_CONSTANT,
                  round_constant: float = DEFAULT_ROUND_CONSTANT,
                  xprime: Optional[Iterable[int]] = None,
                  guard_ids: Optional[Iterable[int]] = None,
                  guard_orientations: Optional[str] = None,
                  ) -> Tuple[Solution, Dict]:
    """Solve one polygon; returns the solution plus run statistics.

    Every solver builds its solution through ``make_solution``, which
    verifies the cover geometrically once; nothing here verifies it again.
    ``guards`` (the canonical camera count) is reported by every algo but
    ``path``, which never builds the canonical cameras.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if algo == "path" and (mode != "msc" or xprime is not None or guard_ids is not None
                           or guard_orientations):
        raise ValueError("the path algorithm guards every cross with any camera; "
                         "use mode=msc without a cross or guard restriction")
    pix = pixelate(poly)
    info: Dict = {
        "n": poly.n,
        "pixels": len(pix.h_supports),  # pixels and crosses are 1:1 by id
        "crosses": len(pix.h_supports),
        "msc_bound": (3 * poly.n + 4) // 16,
        "mhsc_bound": poly.n // 4,
    }

    if algo == "path":
        sol = path_guard(poly)
    else:
        info["guards"] = len(pix.guard_masks)
        inst = instance_for_mode(pix, mode, xprime=xprime, guard_ids=guard_ids,
                                 guard_orientations=guard_orientations)
        info["universe"] = len(inst.universe)
        inst.require_feasible()
        if algo == "exact":
            sol = brute_force_min_cover(inst, cap)
        elif algo == "greedy":
            sol = greedy_cover(inst)
        elif algo == "bg":
            report = bg_hitting_set(inst, seed=seed, net_constant=net_constant,
                                    round_constant=round_constant)
            sol = report.solution
            info["bg"] = {
                "guesses": list(report.opt_guess_history),
                "iterations": report.iterations,
                "net_sizes": list(report.net_sizes),
                "terminating_k": report.terminating_k,
                "budget_at_4k": report.budget_at_4k,
                "net_is_universe": sol.size == len(inst.universe),
            }
        elif algo == "dp":
            S = build_support_graph(pix, inst.xprime, inst.universe)
            # min-fill on the support graph, or past width_max the paper's
            # lifted 7k+6 certificate, lifted onto S's crosses and guards
            try:
                sol = dp_solve(S, decompose(S.adj), width_max=width_max)
            except WidthExceeded as narrow:
                td_d = decompose(dual_graph(pix))
                td_h = lift_decomposition(td_d, S, pix)
                info.update(width_d=td_d.width, width_h=td_h.width)
                try:
                    sol = dp_solve(S, _numbered(td_h, S), width_max=width_max)
                except WidthExceeded as lifted:
                    raise WidthExceeded(f"min-fill {narrow}; lifted {lifted}") from None
            info.update(width_used=sol.decomposition.width, dp_peak_table=sol.counters["dp_peak_table"])
        else:
            raise ValueError(f"unknown algo {algo!r}")

    info["size"] = sol.size
    return sol, info
