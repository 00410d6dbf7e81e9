"""Iterative-reweighting approximation: weighted net finder plus verifier.

The net finder is weighted random sampling with post-hoc verification and
resampling, giving nets of size O(r log m) instead of the optimal O(r); any
verified net preserves the correctness of the reweighting loop, which only
ever doubles the weights of a light unhit set.  Incidence is read from each
guard's hit mask over cross ids (the pixelation's ``guard_masks``).  All
randomness is derived from string seeds, so identical seeds give identical
runs.
"""
from __future__ import annotations

import bisect
import itertools
import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

from .errors import BudgetInsufficient, Infeasible
from .exact import Solution, make_solution
from .geometry import HORIZONTAL, VERTICAL, _bits
from .hitset import HittingInstance

log = logging.getLogger(__name__)

DEFAULT_NET_CONSTANT = 4.0
DEFAULT_ROUND_CONSTANT = 4.0
_MAX_SAMPLING_ATTEMPTS = 50


@dataclass(frozen=True)
class NetRequest:
    """Parameters for one net computation: must hit all sets of weight >= W/r."""

    r: Fraction
    seed: str = "0"
    net_constant: float = DEFAULT_NET_CONSTANT

    def budget(self, num_sets: int) -> int:
        return math.ceil(self.net_constant * float(self.r) * math.log(max(2, num_sets)))


@dataclass(frozen=True)
class ApproxReport:
    solution: Solution
    opt_guess_history: Tuple[int, ...]
    iterations: int
    net_sizes: Tuple[int, ...]
    terminating_k: int
    budget_at_2k: int
    budget_at_4k: int


def _as_fraction(r) -> Fraction:
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    return Fraction(r).limit_denominator(10**9)


def heavy_sets(inst: HittingInstance, r: Fraction) -> List[int]:
    """Crosses whose set weight is at least W/r (exact rational comparison)."""
    set_weight = dict.fromkeys(inst.xprime, 0)
    for g in inst.universe:
        for c in _bits(inst.pix.guard_masks[g] & inst.wanted):
            set_weight[c] += inst.weight_of(g)
    W = inst.total_weight()
    return [c for c in inst.xprime
            if set_weight[c] * r.numerator >= W * r.denominator]


def is_net(inst: HittingInstance, net: FrozenSet[int], r: Fraction) -> bool:
    hit = inst.hit_mask(set(net).intersection(inst.universe))
    return not sum(1 << c for c in heavy_sets(inst, r)) & ~hit


def _weighted_sample(rng: random.Random, items: List[int], weights: List[int], k: int) -> set:
    """k independent weighted draws using exact integer cumulative weights."""
    cum = list(itertools.accumulate(weights))
    return {items[bisect.bisect_right(cum, rng.randrange(cum[-1]))] for _ in range(k)}


def _sample_net(inst: HittingInstance, req: NetRequest) -> FrozenSet[int]:
    """The sampling loop behind ``find_net`` and each part of ``combined_net``.

    Weights are positive, so a set that no guard of ``inst`` hits (possible
    in an orientation part of ``combined_net``) weighs 0 and is never heavy.
    """
    r = _as_fraction(req.r)
    budget = req.budget(len(inst.xprime))
    universe = sorted(inst.universe)
    if budget >= len(universe):
        return frozenset(universe)
    weights = [inst.weight_of(g) for g in universe]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    heavy = sum(1 << c for c in heavy_sets(inst, r))
    rng = random.Random(f"net:{req.seed}")
    for _ in range(_MAX_SAMPLING_ATTEMPTS):
        net = _weighted_sample(rng, universe, weights, budget)
        if not heavy & ~inst.hit_mask(net):
            return frozenset(net)
    raise BudgetInsufficient(
        f"no valid net of size {budget} found in {_MAX_SAMPLING_ATTEMPTS} attempts")


def find_net(inst: HittingInstance, req: NetRequest) -> FrozenSet[int]:
    """A verified (1/r)-net of the weighted set system.

    Samples ``budget`` guards proportionally to weight and retries until the
    sample hits every heavy set; raises :class:`BudgetInsufficient` after 50
    failed attempts (the caller should raise the net constant).
    """
    if not inst.feasible:
        raise Infeasible("net finder needs a feasible instance")
    if _as_fraction(req.r) < 1:
        raise ValueError("net parameter r must be at least 1")
    return _sample_net(inst, req)


def combined_net(inst: HittingInstance, req: NetRequest) -> FrozenSet[int]:
    """Union of per-orientation nets at parameter 2r.

    A set of weight >= W/r keeps at least half of that weight in one
    orientation, so it is heavy in that orientation's subinstance at 2r and
    gets hit by the corresponding sub-net.
    """
    r = _as_fraction(req.r)
    parts = []
    for orientation, tag in ((HORIZONTAL, "h"), (VERTICAL, "v")):
        sub = inst.restrict_orientation(orientation)
        if not sub.universe:
            continue
        sub_req = NetRequest(r=2 * r, seed=f"{req.seed}:{tag}", net_constant=req.net_constant)
        parts.append(_sample_net(sub, sub_req))
    net = frozenset().union(*parts)
    if not is_net(inst, net, r):
        raise BudgetInsufficient("combined net failed verification at parameter r")
    return net


def bg_hitting_set(inst: HittingInstance, seed: int = 0,
                   net_constant: float = DEFAULT_NET_CONSTANT,
                   round_constant: float = DEFAULT_ROUND_CONSTANT) -> ApproxReport:
    """Reweighting hitting-set loop: guess k, find (1/2k)-nets, double light sets.

    For each guess k (doubling from 1) weights start at 1; each round finds a
    verified (1/2k)-net and ORs its guards' hit masks; if some
    requested cross is unhit, the lowest one is the witness and the weights
    of its (necessarily light) set double.  The number of rounds per guess is
    capped at ``round_constant * k * log2(|U|/k)`` before the guess doubles,
    which suffices whenever an optimal cover of size k exists.  The covering
    net is verified geometrically once, by ``make_solution``.
    """
    if not inst.feasible:
        raise Infeasible(f"crosses {inst.infeasible_crosses} cannot be hit")
    universe = sorted(inst.universe)
    if not inst.xprime:
        sol = make_solution(inst.pix, inst.xprime, [], "bg")
        return ApproxReport(solution=sol, opt_guess_history=(), iterations=0,
                            net_sizes=(), terminating_k=0, budget_at_2k=0, budget_at_4k=0)
    mixed = len(inst.orientations()) > 1

    def budget(r: Fraction) -> int:  # of the net finder used: per orientation at 2r if mixed
        parts = 2 if mixed else 1
        return parts * NetRequest(r=parts * r, net_constant=net_constant).budget(len(inst.xprime))

    guesses: List[int] = []
    net_sizes: List[int] = []
    iterations = 0
    k = 1
    while True:
        guesses.append(k)
        cutoff = max(1, math.ceil(round_constant * k * math.log2(max(2.0, len(universe) / k))))
        weights: Dict[int, int] = {g: 1 for g in universe}
        for rnd in range(cutoff):
            iterations += 1
            winst = inst.with_weights(weights)
            req = NetRequest(r=Fraction(2 * k), seed=f"{seed}:{k}:{rnd}",
                             net_constant=net_constant)
            net = combined_net(winst, req) if mixed else find_net(winst, req)
            net_sizes.append(len(net))
            unhit = inst.wanted & ~inst.hit_mask(net)
            if not unhit:
                sol = make_solution(inst.pix, inst.xprime, sorted(net), "bg")
                return ApproxReport(
                    solution=sol,
                    opt_guess_history=tuple(guesses),
                    iterations=iterations,
                    net_sizes=tuple(net_sizes),
                    terminating_k=k,
                    budget_at_2k=budget(Fraction(2 * k)),
                    budget_at_4k=budget(Fraction(4 * k)),
                )
            witness = (unhit & -unhit).bit_length() - 1
            hitters = [g for g in universe if inst.pix.guard_masks[g] >> witness & 1]
            w_set = sum(weights[g] for g in hitters)
            w_total = sum(weights.values())
            # an unhit set avoided a verified (1/2k)-net, so it must be light
            if w_set * 2 * k > w_total:
                raise AssertionError("witness set is heavy; net verification is broken")
            log.debug("k=%d round=%d: doubling %d guards of cross %d",
                      k, rnd, len(hitters), witness)
            for g in hitters:
                weights[g] *= 2
        k *= 2
        # once the budget reaches |U| the net is the whole universe, which
        # covers any feasible instance, so this cannot loop forever
        if k > 4 * len(universe) + 4:
            raise AssertionError("reweighting loop failed to terminate")
