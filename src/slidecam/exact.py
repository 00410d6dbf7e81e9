"""Ground-truth solvers: brute-force minimum cover and a greedy baseline."""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import CapExceeded, Infeasible, TooLargeForOracle
from .geometry import GuardSegment, Pixelation, _bits, verify_cover
from .hitset import HittingInstance

if TYPE_CHECKING:
    from .treewidth import TreeDecomposition

_ORACLE_LIMIT = 40


@dataclass(frozen=True)
class Solution:
    """A verified set of cameras together with its coverage certificate.

    ``decomposition`` is the DP's tree decomposition of the auxiliary graph
    for a ``dp`` solution, and None for every other method.  ``counters`` holds a
    solver's own counts (``dp_peak_table`` for ``dp``).
    """

    cameras: Tuple[GuardSegment, ...]
    size: int
    method: str
    certificate: Mapping[int, tuple]
    guard_ids: Optional[Tuple[int, ...]] = None
    decomposition: Optional[TreeDecomposition] = field(default=None, compare=False, repr=False)
    counters: Dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "cameras": [
                {"orientation": g.orientation, "anchor": g.anchor, "span": [g.lo, g.hi]}
                for g in self.cameras
            ],
            "method": self.method,
        }


def make_solution(pix: Pixelation, xprime: Iterable[int], guards, method: str) -> Solution:
    """Build a Solution, re-verifying coverage geometrically.

    Each camera is listed once: repeated guard ids, or segments with the
    same :meth:`GuardSegment.key`, count as one camera (the first given).
    Its record is built once, and the certificate on first read (see
    :func:`verify_cover`).
    """
    ids: Optional[Tuple[int, ...]] = None
    if all(isinstance(g, int) for g in guards):
        ids = tuple(sorted(set(guards)))
        cams = tuple(map(pix.guard, ids))
    else:
        unique: Dict[tuple, GuardSegment] = {}
        for g in guards:
            unique.setdefault(g.key(), g)
        cams = tuple(sorted(unique.values(), key=GuardSegment.key))
    report = verify_cover(pix, cams if ids is None else ids, xprime)
    if not report.covered:
        raise AssertionError(f"solution does not cover crosses {report.uncovered}")
    return Solution(cameras=cams, size=len(cams), method=method,
                    certificate=report.certificate, guard_ids=ids)


def _dominance_prune(inst: HittingInstance, masks: Dict[int, int]) -> List[int]:
    """Drop guards whose hit set is contained in another guard's hit set."""
    order = sorted(inst.universe)
    kept: List[int] = []
    for g in order:
        mg = masks[g]
        dominated = False
        for h in order:
            if h == g:
                continue
            mh = masks[h]
            if mg & ~mh:
                continue
            if mh != mg or h < g:
                dominated = True
                break
        if not dominated:
            kept.append(g)
    return kept


def brute_force_min_cover(inst: HittingInstance, cap: Optional[int] = None) -> Solution:
    """Minimum-cardinality cover by iterative deepening over the cover size.

    Branches on an uncovered cross with the fewest candidate guards and tries
    those guards in ascending id order, so results are deterministic.
    """
    if not inst.feasible:
        raise Infeasible(f"crosses {inst.infeasible_crosses} cannot be hit")
    if not inst.wanted:
        return make_solution(inst.pix, inst.xprime, [], "exact")
    masks = {g: inst.pix.guard_masks[g] & inst.wanted for g in inst.universe}
    candidates = _dominance_prune(inst, masks)
    if len(candidates) > _ORACLE_LIMIT:
        raise TooLargeForOracle(
            f"{len(candidates)} guards after dominance pruning (limit {_ORACLE_LIMIT})")
    if cap is None:
        cap = len(candidates)

    by_cross = {c: [g for g in candidates if masks[g] >> c & 1] for c in inst.xprime}

    def search(uncovered: int, budget: int) -> Optional[List[int]]:
        if uncovered == 0:
            return []
        if budget == 0:
            return None
        # pick the uncovered cross with the fewest remaining candidates
        best_list = None
        for c in _bits(uncovered):
            lst = by_cross[c]
            if best_list is None or len(lst) < len(best_list):
                best_list = lst
        for g in best_list:
            rest = search(uncovered & ~masks[g], budget - 1)
            if rest is not None:
                return [g] + rest
        return None

    for k in range(0, cap + 1):
        picked = search(inst.wanted, k)
        if picked is not None:
            return make_solution(inst.pix, inst.xprime, sorted(picked), "exact")
    raise CapExceeded(f"no cover of size <= {cap}")


def greedy_cover(inst: HittingInstance) -> Solution:
    """Repeatedly pick the guard hitting the most still-uncovered crosses,
    the lowest id among equals.

    The guards wait in a heap by gains that may be stale, keyed
    -gain * m + id for m canonical guards, which orders as (-gain, id)
    does.  Gains only fall as crosses get covered, so a key never exceeds
    its guard's current key: the top guard is the pick if its gain has not
    changed, and goes back in under its current key otherwise (lazy
    greedy; Minoux, "Accelerated greedy algorithms for maximizing
    submodular set functions", 1978).
    """
    if not inst.feasible:
        raise Infeasible(f"crosses {inst.infeasible_crosses} cannot be hit")
    masks = inst.pix.guard_masks
    m = len(masks)
    uncovered = inst.wanted
    heap = [-(masks[g] & uncovered).bit_count() * m + g for g in set(inst.universe)]
    heapq.heapify(heap)
    picked: List[int] = []
    while uncovered:
        g = heap[0] % m
        key = -(masks[g] & uncovered).bit_count() * m + g
        if key != heap[0]:
            heapq.heapreplace(heap, key)
            continue
        heapq.heappop(heap)
        picked.append(g)
        uncovered &= ~masks[g]
    return make_solution(inst.pix, inst.xprime, sorted(picked), "greedy")
