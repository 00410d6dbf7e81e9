"""Discrete problem objects built on top of a pixelation.

The guarding question becomes a hitting-set problem: the universe is a set
of candidate cameras and each requested cross contributes the set of
cameras that hit it.  The same data also feeds the segment-covering
reduction (horizontal cameras versus vertical supports) and the support
graph S on which the treewidth solver decomposes, lifts and runs its DP.
:func:`build_support_graph` is the one place a ``dp`` solve reads which
midlines each camera meets; the tripartite auxiliary graph H is S with its
crosses put back, built from S for the checks that a decomposition a solve
returns is one of H.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import PreconditionViolated
from .geometry import HORIZONTAL, VERTICAL, Pixelation, _bits

Node = Tuple[str, int]  # ("c", cross id) | ("s", sigma id) | ("g", guard id)


@dataclass(frozen=True)
class HittingInstance:
    """Universe of guard ids over the requested crosses.

    Incidence lives in the pixelation's ``guard_masks`` table, each guard's
    hit mask over cross ids; the instance owns the mask of the requested
    crosses (``wanted``) and the OR of guard masks (``hit_mask``), and
    solvers read both over cross ids.  Orientations come from
    ``guard_runs``.  Nothing here builds a ``guards``, ``crosses`` or
    ``sigmas`` record.  The instance is *infeasible* (a first-class state,
    not an error) when some cross is hit by no allowed guard.
    """

    pix: Pixelation
    xprime: Tuple[int, ...]
    universe: Tuple[int, ...]
    weights: Dict[int, object] = field(default_factory=dict)

    @functools.cached_property
    def wanted(self) -> int:
        """The requested crosses as a mask over cross ids.  ``xprime`` is
        distinct and in range (see :func:`build_instance`), so it is every
        cross exactly when it has as many ids as there are crosses."""
        n = len(self.pix.h_supports)
        if len(self.xprime) == n:
            return (1 << n) - 1
        return sum(1 << c for c in self.xprime)

    def hit_mask(self, guards: Iterable[int]) -> int:
        """The crosses hit by any of the guards: an OR of their hit masks."""
        masks = self.pix.guard_masks
        mask = 0
        for g in guards:
            mask |= masks[g]
        return mask

    @property
    def feasible(self) -> bool:
        return not self.infeasible_crosses

    @property
    def infeasible_crosses(self) -> Tuple[int, ...]:
        return tuple(_bits(self.wanted & ~self.hit_mask(self.universe)))

    def weight_of(self, gid: int):
        return self.weights.get(gid, 1)

    def total_weight(self):
        return sum(self.weight_of(g) for g in self.universe)

    def with_weights(self, weights: Dict[int, object]) -> "HittingInstance":
        return replace(self, weights=dict(weights))

    def orientations(self) -> set:
        runs = self.pix.guard_runs
        return {runs[g][0] for g in self.universe}

    def restrict_orientation(self, orientation: str) -> "HittingInstance":
        runs = self.pix.guard_runs
        uni = tuple(g for g in self.universe if runs[g][0] == orientation)
        w = {g: self.weights[g] for g in uni if g in self.weights}
        return HittingInstance(pix=self.pix, xprime=self.xprime, universe=uni, weights=w)

    def to_dict(self) -> dict:
        """The universe and, per requested cross, the guards that hit it."""
        sets: Dict[int, List[int]] = {c: [] for c in self.xprime}
        for g in sorted(self.universe):
            for c in _bits(self.pix.guard_masks[g] & self.wanted):
                sets[c].append(g)
        return {
            "universe": list(self.universe),
            "sets": [{"cross": c, "guards": gs} for c, gs in sets.items()],
        }


def build_instance(pix: Pixelation, xprime: Optional[Iterable[int]] = None,
                   gammaprime: Optional[Iterable[int]] = None) -> HittingInstance:
    """Assemble the hitting-set instance for the requested crosses and guards.

    A repeated cross or guard id counts once.  Raises ``ValueError`` for a
    cross or guard id that the pixelation does not have.
    """
    xp, uni = _requested_ids(pix, xprime, gammaprime)
    return HittingInstance(pix=pix, xprime=xp, universe=uni)


def _requested_ids(pix: Pixelation, xprime: Optional[Iterable[int]],
                   gammaprime: Optional[Iterable[int]]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The requested cross ids and guard ids, each distinct and ascending,
    and all of them for None.  Raises ``ValueError`` for an id that the
    pixelation does not have.  A request of every cross comes back as the
    pixelation's shared tuple of all cross ids, which
    :func:`~slidecam.geometry.verify_cover` recognises without a scan."""
    n = len(pix.h_supports)
    xp = pix._all_crosses if xprime is None else _checked_ids("cross", xprime, n)
    if len(xp) == n:
        xp = pix._all_crosses
    return xp, _checked_ids("guard", gammaprime, len(pix.guard_masks))


def _checked_ids(what: str, ids: Optional[Iterable[int]], n: int) -> Tuple[int, ...]:
    """The ids distinct and ascending, all of 0..n-1 for None."""
    if ids is None:
        return tuple(range(n))  # in range by construction
    ids = tuple(sorted(set(ids)))
    bad = [i for i in ids if not 0 <= i < n]
    if bad:
        raise ValueError(f"{what} ids {bad} are not in 0..{n - 1}")
    return ids


# ---------------------------------------------------------------------------
# Orthogonal segment covering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentCoveringInstance:
    """Horizontal candidate segments that must stab a set of vertical targets.

    Targets are stored with doubled x (``anchor2``) like slice-segments.
    """

    horizontals: Tuple[Tuple[int, int, int, int], ...]  # (guard id, y, x_lo, x_hi)
    verticals: Tuple[Tuple[int, int, int], ...]         # (anchor2, y_lo, y_hi)

    def covers(self, gidx: int, vidx: int) -> bool:
        _, y, xlo, xhi = self.horizontals[gidx]
        a2, ylo, yhi = self.verticals[vidx]
        return ylo <= y <= yhi and 2 * xlo <= a2 <= 2 * xhi


def to_segment_covering(pix: Pixelation, xprime: Iterable[int],
                        gammaprime: Iterable[int]) -> SegmentCoveringInstance:
    """Reduce a horizontal-cameras-only problem to stabbing vertical supports."""
    horiz = []
    for g in sorted(gammaprime):
        orientation, anchor, lo, hi = pix.guard_runs[g]
        if orientation != HORIZONTAL:
            raise PreconditionViolated("segment covering expects horizontal guards only")
        horiz.append((g, anchor, lo, hi))
    verts = set()
    for c in sorted(xprime):
        sv = pix.sigmas[pix.v_supports[c]]
        verts.add((sv.anchor2, sv.lo, sv.hi))
    return SegmentCoveringInstance(horizontals=tuple(horiz), verticals=tuple(sorted(verts)))


# ---------------------------------------------------------------------------
# Support graph and auxiliary graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportGraph:
    """The support graph S on int vertices: the allowed guards and every
    midline, each requested cross contracted into an edge between its two
    supports.

    Vertex ``i < len(universe)`` is guard ``universe[i]`` and vertex
    ``len(universe) + s`` is midline ``s``: the order of S's nodes
    ``("g", g)`` and ``("s", s)`` in :class:`AuxiliaryGraph` sorted, so
    min-fill breaks its ties alike on both.  ``adj[v]`` holds a guard's
    midlines, or a midline's guards and the other support of each requested
    cross on it.  The ids after S's vertices, ``len(adj) + k``, stand for
    requested cross ``xprime[k]`` in a decomposition of H (its leaf bags).
    """

    pix: Pixelation
    xprime: Tuple[int, ...]
    universe: Tuple[int, ...]
    adj: List[Set[int]]

    def node(self, v: int) -> Node:
        """The auxiliary-graph node of id ``v``."""
        u, n = len(self.universe), len(self.adj)
        if v < u:
            return ("g", self.universe[v])
        return ("s", v - u) if v < n else ("c", self.xprime[v - n])

    @functools.cached_property
    def names(self) -> List[str]:
        """Per id, ``repr`` of its node: what ``--dump-td`` writes."""
        return ([f"('g', {g})" for g in self.universe]
                + [f"('s', {s})" for s in range(len(self.adj) - len(self.universe))]
                + [f"('c', {c})" for c in self.xprime])


def build_support_graph(pix: Pixelation, xprime: Optional[Iterable[int]],
                        universe: Optional[Iterable[int]]) -> SupportGraph:
    """S straight from the tables: each guard's midlines from
    ``sigma_ids_hit`` on its run, each requested cross's supports from
    ``h_supports`` and ``v_supports``.  Raises ``AssertionError`` unless
    each requested cross has one vertical and one horizontal support (so
    two distinct ones), the tables' invariant that makes S a contraction
    of the tripartite H.  As in :func:`build_instance`, a repeated id
    counts once and an id the pixelation does not have raises
    ``ValueError``."""
    xp, uni = _requested_ids(pix, xprime, universe)
    u = len(uni)
    adj: List[Set[int]] = [set() for _ in range(u + len(pix._slice_cross_mask))]
    runs = pix.guard_runs
    for i, g in enumerate(uni):
        ids = [u + s for s in pix.sigma_ids_hit(*runs[g])]
        adj[i].update(ids)
        for s in ids:
            adj[s].add(i)
    first_h = u + len(pix._chains[VERTICAL])  # horizontal midline ids follow the vertical ones
    hs, vs = pix.h_supports, pix.v_supports
    for c in xp:
        h, v = u + hs[c], u + vs[c]
        if not v < first_h <= h:
            raise AssertionError(f"cross {c} lacks a vertical and a horizontal support")
        adj[h].add(v)
        adj[v].add(h)
    return SupportGraph(pix=pix, xprime=xp, universe=uni, adj=adj)


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Tripartite graph over crosses, slice-segments and guards.

    Crosses connect to their two supports; guards connect to every
    slice-segment they intersect.  There are no cross-guard edges, so a
    guard set covers a cross exactly when the cross is within distance two
    of the set.  No solve builds it: ``dp`` decomposes, lifts onto and
    solves on :class:`SupportGraph`; H is what its decompositions are
    checked against.
    """

    pix: Pixelation
    xprime: Tuple[int, ...]
    sigma_ids: Tuple[int, ...]
    universe: Tuple[int, ...]
    adj: Dict[Node, FrozenSet[Node]]

    def nodes(self) -> List[Node]:
        return ([("c", c) for c in self.xprime]
                + [("s", s) for s in self.sigma_ids]
                + [("g", g) for g in self.universe])

    def edges(self) -> List[Tuple[Node, Node]]:
        return sorted((u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v)


def build_auxiliary_graph(pix: Pixelation, xprime: Optional[Iterable[int]] = None,
                          gammaprime: Optional[Iterable[int]] = None) -> AuxiliaryGraph:
    """H from S (:func:`build_support_graph`, which also checks that each
    requested cross has one vertical and one horizontal support): S's
    guard-midline edges, and each requested cross put back as a node joined
    to its two supports in place of the edge it was contracted into."""
    S = build_support_graph(pix, xprime, gammaprime)
    xp, gp = S.xprime, S.universe
    u = len(gp)
    adj: Dict[Node, set] = {}
    for v, nbrs in enumerate(S.adj):
        # a guard's neighbours are all midlines; a midline keeps its guards
        adj[S.node(v)] = {S.node(w) for w in nbrs if w < u or v < u}
    for c in xp:
        ends = {("s", pix.h_supports[c]), ("s", pix.v_supports[c])}
        adj[("c", c)] = ends
        for s in ends:
            adj[s].add(("c", c))
    return AuxiliaryGraph(pix=pix, xprime=xp, sigma_ids=tuple(range(len(S.adj) - u)),
                          universe=gp, adj={v: frozenset(ns) for v, ns in adj.items()})
