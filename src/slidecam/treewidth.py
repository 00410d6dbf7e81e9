"""Tree-decomposition pipeline: dual graph, min-fill, lifting and a direct DP.

The DP solves the restricted distance-2 domination problem on the tripartite
auxiliary graph H: choose a minimum set of guard vertices such that every
requested cross has a support slice-segment intersected by a chosen guard.
A solve builds one decomposition, min-fill on H's support graph S (each
cross contracted into an edge between its supports), which
:func:`~slidecam.hitset.build_support_graph` builds straight from the
pixelation's tables on int vertices: the universe's guards by position,
then every midline s at ``len(universe) + s``, the sorted order of S's
tuple nodes, so min-fill breaks ties as it would on them.  Past the width
limit the solve lifts min-fill on the dual graph onto H's nodes for S's
crosses and guards (width bounded by the paper at 7k+6 for dual width k),
maps the lifted bags onto the same ids and retries; no solve builds H.

The DP runs on S's ids: a cross in a bag (only the lift has them) becomes
its vertical support, an edge contraction, and a cross is the constraint
"one of my two supports is hit", settled when the first is forgotten.  A
vertex is a guard when its id is below ``len(universe)``.  States
per bag vertex: guards are selected/unselected and slice-segments hit,
unhit or unhit-but-needed (a cross partner was forgotten unhit); a needed
segment forgotten unhit kills the branch.  Each vertex has a fixed slot,
coloured top-down over the rooted bag tree: a vertex new to a bag takes the
smallest slot its retained vertices leave free, so a bag's vertices hold
distinct slots below width + 1 and a state is one int of 2 * (width + 1)
bits that no step remaps.  There is one table per tree edge, built from
the child's table in one pass per state (forget the child's vertices the
parent lacks, then introduce the parent's new ones), and sibling tables are
joined at the parent.  Each state carries, beside its least cost, the mask
of the guards it selected: a step ORs in the guards a pick selects, a join
ORs the two sides' masks, and the root's empty state holds the answer, so
nothing is walked back down the tree.  ``dp_peak_table`` is the largest of
these tables.
Crosses come back as one leaf bag {c, sv, sh} each: that decomposition of H
(a :class:`NumberedDecomposition`, whose node bags are built only when
read) is what ``--dump-td`` writes and ``width_used`` counts.
"""
from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import Infeasible, WidthExceeded
from .exact import Solution, make_solution
from .hitset import AuxiliaryGraph, Node, SupportGraph, build_support_graph
from .geometry import Pixelation, _bits

DEFAULT_WIDTH_MAX = 20


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags over a tree; edges are (parent-ish, child-ish) index pairs."""

    bags: Tuple[FrozenSet, ...]
    edges: Tuple[Tuple[int, int], ...]

    @functools.cached_property
    def width(self) -> int:
        return max(map(len, self.bags), default=0) - 1

    def neighbors(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {i: [] for i in range(len(self.bags))}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def to_text(self) -> str:
        """Decomposition dump: a header line, then one line per bag with its
        items' reprs sorted, then one line per edge, all numbered from 1."""
        name = {v: repr(v) for v in frozenset().union(*self.bags)}
        return self._text([" ".join(sorted(map(name.__getitem__, bag))) for bag in self.bags])

    def _text(self, items: List[str]) -> str:
        """The dump, bag i's items written as ``items[i]``."""
        lines = [f"s td {len(items)} {self.width + 1}"]
        lines += [f"b {i} {text}".rstrip() for i, text in enumerate(items, 1)]
        lines += [f"{a + 1} {b + 1}" for a, b in self.edges]
        return "\n".join(lines) + "\n"


class NumberedDecomposition(TreeDecomposition):
    """A decomposition of H over the int ids of its support graph ``S``
    (see :class:`SupportGraph`): ``ids`` holds the bags as ids, and
    ``bags``, in H's nodes, is built on first read.  ``width`` and
    ``to_text`` read the ids.  The bags of ``S`` come first and then one
    leaf bag {c, sv, sh} per requested cross, in ``S.xprime`` order."""

    def __init__(self, ids: Tuple[FrozenSet[int], ...], edges: Tuple[Tuple[int, int], ...],
                 S: SupportGraph):
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "S", S)

    @functools.cached_property
    def bags(self) -> Tuple[FrozenSet[Node], ...]:
        return tuple(frozenset(map(self.S.node, bag)) for bag in self.ids)

    @functools.cached_property
    def width(self) -> int:
        return max(map(len, self.ids), default=0) - 1

    def to_text(self) -> str:
        """Each bag's items as ``S.names``, sorted; a cross's leaf bag needs
        no sort, since the name ``('c', c)`` sorts before the ``('s', s)``
        of its supports."""
        S, names = self.S, self.S.names
        crosses = len(S.xprime)
        base = self.ids[:len(self.ids) - crosses]
        items = [" ".join(sorted(map(names.__getitem__, bag))) for bag in base]
        u, hs, vs = len(S.universe), S.pix.h_supports, S.pix.v_supports
        for c, name in zip(S.xprime, names[len(names) - crosses:]):
            a, b = names[u + vs[c]], names[u + hs[c]]
            items.append(f"{name} {a} {b}" if a < b else f"{name} {b} {a}")
        return self._text(items)


def dual_graph(pix: Pixelation) -> Dict[int, FrozenSet[int]]:
    """Weak dual of the pixelation: pixels adjacent iff they share a side.

    Pixel ids are cross ids, so the vertices are ``range(len(pix.h_supports))``.
    """
    adj: Dict[int, set] = {pid: set() for pid in range(len(pix.h_supports))}
    for a, b in pix.dual_edges:
        adj[a].add(b)
        adj[b].add(a)
    return {v: frozenset(ns) for v, ns in adj.items()}


def is_tree(adj: Dict[int, FrozenSet[int]]) -> bool:
    n = len(adj)
    if n == 0:
        return False
    m = sum(len(ns) for ns in adj.values()) // 2
    if m != n - 1:
        return False
    seen = set()
    stack = [next(iter(adj))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return len(seen) == n


def decompose(adj: Union[Dict, Sequence[Iterable[int]]]) -> TreeDecomposition:
    """Tree decomposition by min-fill elimination (exact width 1 on trees).

    ``adj`` is a dict from each vertex to its neighbours, or a sequence of
    neighbour sets over the int vertices ``range(len(adj))`` (the support
    graph as a solve builds it), whose bags then hold those ints.
    Each step eliminates the vertex whose remaining neighbours miss the
    fewest edges among themselves (its fill), the smaller vertex on ties.
    Min-fill runs on integer ids, a dict's vertices by their index in sorted
    order, so ties break the same way, and a dict's bags are mapped back at
    the end.
    Fills are counted once, then updated by exact deltas, never recounted:
    eliminating ``v`` drops from each neighbour u the missing pairs {v, x}
    with x in N(u) but not in N(v); each fill edge a-b then completes {a, b}
    for every common neighbour and adds to a one missing pair per neighbour
    of a outside N(b), and likewise to b.  A vertex of fill 0 has a clique
    for N(v) and adds no fill edge, so each neighbour's drop follows from
    its degree alone, with no set built.  Only vertices whose fill changed
    get a new entry in the lazy heap keyed ``fill * n + vertex`` that yields
    the next vertex.  A vertex's neighbour set is left as it was when the
    vertex was eliminated: its bag.
    """
    if not adj:
        raise ValueError("empty graph")
    names: Optional[list] = None
    if isinstance(adj, dict):
        names = sorted(adj)
        num = {v: i for i, v in enumerate(names)}
        work: List[set] = [set(map(num.__getitem__, adj[v])) for v in names]
    else:
        work = [set(ns) for ns in adj]
    n = len(work)
    fills = [(len(ns) * (len(ns) - 1) - sum([len(ns & work[u]) for u in ns])) // 2
             for ns in work]
    heap = [f * n + v for v, f in enumerate(fills)]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        f, v = divmod(heapq.heappop(heap), n)
        if fills[v] != f:
            continue  # stale entry, or v already eliminated (fill -1)
        fills[v] = -1
        ns = work[v]
        order.append(v)
        if not f:
            # N(v) is a clique: each neighbour u keeps all of N(v) but itself
            # and loses the pairs {v, x}, x one of its neighbours outside N[v]
            for u in ns:
                wu = work[u]
                wu.discard(v)
                if len(wu) >= len(ns):
                    fills[u] -= len(wu) - len(ns) + 1
                    heapq.heappush(heap, fills[u] * n + u)
            continue
        delta: Dict[int, int] = {}
        for u in ns:
            wu = work[u]
            wu.discard(v)
            delta[u] = len(wu & ns) - len(wu)
        for a in ns:  # N(v) misses f > 0 pairs
            wa = work[a]
            for b in ns - wa:  # a's missing pairs, each taken from its smaller end
                if b > a:
                    wb = work[b]
                    common = wa & wb
                    for w in common:
                        delta[w] = delta.get(w, 0) - 1
                    delta[a] += len(wa) - len(common)
                    delta[b] += len(wb) - len(common)
                    wa.add(b)
                    wb.add(a)
        for u, d in delta.items():
            if d:
                fills[u] += d
                heapq.heappush(heap, fills[u] * n + u)

    # each bag hangs below the bag of its earliest-eliminated later neighbour;
    # a vertex without one ends its component, whose bag tree is then chained
    # to the next bag so that a disconnected graph still gets one tree
    elim_index = [0] * n
    for i, v in enumerate(order):
        elim_index[v] = i
    edges = []
    for i, v in enumerate(order):
        if work[v]:
            edges.append((i, min([elim_index[u] for u in work[v]])))
        elif i + 1 < n:
            edges.append((i, i + 1))
    if names is None:
        bags = tuple(frozenset([v, *work[v]]) for v in order)
    else:
        bags = tuple(frozenset([names[v], *map(names.__getitem__, work[v])]) for v in order)
    return TreeDecomposition(bags=bags, edges=tuple(edges))


def validate_decomposition(td: TreeDecomposition, vertices: Iterable, edges: Iterable) -> Tuple[bool, Optional[tuple]]:
    """Check vertex coverage, connectivity of bag subtrees and edge coverage."""
    vertices = list(vertices)
    where: Dict[object, List[int]] = {v: [] for v in vertices}
    for i, bag in enumerate(td.bags):
        for v in bag:
            if v in where:
                where[v].append(i)
    adj = td.neighbors()
    for v in vertices:
        bags = where[v]
        if not bags:
            return False, ("vertex-missing", v)
        seen = {bags[0]}
        stack = [bags[0]]
        bagset = set(bags)
        while stack:
            b = stack.pop()
            for nb in adj[b]:
                if nb in bagset and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(bagset):
            return False, ("vertex-disconnected", v)
    for u, v in edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return False, ("edge-uncovered", (u, v))
    return True, None


def lift_decomposition(td_d: TreeDecomposition, graph: Union[SupportGraph, AuxiliaryGraph],
                       pix: Pixelation) -> TreeDecomposition:
    """Replace each pixel in a bag by its cross, supports and side guards:
    a decomposition of H, in H's nodes, for the requested crosses
    (``graph.xprime``) and allowed guards (``graph.universe``) of S or H.

    Slice-segments are kept unconditionally; the cross is kept only when
    requested and a side guard only when it belongs to the allowed set, so a
    bag grows by at most seven items per pixel.  A canonical guard enters
    only the bags of pixels flanking its own segment (not those of parallel
    runs merged into it), which keeps its bag subtree connected; edge
    coverage is unaffected because the graph's intersections are computed
    from that same segment.  ``_numbered`` maps it onto S's ids.
    """
    xp, gp = set(graph.xprime), set(graph.universe)
    bags = []
    for bag in td_d.bags:
        items = set()
        for pid in sorted(bag):
            items.add(("s", pix.v_supports[pid]))
            items.add(("s", pix.h_supports[pid]))
            if pid in xp:
                items.add(("c", pid))
            items.update(("g", gid) for gid in pix.side_guards[pid] if gid in gp)
        bags.append(frozenset(items))
    return TreeDecomposition(bags=tuple(bags), edges=td_d.edges)


def _numbered(td: TreeDecomposition, S: SupportGraph) -> TreeDecomposition:
    """``td``, in H's nodes, on S's ids, each cross replaced by its vertical
    support: an edge contraction, so a decomposition of H (the lift) or of
    S in H's nodes becomes one of S, no wider."""
    u = len(S.universe)
    num = {("g", g): i for i, g in enumerate(S.universe)}
    num.update((("s", s), u + s) for s in range(len(S.adj) - u))
    num.update((("c", c), u + S.pix.v_supports[c]) for c in S.xprime)
    return TreeDecomposition(bags=tuple(frozenset(map(num.__getitem__, bag)) for bag in td.bags),
                             edges=td.edges)


def _with_crosses(td: TreeDecomposition, S: SupportGraph) -> NumberedDecomposition:
    """``td``, a decomposition of ``S`` on its ids, with a leaf bag
    {c, sv, sh} per requested cross below the first bag holding both
    supports, found in the shorter of the two supports' bag lists of a
    per-vertex bag index: a decomposition of H."""
    bags = list(td.bags)
    where: List[List[int]] = [[] for _ in S.adj]
    for i, bag in enumerate(bags):
        for v in bag:
            where[v].append(i)
    edges = list(td.edges)
    u, cid = len(S.universe), len(S.adj)
    hs, vs = S.pix.h_supports, S.pix.v_supports
    for k, c in enumerate(S.xprime):
        s, t = u + vs[c], u + hs[c]
        if len(where[t]) < len(where[s]):
            s, t = t, s  # both lists ascend: either gives the same first bag
        for i in where[s]:
            if t in bags[i]:
                break
        edges.append((i, len(bags)))
        bags.append(frozenset((s, t, cid + k)))
    return NumberedDecomposition(tuple(bags), tuple(edges), S)


# ---------------------------------------------------------------------------
# DP over the bag tree
# ---------------------------------------------------------------------------

def _slots(td: TreeDecomposition, n: int) -> Tuple[List[int], List[List[int]], List[int]]:
    """The bags in breadth-first order from the root, bag 0; each bag's
    children, ascending; and each vertex's slot, for the int vertices
    ``range(n)`` of ``td``'s bags.

    A vertex takes its slot in the topmost bag holding it: the smallest
    slot that the vertices the bag shares with its parent do not use, new
    vertices in ascending order.  The bags holding a vertex form a subtree, so
    where one of two vertices sharing a bag takes its slot, the other holds
    one already or takes one with it: a bag's slots are distinct, and all
    are below width + 1 (compare colouring a chordal graph, Gavril 1972).
    """
    nbrs: List[List[int]] = [[] for _ in td.bags]
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    order, parent = [0], [-1] * len(td.bags)
    kids: List[List[int]] = [[] for _ in td.bags]
    slot = [0] * n
    for i, v in enumerate(sorted(td.bags[0])):
        slot[v] = i
    for b in order:  # grows while it is read: a breadth-first walk
        bag = td.bags[b]
        for c in sorted(nbrs[b]):
            if c != parent[b]:
                parent[c] = b
                kids[b].append(c)
                order.append(c)
                fresh = td.bags[c] - bag
                if fresh:
                    used = {slot[v] for v in td.bags[c] - fresh}
                    i = 0
                    for v in sorted(fresh):
                        while i in used:
                            i += 1
                        slot[v] = i
                        i += 1
    return order, kids, slot


def _bag_dp(td: TreeDecomposition, S: SupportGraph
            ) -> Tuple[Optional[FrozenSet[int]], List[Dict[int, int]]]:
    """Minimum guard set (guard ids) or None if infeasible, and the cost
    dict of every table it kept.

    ``td`` decomposes the support graph ``S`` on its int ids, a vertex a
    guard when below ``len(S.universe)``: a guard's neighbours are the
    segments it meets, a segment's segment neighbours the other supports of
    its crosses.  With W = width + 1 and each vertex at its
    slot s (``_slots``), a state is the int ``A | B << W``: bit s of ``A``
    is "selected" for a guard and "hit" for a segment, bit s of ``B``
    "needed" for an unhit segment whose cross partner was forgotten unhit.
    A segment's hit bit is final when it is forgotten, since every guard on
    it was introduced below; forgetting it unhit makes its unhit in-bag
    partners needed, and forgetting it needed kills the branch.  A partner
    forgotten earlier already ran this rule with the segment in its bag.
    Each tree edge maps the child's table to one over the parent's bag in
    one pass per state: the child's vertices the parent lacks are forgotten
    (in any order, which gives the same state), then the parent's new
    vertices introduced in sorted order, guards first, with masks read off
    the bags, never off a vertex's adjacency.  A leaf starts from the empty
    bag and the root ends in it; the tables a bag's children send up are
    joined there in ascending child order.  A table is two int dicts, a
    state's least cost and its selection: the mask of the guards it chose,
    bit v for guard vertex v.  A step ORs in the guards each pick selects
    and a join ORs the two sides' masks; the first state reaching a cost
    keeps its selection, so ties break deterministically, and the root's
    empty state holds the answer.
    """
    adj, universe = S.adj, S.universe
    n, ng = len(adj), len(universe)
    order, kids, slot = _slots(td, n)
    # a vertex's slot bit, and that bit only for a guard or only for a
    # segment: bag vertices hold distinct slots, so sums of bits are ORs
    bit = [1 << i for i in slot]
    guard_bit = bit[:ng] + [0] * (n - ng)
    seg_bit = [0] * ng + bit[ng:]
    width = td.width + 1
    low = (1 << width) - 1

    def step(costs: Dict[int, int], chose: Dict[int, int], old: FrozenSet[int], new: FrozenSet[int]):
        """The table (``costs``, ``chose``) over bag ``old`` as one over bag ``new``."""
        # old's vertices hold distinct slots, so a mask over old is exact;
        # gone has the slots of the vertices forgotten so far
        forgets = []
        gone = 0
        for v in old - new:  # in any order: the state comes out the same
            b = bit[v]
            gone |= b
            need = 0
            if v >= ng:
                for w in adj[v] & old:
                    need |= seg_bit[w]
                need &= ~gone
            forgets.append((b, b << width, need))
        # each subset of the new guards, unselected first, as the bits it
        # sets and keeps and the guards it selects: selecting a guard hits
        # its segments in the new bag and drops their "needed"; a new
        # segment is also hit by a selected kept guard that meets it
        picks = [(0, -1, 0, 0)]
        segments = []
        for v in sorted(new - old):  # guards first
            mask = 0
            if v < ng:
                for w in adj[v] & new:
                    mask |= bit[w]
                picks = [p for on, keep, k, g in picks
                         for p in ((on, keep, k, g),
                                   (on | bit[v] | mask, keep & ~(mask << width), k + 1, g | 1 << v))]
            else:
                for w in adj[v] & old:
                    mask |= guard_bit[w]
                mask &= ~gone  # the kept guards only
                if mask:
                    segments.append((bit[v], mask))
        out: Dict[int, int] = {}
        sel: Dict[int, int] = {}
        for st0, cost in costs.items():
            st = st0
            for b, dead, need in forgets:
                if st & dead:
                    break
                if st & b:
                    st ^= b
                elif need:
                    st |= (need & ~st) << width
            else:
                for on, keep, k, g in picks:
                    s = (st | on) & keep
                    for b, mask in segments:
                        if s & mask:
                            s |= b
                    best = out.get(s)
                    if best is None or cost + k < best:
                        out[s] = cost + k
                        sel[s] = chose[st0] | g
        return out, sel

    def join(left: Dict[int, int], lsel: Dict[int, int], right: Dict[int, int],
             rsel: Dict[int, int], gmask: int):
        """Guards agree; hit ORs, needed stays unless hit."""
        groups: Dict[int, List[int]] = {}
        for rst in right:
            groups.setdefault(rst & gmask, []).append(rst)
        out: Dict[int, int] = {}
        sel: Dict[int, int] = {}
        for lst, lcost in left.items():
            key = lst & gmask
            base = lcost - key.bit_count()
            for rst in groups.get(key, ()):
                full = lst | rst
                full &= ~((full & low) << width)
                cost = base + right[rst]
                best = out.get(full)
                if best is None or cost < best:
                    out[full] = cost
                    sel[full] = lsel[lst] | rsel[rst]
        return out, sel

    # each bag's table until its parent steps it up; tables are dicts of
    # ints only, which the garbage collector does not track
    empty: FrozenSet[int] = frozenset()
    done: Dict[int, tuple] = {}
    tables: List[Dict[int, int]] = []
    for b in reversed(order):  # children before their parent
        bag = td.bags[b]
        ins = ([step(*done.pop(c), td.bags[c], bag) for c in kids[b]]
               or [step({0: 0}, {0: 0}, empty, bag)])
        costs, chose = ins[0]
        tables.append(costs)
        if len(ins) > 1:
            gmask = sum(map(guard_bit.__getitem__, bag))
            for other in ins[1:]:
                costs, chose = join(costs, chose, *other, gmask)
                tables += (other[0], costs)
        done[b] = (costs, chose)
    final, chose = step(*done.pop(0), td.bags[0], empty)
    if 0 not in final:
        return None, tables
    return frozenset(universe[v] for v in _bits(chose[0])), tables


def dp_solve(graph: Union[SupportGraph, AuxiliaryGraph], td: TreeDecomposition,
             width_max: int = DEFAULT_WIDTH_MAX) -> Solution:
    """Minimum guard set via dynamic programming over a decomposition.

    ``td`` decomposes the support graph ``graph`` on its int ids (min-fill,
    as a solve builds it).  Given the auxiliary graph ``H`` instead, ``td``
    is in H's nodes (the lift, or a decomposition of H's support graph);
    it is mapped onto the ids of the support graph built for H, each cross
    becoming its vertical support, and solved the same way.  ``td`` plus a
    leaf bag per requested cross is the decomposition of H whose width is
    checked against ``width_max`` and that the solution carries
    (:class:`NumberedDecomposition`).  The DP (``_bag_dp``) takes one step
    per edge of ``td``'s tree, on states of 2 * (width + 1) bits, two per
    vertex slot (``_slots``).  The cover is verified on the requested
    crosses; the largest DP table, in states, is the counter
    ``dp_peak_table``.
    """
    if isinstance(graph, AuxiliaryGraph):
        graph = build_support_graph(graph.pix, graph.xprime, graph.universe)
        td = _numbered(td, graph)
    full = _with_crosses(td, graph)
    if full.width > width_max:
        raise WidthExceeded(f"width {full.width} exceeds limit {width_max}")
    picked, tables = _bag_dp(td, graph)
    if picked is None:
        raise Infeasible("no guard set satisfies all requested crosses")
    return replace(make_solution(graph.pix, graph.xprime, sorted(picked), "dp"),
                   decomposition=full, counters={"dp_peak_table": max(map(len, tables))})
