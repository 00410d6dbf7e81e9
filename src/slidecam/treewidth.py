"""Tree-decomposition pipeline: dual graph, min-fill, lifting and a direct DP.

The DP solves the restricted distance-2 domination problem on the tripartite
auxiliary graph H: choose a minimum set of guard vertices such that every
requested cross has a support slice-segment intersected by a chosen guard.
A solve builds one decomposition, min-fill on H's support graph S
(``AuxiliaryGraph.support``: each cross contracted into an edge between its
supports).  Only past the width limit does it lift min-fill on the dual
graph, whose width the paper bounds by 7k+6 for dual width k, and retry.

The DP runs on S: a cross in a bag (only the lift has them) becomes its
vertical support, an edge contraction, and a cross is the constraint "one
of my two supports is hit", settled when the first is forgotten.  States
per bag vertex: guards are selected/unselected and slice-segments hit,
unhit or unhit-but-needed (a cross partner was forgotten unhit); a needed
segment forgotten unhit kills the branch.  ``dp_peak_table`` counts these
states.  Crosses come back as one leaf bag {c, sv, sh} each: that
decomposition of H is what ``--dump-td`` writes and ``width_used`` counts.
"""
from __future__ import annotations

import bisect
import functools
import heapq
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import Infeasible, WidthExceeded
from .exact import Solution, make_solution
from .hitset import AuxiliaryGraph, Node
from .geometry import Pixelation

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
        """Decomposition dump: one bag per line, edges after a blank line."""
        lines = [f"s td {len(self.bags)} {self.width + 1}"]
        for i, bag in enumerate(self.bags):
            items = " ".join(sorted(map(repr, bag)))
            lines.append(f"b {i + 1} {items}".rstrip())
        for a, b in self.edges:
            lines.append(f"{a + 1} {b + 1}")
        return "\n".join(lines) + "\n"


def dual_graph(pix: Pixelation) -> Dict[int, FrozenSet[int]]:
    """Weak dual of the pixelation: pixels adjacent iff they share a side.

    Pixel ids are cross ids, so the vertices are ``range(len(pix.crosses))``.
    """
    adj: Dict[int, set] = {pid: set() for pid in range(len(pix.crosses))}
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


def decompose(adj: Dict) -> TreeDecomposition:
    """Tree decomposition by min-fill elimination (exact width 1 on trees).

    Each step eliminates the vertex whose remaining neighbours miss the
    fewest edges among themselves (its fill), the smaller vertex on ties.
    Fills are counted once, then updated by exact deltas, never recounted:
    eliminating ``v`` drops from each neighbour u the missing pairs {v, x}
    with x in N(u) but not in N(v); each fill edge a-b then completes {a, b}
    for every common neighbour and adds to a one missing pair per neighbour
    of a outside N(b), and likewise to b.  Only vertices whose fill changed
    get a new entry in the lazy heap keyed ``(fill, vertex)`` that yields
    the next vertex.
    """
    if not adj:
        raise ValueError("empty graph")
    work: Dict = {v: set(ns) for v, ns in adj.items()}
    fills = {v: (len(ns) * (len(ns) - 1) - sum(len(ns & work[u]) for u in ns)) // 2
             for v, ns in work.items()}
    heap = [(f, v) for v, f in fills.items()]
    heapq.heapify(heap)
    order: List = []
    bag_of: Dict = {}
    while heap:
        f, v = heapq.heappop(heap)
        if fills.get(v) != f:
            continue  # stale entry, or v already eliminated
        del fills[v]
        ns = work.pop(v)
        bag_of[v] = frozenset([v, *ns])
        order.append(v)
        delta: Dict = {}
        for u in ns:
            wu = work[u]
            wu.discard(v)
            delta[u] = len(wu & ns) - len(wu)
        rest = list(ns)
        for i, a in enumerate(rest):
            wa = work[a]
            for b in rest[i + 1:]:
                if b not in wa:
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
                heapq.heappush(heap, (fills[u], u))

    # each bag hangs below the bag of its earliest-eliminated later neighbour;
    # a vertex without one ends its component, whose bag tree is then chained
    # to the next bag so that a disconnected graph still gets one tree
    elim_index = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order):
        later = [elim_index[u] for u in bag_of[v] if u != v]
        if later:
            edges.append((i, min(later)))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(bags=tuple(bag_of[v] for v in order), edges=tuple(edges))


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


def lift_decomposition(td_d: TreeDecomposition, H: AuxiliaryGraph,
                       pix: Pixelation) -> TreeDecomposition:
    """Replace each pixel in a bag by its cross, supports and side guards.

    Slice-segments are kept unconditionally; the cross is kept only when
    requested and a side guard only when it belongs to the allowed set, so a
    bag grows by at most seven items per pixel.  A canonical guard enters
    only the bags of pixels flanking its own segment (not those of parallel
    runs merged into it), which keeps its bag subtree connected; edge
    coverage is unaffected because the graph's intersections are computed
    from that same segment.
    """
    xp, gp = set(H.xprime), set(H.gammaprime)
    bags = []
    for bag in td_d.bags:
        items = set()
        for pid in sorted(bag):
            cross = pix.crosses[pid]
            items.add(("s", cross.v_support))
            items.add(("s", cross.h_support))
            if pid in xp:
                items.add(("c", pid))
            items.update(("g", gid) for gid in pix.side_guards[pid] if gid in gp)
        bags.append(frozenset(items))
    return TreeDecomposition(bags=tuple(bags), edges=td_d.edges)


def _contract(td: TreeDecomposition,
              H: AuxiliaryGraph) -> Tuple[TreeDecomposition, TreeDecomposition]:
    """``td`` with each cross replaced by its vertical support (an edge
    contraction: a decomposition of ``H.support``, no wider), and that with
    a leaf bag {c, sv, sh} per requested cross below the first bag holding
    both supports, found in the shorter of the two supports' bag lists of a
    per-vertex bag index: a decomposition of ``H``.
    """
    vsup = {("c", c): ("s", H.pix.crosses[c].v_support) for c in H.xprime}
    bags = [frozenset(vsup.get(v, v) for v in bag) for bag in td.bags]
    contracted = replace(td, bags=tuple(bags))
    where: Dict[Node, List[int]] = {}
    for i, bag in enumerate(contracted.bags):
        for v in bag:
            where.setdefault(v, []).append(i)
    edges = list(td.edges)
    for c in H.xprime:
        s, t = supports = H.adj[("c", c)]
        if len(where[t]) < len(where[s]):
            s, t = t, s  # both lists ascend: either gives the same first bag
        edges.append((next(i for i in where[s] if t in bags[i]), len(bags)))
        bags.append(supports | {("c", c)})
    return contracted, TreeDecomposition(bags=tuple(bags), edges=tuple(edges))


# ---------------------------------------------------------------------------
# Nice decomposition
# ---------------------------------------------------------------------------

@dataclass
class _NiceNode:
    kind: str                      # leaf | introduce | forget | join
    bag: Tuple[Node, ...]          # sorted
    vertex: Optional[Node] = None
    children: Tuple[int, ...] = ()


def _sorted_bag(bag) -> Tuple[Node, ...]:
    return tuple(sorted(bag))


def _make_nice(td: TreeDecomposition) -> List[_NiceNode]:
    """Binary nice decomposition with an empty root bag.

    Children are binarized into joins over the parent bag; between bags,
    forgets run before introduces.  The list is ordered so that children
    always precede their parent; the last node is the empty root.
    """
    nodes: List[_NiceNode] = []

    def add(node: _NiceNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def chain(from_idx: int, from_bag: set, to_bag: set) -> int:
        cur_idx, cur = from_idx, sorted(from_bag)
        for v in _sorted_bag(from_bag - to_bag):
            cur.remove(v)
            cur_idx = add(_NiceNode("forget", tuple(cur), v, (cur_idx,)))
        for v in _sorted_bag(to_bag - from_bag):
            bisect.insort(cur, v)
            cur_idx = add(_NiceNode("introduce", tuple(cur), v, (cur_idx,)))
        return cur_idx

    adj = td.neighbors()
    # depth-first from bag 0 with an explicit stack of (bag, parent, children
    # left, finished child chains); a finished bag chains into its parent's bag
    stack = [(0, -1, iter(sorted(adj[0])), [])]
    while True:
        b, parent, todo, kid_idxs = stack[-1]
        nb = next(todo, None)
        if nb is not None:
            if nb != parent:
                stack.append((nb, b, iter(sorted(adj[nb])), []))
            continue
        bag = set(td.bags[b])
        if kid_idxs:
            top = kid_idxs[0]
            for k in kid_idxs[1:]:
                top = add(_NiceNode("join", _sorted_bag(bag), None, (top, k)))
        else:
            top = chain(add(_NiceNode("leaf", (), None, ())), set(), bag)
        stack.pop()
        if not stack:
            break
        stack[-1][3].append(chain(top, bag, set(td.bags[parent])))
    chain(top, set(td.bags[0]), set())
    return nodes


# ---------------------------------------------------------------------------
# DP over the nice decomposition
# ---------------------------------------------------------------------------

def _dp(nodes: List[_NiceNode],
        adj: Dict[Node, FrozenSet[Node]]) -> Tuple[Optional[FrozenSet[int]], int]:
    """Minimum guard set or None if infeasible, and the largest table size.

    ``nodes`` is a nice decomposition of the support graph ``adj``: a guard's
    neighbours are the segments it meets, a segment's segment neighbours the
    other supports of its crosses.  Every guard and slice-segment has one
    bit, and a bag state is the int ``A | B << N`` over the N of them.
    ``A`` holds "selected" for a guard and "hit" for a segment; ``B`` holds
    "needed" for an unhit segment whose cross partner was forgotten unhit.
    A segment's hit bit is final when it is forgotten, since every guard on
    it was introduced below; forgetting it unhit makes its unhit in-bag
    partners needed, and forgetting it needed kills the branch.  A partner
    forgotten earlier already ran this rule with the segment in its bag.
    Each table maps a state to its least cost and the child state(s) it
    came from; the first state reaching a cost keeps it, so ties break
    deterministically.
    """
    verts = sorted(adj)
    shift = len(verts)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    low = (1 << shift) - 1
    guards = sum(bit[v] for v in verts if v[0] == "g")
    # guard-segment neighbours, and per segment the other supports of its crosses
    near = {v: sum(bit[u] for u in adj[v] if u[0] != v[0]) for v in verts}
    partners = {v: sum(bit[u] for u in adj[v] if u[0] == v[0]) for v in verts}

    tables: List[Dict[int, tuple]] = []
    masks: List[int] = []  # the bag of each node as a mask
    for node in nodes:  # children precede their parent
        table: Dict[int, tuple] = {}
        kind, v = node.kind, node.vertex

        def put(state: int, cost: int, back) -> None:
            cur = table.get(state)
            if cur is None or cost < cur[0]:
                table[state] = (cost, back)

        if kind == "leaf":
            mask = 0
            table[0] = (0, None)

        elif kind == "introduce":
            child = tables[node.children[0]]
            b = bit[v]
            mask = masks[node.children[0]] | b
            inbag = near[v] & mask
            if v[0] == "g":
                # selecting the guard hits its in-bag segments and drops
                # their "needed"
                keep = ~(inbag << shift)
                for st, (cost, _) in child.items():
                    put(st, cost, st)
                    put((st | b | inbag) & keep, cost + 1, st)
            else:  # a segment is hit iff a selected in-bag guard meets it
                table = {(st | b if st & inbag else st): (cost, st)
                         for st, (cost, _) in child.items()}

        elif kind == "forget":
            b = bit[v]
            mask = masks[node.children[0]] & ~b
            dead, need = b << shift, partners[v] & mask
            for st, (cost, _) in tables[node.children[0]].items():
                if st & dead:
                    continue
                if st & b or not need:
                    put(st & ~b, cost, st)
                else:
                    put(st & ~b | (need & ~st) << shift, cost, st)

        else:  # join: guards agree; hit ORs, needed stays unless hit
            left, right = (tables[i] for i in node.children)
            mask = masks[node.children[0]]
            gmask = mask & guards
            groups: Dict[int, List[tuple]] = {}
            for rst, (rcost, _) in right.items():
                groups.setdefault(rst & gmask, []).append((rst, rcost))
            for lst, (lcost, _) in left.items():
                key = lst & gmask
                base = lcost - key.bit_count()
                for rst, rcost in groups.get(key, ()):
                    full = lst | rst
                    put(full & ~((full & low) << shift), base + rcost, (lst, rst))

        tables.append(table)
        masks.append(mask)

    peak = max(len(t) for t in tables)
    if 0 not in tables[-1]:
        return None, peak

    # traceback: collect guards selected at their introduce nodes
    selected = set()
    stack = [(len(nodes) - 1, 0)]
    while stack:
        idx, st = stack.pop()
        node = nodes[idx]
        back = tables[idx][st][1]
        if node.kind == "join":
            stack.append((node.children[0], back[0]))
            stack.append((node.children[1], back[1]))
        elif node.kind != "leaf":
            v = node.vertex
            if node.kind == "introduce" and v[0] == "g" and st & bit[v]:
                selected.add(v[1])
            stack.append((node.children[0], back))
    return frozenset(selected), peak


def dp_solve(H: AuxiliaryGraph, td: TreeDecomposition,
             width_max: int = DEFAULT_WIDTH_MAX) -> Solution:
    """Minimum guard set via dynamic programming over a decomposition of ``H``.

    ``td`` decomposes ``H.support`` (min-fill, as a solve builds it) or ``H``
    (the lift); the DP runs on its contraction, which decomposes ``H.support``.
    That plus a leaf bag per requested cross is the decomposition of ``H``
    whose width is checked against ``width_max`` and that the solution
    carries.  The cover is verified on the crosses ``H`` was built over;
    the largest DP table, in states, is the counter ``dp_peak_table``.
    """
    contracted, full = _contract(td, H)
    if full.width > width_max:
        raise WidthExceeded(f"width {full.width} exceeds limit {width_max}")
    picked, peak = _dp(_make_nice(contracted), H.support)
    if picked is None:
        raise Infeasible("no guard set satisfies all requested crosses")
    return replace(make_solution(H.pix, H.xprime, sorted(picked), "dp"), decomposition=full,
                   counters={"dp_peak_table": peak})
