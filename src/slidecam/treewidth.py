"""Tree-decomposition pipeline: dual graph, min-fill, lifting and a direct DP.

The DP solves the restricted distance-2 domination problem on the tripartite
auxiliary graph: choose a minimum set of guard vertices such that every
requested cross has a support slice-segment intersected by a chosen guard.
States per bag vertex: guards are selected/unselected, slice-segments are
hit / unhit / unhit-but-required (a cross already committed to them), and
crosses are satisfied/unsatisfied.  A required slice-segment that is
forgotten unhit kills the branch; so does an unsatisfied forgotten cross.
The DP runs on any tree decomposition of the auxiliary graph: the lifted
one, whose width the paper bounds by 7k+6 for a dual graph of width k, or
min-fill run on the auxiliary graph itself, which is usually narrower.
"""
from __future__ import annotations

import bisect
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

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

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
            items = " ".join(str(v) for v in sorted(bag, key=repr))
            lines.append(f"b {i + 1} {items}".rstrip())
        for a, b in self.edges:
            lines.append(f"{a + 1} {b + 1}")
        return "\n".join(lines) + "\n"


def dual_graph(pix: Pixelation) -> Dict[int, FrozenSet[int]]:
    """Weak dual of the pixelation: pixels adjacent iff they share a side."""
    adj: Dict[int, set] = {p.id: set() for p in pix.pixels}
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
    Eliminating ``v`` changes only the fill of ``v``'s neighbours and of the
    common neighbours of each fill edge it adds, so only those are
    recounted; a lazy heap keyed ``(fill, vertex)`` yields the next vertex.
    """
    if not adj:
        raise ValueError("empty graph")
    work: Dict = {v: set(ns) for v, ns in adj.items()}

    def fill(v) -> int:
        ns = work[v]
        d = len(ns)
        return (d * (d - 1) - sum(len(ns & work[u]) for u in ns)) // 2

    fills = {v: fill(v) for v in work}
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
        for u in ns:
            work[u].discard(v)
        touched = set(ns)
        rest = list(ns)
        for i, a in enumerate(rest):
            wa = work[a]
            for b in rest[i + 1:]:
                if b not in wa:
                    touched |= wa & work[b]
                    wa.add(b)
                    work[b].add(a)
        for u in touched:
            f = fill(u)
            if f != fills[u]:
                fills[u] = f
                heapq.heappush(heap, (f, u))

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
    xp = H.xprime_set
    gp = H.gamma_set
    bags = []
    for bag in td_d.bags:
        items = set()
        for pid in sorted(bag):
            px = pix.pixels[pid]
            items.add(("s", pix.slices_v[px.v_slice].segment.id))
            items.add(("s", pix.slices_h[px.h_slice].segment.id))
            if pid in xp:
                items.add(("c", pid))
            items.update(("g", gid) for gid in pix.side_guards[pid] if gid in gp)
        bags.append(frozenset(items))
    return TreeDecomposition(bags=tuple(bags), edges=td_d.edges)


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

def _dp(nodes: List[_NiceNode], H: AuxiliaryGraph) -> Tuple[Optional[FrozenSet[int]], int]:
    """Minimum guard set or None if infeasible, and the largest table size.

    Every auxiliary-graph node has one bit, and a bag state is the int
    ``A | B << N`` over the N nodes.  ``A`` holds "selected" for a guard,
    "hit" for a slice-segment and "satisfied" for a cross; ``B`` holds
    "needed" for a slice-segment, so a segment is free when neither bit is
    set.  Each table maps a state to its least cost and the child state(s)
    it came from; the first state reaching a cost keeps it, so ties break
    deterministically.
    """
    adj = H.adj
    shift = len(adj)
    bit = {v: 1 << i for i, v in enumerate(sorted(adj))}
    low = (1 << shift) - 1

    def bits(vs) -> int:
        out = 0
        for u in vs:
            out |= bit[u]
        return out

    tables: List[Dict[int, tuple]] = []
    for node in nodes:  # children precede their parent
        table: Dict[int, tuple] = {}
        kind, v = node.kind, node.vertex

        def put(state: int, cost: int, back) -> None:
            cur = table.get(state)
            if cur is None or cost < cur[0]:
                table[state] = (cost, back)

        if kind == "leaf":
            table[0] = (0, None)

        elif kind == "introduce":
            child = tables[node.children[0]]
            inbag = set(node.bag)
            near = [u for u in adj[v] if u in inbag]
            b = bit[v]
            if v[0] == "g":
                # selecting the guard hits its in-bag segments, satisfies the
                # in-bag crosses on them and drops their "needed"
                segs = bits(near)
                sel = b | segs | bits(c for s in near for c in adj[s]
                                      if c[0] == "c" and c in inbag)
                keep = ~(segs << shift)
                for st, (cost, _) in child.items():
                    put(st, cost, st)
                    put((st | sel) & keep, cost + 1, st)
            elif v[0] == "s":
                guards = bits(u for u in near if u[0] == "g")
                crosses = bits(u for u in near if u[0] == "c")
                need = b << shift
                for st, (cost, _) in child.items():
                    if st & guards:
                        put(st | b | crosses, cost, st)
                        continue
                    put(st, cost, st)
                    # commit every unsatisfied in-bag cross to this segment
                    # in one branch; committing a subset is never better
                    takers = crosses & ~st
                    if takers:
                        put(st | takers | need, cost, st)
            else:  # cross
                supports = [bit[s] for s in sorted(near)]
                covered = bits(near)
                covered |= covered << shift
                for st, (cost, _) in child.items():
                    if st & covered:
                        put(st | b, cost, st)
                        continue
                    put(st, cost, st)
                    for s in supports:
                        put(st | b | s << shift, cost, st)

        elif kind == "forget":
            b = bit[v]
            # a needed segment that was never hit, or an unsatisfied cross,
            # kills the branch
            dead = b << shift if v[0] == "s" else 0
            alive = b if v[0] == "c" else 0
            keep = ~b
            for st, (cost, _) in tables[node.children[0]].items():
                if st & dead or alive & ~st:
                    continue
                put(st & keep, cost, st)

        else:  # join: guards agree; hit and satisfied OR, needed stays unless hit
            left, right = (tables[i] for i in node.children)
            gmask = bits(u for u in node.bag if u[0] == "g")
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

    ``td`` may be the lifted decomposition or any other valid decomposition
    of the auxiliary graph.  The cover is verified on the crosses ``H`` was
    built over.  The solution carries ``td`` and the largest DP table, in
    states, as the counter ``dp_peak_table``.
    """
    if td.width > width_max:
        raise WidthExceeded(f"width {td.width} exceeds limit {width_max}")
    picked, peak = _dp(_make_nice(td), H)
    if picked is None:
        raise Infeasible("no guard set satisfies all requested crosses")
    return replace(make_solution(H.pix, H.xprime, sorted(picked), "dp"), decomposition=td,
                   counters={"dp_peak_table": peak})
