"""Tree-decomposition pipeline: dual graph, min-fill, lifting and a direct DP.

The DP solves the restricted distance-2 domination problem on the tripartite
auxiliary graph: choose a minimum set of guard vertices such that every
requested cross has a support slice-segment intersected by a chosen guard.
States per bag vertex: guards are selected/unselected, slice-segments are
hit / unhit / unhit-but-required (a cross already committed to them), and
crosses are satisfied/unsatisfied.  A required slice-segment that is
forgotten unhit kills the branch; so does an unsatisfied forgotten cross.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import Infeasible, WidthExceeded
from .exact import Solution, make_solution
from .hitset import AuxiliaryGraph, Node
from .geometry import Pixelation

DEFAULT_WIDTH_MAX = 20

# slice-segment states
_S_FREE = 0      # unhit, nothing depends on it
_S_HIT = 1       # intersected by a selected guard
_S_NEEDED = 2    # unhit, but some cross committed to it


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


def decompose(adj: Dict[int, FrozenSet[int]]) -> TreeDecomposition:
    """Tree decomposition by min-fill elimination (exact width 1 on trees)."""
    vertices = sorted(adj)
    if not vertices:
        raise ValueError("empty graph")
    work: Dict[int, set] = {v: set(adj[v]) for v in vertices}

    order: List[int] = []
    bag_of: Dict[int, FrozenSet[int]] = {}
    while work:
        def fill(v: int) -> int:
            ns = sorted(work[v])
            cnt = 0
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    if ns[j] not in work[ns[i]]:
                        cnt += 1
            return cnt

        v = min(work, key=lambda u: (fill(u), u))
        ns = sorted(work[v])
        bag_of[v] = frozenset([v, *ns])
        order.append(v)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                work[ns[i]].add(ns[j])
                work[ns[j]].add(ns[i])
        for u in ns:
            work[u].discard(v)
        del work[v]

    elim_index = {v: i for i, v in enumerate(order)}
    bags = [bag_of[v] for v in order]
    edges = []
    for i, v in enumerate(order):
        later = [u for u in bag_of[v] if u != v and elim_index[u] > i]
        if later:
            j = elim_index[min(later, key=lambda u: elim_index[u])]
            edges.append((min(i, j), max(i, j)))
    return TreeDecomposition(bags=tuple(bags), edges=tuple(sorted(set(edges))))


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
            for run in pix.pixel_side_runs(pid):
                gid = pix.canonical_guard_of_run(run)
                if gid in gp and pix.guards[gid].key() == run:
                    items.add(("g", gid))
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
        cur_idx, cur = from_idx, set(from_bag)
        for v in _sorted_bag(from_bag - to_bag):
            cur = cur - {v}
            cur_idx = add(_NiceNode("forget", _sorted_bag(cur), v, (cur_idx,)))
        for v in _sorted_bag(to_bag - from_bag):
            cur = cur | {v}
            cur_idx = add(_NiceNode("introduce", _sorted_bag(cur), v, (cur_idx,)))
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

def _dp(nodes: List[_NiceNode], H: AuxiliaryGraph) -> Optional[FrozenSet[int]]:
    """Minimum guard set or None if infeasible; deterministic tie-breaking."""
    adj = H.adj

    order: List[int] = []
    seen = [False] * len(nodes)

    def post(i: int):
        stack = [(i, False)]
        while stack:
            n, done = stack.pop()
            if done:
                order.append(n)
                continue
            if seen[n]:
                continue
            seen[n] = True
            stack.append((n, True))
            for ch in nodes[n].children:
                stack.append((ch, False))

    root = len(nodes) - 1
    post(root)

    tables: Dict[int, Dict[tuple, tuple]] = {}

    for idx in order:
        node = nodes[idx]
        bag = node.bag
        pos = {v: i for i, v in enumerate(bag)}
        table: Dict[tuple, tuple] = {}

        def put(state, cost, back):
            cur = table.get(state)
            if cur is None or cost < cur[0]:
                table[state] = (cost, back)

        if node.kind == "leaf":
            table[()] = (0, ("leaf",))

        elif node.kind == "introduce":
            child = nodes[node.children[0]]
            v = node.vertex
            p = pos[v]
            cpos = {u: i for i, u in enumerate(child.bag)}
            nbrs = adj.get(v, frozenset())
            for cstate, (cost, _) in tables[node.children[0]].items():
                def insert(val, extra=()):
                    st = list(cstate)
                    st.insert(p, val)
                    for (u, uv) in extra:
                        st[pos[u]] = uv
                    return tuple(st)

                if v[0] == "g":
                    put(insert(0), cost, ("intro", cstate))
                    # selecting the guard upgrades its slice-segments in the
                    # bag and satisfies crosses adjacent to those segments
                    upgraded = []
                    for u in bag:
                        if u[0] == "s" and u in nbrs and u != v:
                            old = cstate[cpos[u]]
                            if old in (_S_FREE, _S_NEEDED):
                                upgraded.append(u)
                    extra = [(u, _S_HIT) for u in upgraded]
                    for u in upgraded:
                        for c in adj.get(u, ()):
                            if c[0] == "c" and c in pos and c != v:
                                if cstate[cpos[c]] == 0:
                                    extra.append((c, 1))
                    put(insert(1, extra), cost + 1, ("intro", cstate))

                elif v[0] == "s":
                    hit = any(u[0] == "g" and u in nbrs and cstate[cpos[u]] == 1
                              for u in child.bag)
                    if hit:
                        extra = []
                        for c in adj.get(v, ()):
                            if c[0] == "c" and c in pos and cstate[cpos[c]] == 0:
                                extra.append((c, 1))
                        put(insert(_S_HIT, extra), cost, ("intro", cstate))
                    else:
                        put(insert(_S_FREE), cost, ("intro", cstate))
                        # commit every unsatisfied adjacent cross to this
                        # segment in one branch; committing a subset is never
                        # better
                        takers = [c for c in adj.get(v, ())
                                  if c[0] == "c" and c in pos and cstate[cpos[c]] == 0]
                        if takers:
                            extra = [(c, 1) for c in takers]
                            put(insert(_S_NEEDED, extra), cost, ("intro", cstate))

                else:  # cross
                    done = False
                    for s in adj.get(v, ()):
                        if s in pos and s != v and s[0] == "s":
                            sv = cstate[cpos[s]]
                            if sv in (_S_HIT, _S_NEEDED):
                                done = True
                                break
                    if done:
                        put(insert(1), cost, ("intro", cstate))
                    else:
                        put(insert(0), cost, ("intro", cstate))
                        for s in sorted(adj.get(v, ())):
                            if s in pos and s[0] == "s" and cstate[cpos[s]] == _S_FREE:
                                put(insert(1, [(s, _S_NEEDED)]), cost, ("intro", cstate))

        elif node.kind == "forget":
            child = nodes[node.children[0]]
            v = node.vertex
            cp = {u: i for i, u in enumerate(child.bag)}[v]
            for cstate, (cost, _) in tables[node.children[0]].items():
                val = cstate[cp]
                if v[0] == "s" and val == _S_NEEDED:
                    continue  # promised segment was never hit
                if v[0] == "c" and val == 0:
                    continue  # cross left unsatisfied
                st = cstate[:cp] + cstate[cp + 1:]
                put(st, cost, ("forget", cstate))

        else:  # join
            left, right = node.children
            gpos = [i for i, u in enumerate(bag) if u[0] == "g"]
            groups: Dict[tuple, List[tuple]] = {}
            for rstate in tables[right]:
                groups.setdefault(tuple(rstate[i] for i in gpos), []).append(rstate)
            for lstate, (lcost, _) in tables[left].items():
                key = tuple(lstate[i] for i in gpos)
                dup = sum(key)
                for rstate in groups.get(key, ()):
                    rcost = tables[right][rstate][0]
                    merged = []
                    for i, u in enumerate(bag):
                        a, b = lstate[i], rstate[i]
                        if u[0] == "g":
                            merged.append(a)
                        elif u[0] == "c":
                            merged.append(max(a, b))
                        else:
                            if _S_HIT in (a, b):
                                merged.append(_S_HIT)
                            elif _S_NEEDED in (a, b):
                                merged.append(_S_NEEDED)
                            else:
                                merged.append(_S_FREE)
                    put(tuple(merged), lcost + rcost - dup, ("join", lstate, rstate))

        tables[idx] = table

    root_table = tables[root]
    if () not in root_table:
        return None

    # traceback: collect guards selected at their introduce nodes
    selected = set()
    stack = [(root, ())]
    while stack:
        idx, state = stack.pop()
        node = nodes[idx]
        entry = tables[idx].get(state)
        back = entry[1]
        if back[0] == "leaf":
            continue
        if back[0] == "intro":
            child_state = back[1]
            v = node.vertex
            if v[0] == "g":
                p = {u: i for i, u in enumerate(node.bag)}[v]
                if state[p] == 1:
                    selected.add(v[1])
            stack.append((node.children[0], child_state))
        elif back[0] == "forget":
            stack.append((node.children[0], back[1]))
        else:
            stack.append((node.children[0], back[1]))
            stack.append((node.children[1], back[2]))
    return frozenset(selected)


def dp_solve(H: AuxiliaryGraph, td_h: TreeDecomposition,
             xprime: Optional[Iterable[int]] = None,
             width_max: int = DEFAULT_WIDTH_MAX) -> Solution:
    """Minimum guard set via dynamic programming over the lifted decomposition."""
    if td_h.width > width_max:
        raise WidthExceeded(f"width {td_h.width} exceeds limit {width_max}")
    nodes = _make_nice(td_h)
    picked = _dp(nodes, H)
    if picked is None:
        raise Infeasible("no guard set satisfies all requested crosses")
    xp = tuple(sorted(xprime)) if xprime is not None else H.xprime
    return replace(make_solution(H.pix, xp, sorted(picked), "dp"), decomposition=td_h)
