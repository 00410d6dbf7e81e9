import itertools
import random

import pytest

import slidecam as sc

from conftest import LSHAPE, RECT, bfs_within_two, cross_sets, oriented_instance


def test_build_instance_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    inst = sc.build_instance(pix)
    assert len(inst.universe) == 2
    assert cross_sets(inst)[0] == frozenset(inst.universe)
    assert inst.feasible


def test_build_instance_comb_horizontal_singletons():
    p = sc.gen_comb(3)
    pix = sc.pixelate(p)
    inst = oriented_instance(pix, ("H",))
    tooth_rects = {(1, 0, 2, 1), (1, 2, 2, 3), (1, 4, 2, 5)}
    for c, hitters in cross_sets(inst).items():
        if pix.pixels[c].rect in tooth_rects:
            assert len(hitters) == 1


def test_build_instance_infeasible_flag():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    top = [g.id for g in pix.guards if g.orientation == "H" and g.anchor == 2]
    inst = sc.build_instance(pix, gammaprime=top)
    assert not inst.feasible
    bad_rects = {pix.pixels[c].rect for c in inst.infeasible_crosses}
    assert bad_rects == {(1, 0, 2, 1)}


def test_build_instance_counts_repeated_crosses_once():
    pix = sc.pixelate(sc.gen_comb(4))
    inst = sc.build_instance(pix, xprime=[3, 1, 1])
    assert inst.xprime == (1, 3)
    assert inst.wanted == 0b1010
    assert sc.brute_force_min_cover(inst).size == 1
    assert sc.bg_hitting_set(inst).solution.size >= 1


def test_instance_monotonicity():
    rng = random.Random(5)
    for seed in range(20):
        p = sc.gen_random_simple(4 + 2 * (seed % 4), seed + 50)
        pix = sc.pixelate(p)
        full = sc.build_instance(pix)
        opt_full = sc.brute_force_min_cover(full).size
        # shrinking the guard set can only increase the optimum
        uni = list(full.universe)
        sub = sorted(rng.sample(uni, max(1, len(uni) - 2)))
        inst_sub = sc.build_instance(pix, gammaprime=sub)
        if inst_sub.feasible:
            assert sc.brute_force_min_cover(inst_sub).size >= opt_full
        # shrinking the cross set can only decrease it
        xs = sorted(rng.sample(range(len(pix.crosses)), max(1, len(pix.crosses) - 2)))
        inst_x = sc.build_instance(pix, xprime=xs)
        assert sc.brute_force_min_cover(inst_x).size <= opt_full


def test_mhsc_at_least_msc(corpus):
    for name, p in corpus.items():
        pix = sc.pixelate(p)
        msc = sc.brute_force_min_cover(sc.build_instance(pix)).size
        insth = oriented_instance(pix, ("H",))
        assert sc.brute_force_min_cover(insth).size >= msc, name


# ---------------------------------------------------------------------------
# segment covering
# ---------------------------------------------------------------------------

def test_to_segment_covering_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    hids = [g.id for g in sc.guard_segments(pix, ("H",))]
    osc = sc.to_segment_covering(pix, range(len(pix.crosses)), hids)
    assert len(osc.verticals) == 1
    assert len(osc.horizontals) == 1
    assert osc.covers(0, 0)


def test_to_segment_covering_lshape():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    hids = [g.id for g in sc.guard_segments(pix, ("H",))]
    osc = sc.to_segment_covering(pix, range(len(pix.crosses)), hids)
    assert set(osc.verticals) == {(1, 0, 2), (3, 0, 1)}  # x=0.5 and x=1.5, doubled
    bottom = next(i for i, h in enumerate(osc.horizontals) if h[1] == 0)
    assert all(osc.covers(bottom, v) for v in range(len(osc.verticals)))


def test_to_segment_covering_rejects_vertical_guards():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    with pytest.raises(sc.PreconditionViolated):
        sc.to_segment_covering(pix, range(1), [g.id for g in pix.guards])


def osc_optimum(osc: sc.SegmentCoveringInstance) -> int:
    nv = len(osc.verticals)
    ng = len(osc.horizontals)
    for k in range(0, ng + 1):
        for pick in itertools.combinations(range(ng), k):
            if all(any(osc.covers(g, v) for g in pick) for v in range(nv)):
                return k
    raise AssertionError("uncoverable segment covering instance")


def test_segment_covering_equals_mhsc_small(corpus):
    for name in ("rect", "lshape", "comb2", "rand0", "rand1"):
        pix = sc.pixelate(corpus[name])
        hids = [g.id for g in sc.guard_segments(pix, ("H",))]
        inst = sc.build_instance(pix, gammaprime=hids)
        osc = sc.to_segment_covering(pix, range(len(pix.crosses)), hids)
        assert osc_optimum(osc) == sc.brute_force_min_cover(inst).size, name


# ---------------------------------------------------------------------------
# auxiliary graph
# ---------------------------------------------------------------------------

def test_auxiliary_graph_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    H = sc.build_auxiliary_graph(pix)
    assert len(H.xprime) == 1
    assert len(H.sigma_ids) == 2
    assert len(H.universe) == 2
    assert len(H.adj[("c", 0)]) == 2


def test_auxiliary_graph_lshape():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    H = sc.build_auxiliary_graph(pix)
    assert len(H.sigma_ids) == 4
    for c in H.xprime:
        nbrs = H.adj[("c", c)]
        assert len(nbrs) == 2 and all(u[0] == "s" for u in nbrs)


def test_distance_two_matches_verify_cover():
    rng = random.Random(11)
    for seed in range(50):
        p = sc.gen_random_simple(4 + 2 * (seed % 4), seed + 300)
        pix = sc.pixelate(p)
        H = sc.build_auxiliary_graph(pix)
        uni = list(H.universe)
        S = rng.sample(uni, rng.randint(0, len(uni)))
        reached = bfs_within_two(H.adj, [("g", g) for g in S],
                                 [("c", c) for c in H.xprime])
        report = sc.verify_cover(pix, sorted(S))
        covered = set(range(len(pix.crosses))) - set(report.uncovered)
        for c in H.xprime:
            assert reached[("c", c)] == (c in covered), (seed, c)


def test_instance_dump_format():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    inst = sc.build_instance(pix)
    d = inst.to_dict()
    assert set(d) == {"universe", "sets"}
    assert all(set(row) == {"cross", "guards"} for row in d["sets"])


def test_support_graph_counts_repeated_ids_once():
    """S and H treat repeated and unknown ids as build_instance does: a
    repeated id counts once, an id the pixelation lacks is a ValueError."""
    from slidecam.treewidth import decompose, dp_solve

    pix = sc.pixelate(sc.gen_comb(3))
    once = sc.build_support_graph(pix, [0, 1], [0, 1])
    for xprime, universe in (([0, 0, 1], [0, 1]), ([0, 1], [0, 0, 1]), ([1, 0, 1, 0], [1, 1, 0])):
        S = sc.build_support_graph(pix, xprime, universe)
        assert (S.xprime, S.universe, S.adj, S.names) == (once.xprime, once.universe, once.adj, once.names)
        H = sc.build_auxiliary_graph(pix, xprime, universe)
        assert (H.xprime, H.universe) == ((0, 1), (0, 1))
    S = sc.build_support_graph(pix, [0, 0], None)
    sol = dp_solve(S, decompose(S.adj))
    leaves = [bag for bag in sol.decomposition.bags if ("c", 0) in bag]
    assert S.xprime == (0,) and len(leaves) == 1, sol.decomposition.bags
    for build in (sc.build_support_graph, sc.build_auxiliary_graph, sc.build_instance):
        for xprime, universe in (([0, 10**6], None), (None, [0, 10**6]), ([-1], None)):
            with pytest.raises(ValueError, match="ids"):
                build(pix, xprime, universe)
