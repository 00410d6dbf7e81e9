import random
from fractions import Fraction

import pytest

import slidecam as sc
from slidecam.approx import NetRequest, heavy_sets, is_net

from conftest import RECT, cross_sets, oriented_instance


def weighted_instances(count, tag, max_n=12):
    """Seeded random weighted instances over random polygons."""
    out = []
    for seed in range(count):
        n = 4 + 2 * (seed % ((max_n - 4) // 2 + 1))
        p = sc.gen_random_simple(n, seed)
        pix = sc.pixelate(p)
        inst = sc.build_instance(pix)
        rng = random.Random(f"{tag}:{seed}")
        weights = {g: rng.randint(1, 64) for g in inst.universe}
        r = Fraction(rng.randint(1, 8))
        out.append((inst.with_weights(weights), r, seed))
    return out


def test_rectangle_net_r1():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    inst = sc.build_instance(pix)
    net = sc.find_net(inst, NetRequest(r=Fraction(1), seed="x"))
    # both guards hit the only set, so any nonempty subset is a valid net
    assert net and is_net(inst, net, Fraction(1))


def test_comb_uniform_heavy_sets_all_hit():
    pix = sc.pixelate(sc.gen_comb(3))
    inst = oriented_instance(pix, ("H",))
    r = Fraction(len(inst.xprime))
    # with uniform weights every singleton tooth set is heavy at large r
    sets = cross_sets(inst)
    tooth = [c for c in inst.xprime if len(sets[c]) == 1]
    hv = heavy_sets(inst, r)
    assert set(tooth) <= set(hv)
    net = sc.find_net(inst, NetRequest(r=r, seed="c"))
    for c in tooth:
        assert sets[c] & net


def test_net_property_randomized():
    for inst, r, seed in weighted_instances(200, "net"):
        net = sc.find_net(inst, NetRequest(r=r, seed=str(seed)))
        assert is_net(inst, net, r), seed


def test_net_determinism():
    for inst, r, seed in weighted_instances(10, "det"):
        req = NetRequest(r=r, seed=str(seed))
        assert sc.find_net(inst, req) == sc.find_net(inst, req)


def test_combined_net_property():
    for inst, r, seed in weighted_instances(200, "comb"):
        net = sc.combined_net(inst, NetRequest(r=r, seed=str(seed)))
        assert is_net(inst, net, r), seed


def test_combined_net_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    inst = sc.build_instance(pix)
    net = sc.combined_net(inst, NetRequest(r=Fraction(1), seed="rc"))
    assert net == frozenset(inst.universe)  # one H and one V guard


def test_bg_rectangle():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    rep = sc.bg_hitting_set(sc.build_instance(pix))
    assert rep.solution.size >= 1
    assert sc.verify_cover(pix, list(rep.solution.guard_ids)).covered


def test_bg_comb4_horizontal():
    pix = sc.pixelate(sc.gen_comb(4))
    inst = oriented_instance(pix, ("H",))
    opt = sc.brute_force_min_cover(inst).size
    rep = sc.bg_hitting_set(inst, seed=3)
    assert rep.solution.size >= opt == 4
    assert rep.solution.size <= rep.budget_at_2k


def test_bg_validity_and_ratio_randomized():
    worst = 0.0
    for seed in range(60):
        n = 4 + 2 * (seed % 5)
        p = sc.gen_random_simple(n, seed + 700)
        pix = sc.pixelate(p)
        inst = sc.build_instance(pix)
        opt = sc.brute_force_min_cover(inst).size
        rep = sc.bg_hitting_set(inst, seed=seed)
        assert sc.verify_cover(pix, list(rep.solution.guard_ids)).covered
        ratio = rep.solution.size / opt
        assert ratio >= 1.0
        k = rep.terminating_k
        assert ratio <= rep.budget_at_4k / k, seed
        worst = max(worst, ratio)
    assert worst >= 1.0


def test_bg_determinism():
    pix = sc.pixelate(sc.gen_path_lb(2))
    inst = sc.build_instance(pix)
    a = sc.bg_hitting_set(inst, seed=42)
    b = sc.bg_hitting_set(inst, seed=42)
    assert a.solution.guard_ids == b.solution.guard_ids
    assert a.net_sizes == b.net_sizes


def test_bg_infeasible():
    from conftest import LSHAPE
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    top = [g.id for g in pix.guards if g.orientation == "H" and g.anchor == 2]
    inst = sc.build_instance(pix, gammaprime=top)
    with pytest.raises(sc.Infeasible):
        sc.bg_hitting_set(inst)


def test_find_net_rejects_bad_r():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    inst = sc.build_instance(pix)
    with pytest.raises(ValueError):
        sc.find_net(inst, NetRequest(r=Fraction(1, 2), seed="b"))


def test_combined_net_comb3_majority_orientation():
    """Crosses hit mostly by horizontal guards are covered through the H part."""
    pix = sc.pixelate(sc.gen_comb(3))
    inst = sc.build_instance(pix)
    r = Fraction(2)
    req = NetRequest(r=r, seed="comb3")
    net = sc.combined_net(inst, req)
    h_part = {g for g in net if pix.guards[g].orientation == "H"}
    W = inst.total_weight()
    for c, hitters in cross_sets(inst).items():
        if sum(inst.weight_of(g) for g in hitters) * r.numerator < W * r.denominator:
            continue  # only heavy sets are promised coverage
        h_hitters = {g for g in hitters if pix.guards[g].orientation == "H"}
        if 2 * len(h_hitters) >= len(hitters):
            # the vertical support is then heavy for the H subinstance at 2r
            assert hitters & net, c


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="bg's sampling budget reaches |U| at k = 1, so its net is the whole universe")
def test_bg_not_vacuous_when_opt_is_small():
    # acceptance 5's instances; criterion 5 itself cannot notice a vacuous net
    for seed in range(200):
        p = sc.gen_random_simple(4 + 2 * (seed % 5), seed + 20_000)
        inst = sc.build_instance(sc.pixelate(p))
        if 4 * sc.brute_force_min_cover(inst).size < len(inst.universe):
            rep = sc.bg_hitting_set(inst, seed=seed)
            assert rep.solution.size < len(inst.universe), seed
