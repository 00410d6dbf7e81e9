import itertools

import pytest

import slidecam as sc

from conftest import LSHAPE, RECT, cross_sets, oriented_instance


def exhaustive_optimum(inst: sc.HittingInstance) -> int:
    """Plain subset enumeration, the oracle for the oracle."""
    uni = list(inst.universe)
    sets = cross_sets(inst)
    assert 2 ** len(uni) <= 2 ** 20
    for k in range(0, len(uni) + 1):
        for pick in itertools.combinations(uni, k):
            chosen = set(pick)
            if all(s & chosen for s in sets.values()):
                return k
    raise AssertionError("infeasible instance")


def test_rectangle_size_one():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    sol = sc.brute_force_min_cover(sc.build_instance(pix))
    assert sol.size == 1


def test_comb3_mhsc_three():
    pix = sc.pixelate(sc.gen_comb(3))
    sol = sc.brute_force_min_cover(oriented_instance(pix, ("H",)))
    assert sol.size == 3


def test_comb3_msc_one():
    pix = sc.pixelate(sc.gen_comb(3))
    inst = sc.build_instance(pix)
    sol = sc.brute_force_min_cover(inst)
    assert sol.size == 1
    assert sc.verify_cover(pix, list(sol.guard_ids)).covered
    # and the empty set is no cover
    assert not sc.verify_cover(pix, []).covered


def test_brute_force_matches_exhaustive(corpus):
    for name in ("rect", "lshape", "comb2", "comb3", "spiral2", "rand0", "rand2", "rand5"):
        pix = sc.pixelate(corpus[name])
        inst = sc.build_instance(pix)
        assert sc.brute_force_min_cover(inst).size == exhaustive_optimum(inst), name
        insth = oriented_instance(pix, ("H",))
        if insth.feasible:
            assert sc.brute_force_min_cover(insth).size == exhaustive_optimum(insth), name


def test_dominance_pruning_preserves_optimum(corpus):
    from slidecam.exact import _dominance_prune
    for name in ("comb3", "spiral2", "rand1", "rand4"):
        pix = sc.pixelate(corpus[name])
        inst = sc.build_instance(pix)
        masks = {g: pix.guards[g].hit_set & inst.wanted for g in inst.universe}
        kept = _dominance_prune(inst, masks)
        pruned_inst = sc.build_instance(pix, gammaprime=kept)
        assert (sc.brute_force_min_cover(pruned_inst).size
                == exhaustive_optimum(inst)), name


def test_brute_force_deterministic():
    pix = sc.pixelate(sc.gen_comb(4))
    inst = oriented_instance(pix, ("H",))
    a = sc.brute_force_min_cover(inst)
    b = sc.brute_force_min_cover(inst)
    assert a.guard_ids == b.guard_ids


def test_infeasible_raises():
    pix = sc.pixelate(sc.validate_polygon(LSHAPE))
    top = [g.id for g in pix.guards if g.orientation == "H" and g.anchor == 2]
    inst = sc.build_instance(pix, gammaprime=top)
    with pytest.raises(sc.Infeasible):
        sc.brute_force_min_cover(inst)
    with pytest.raises(sc.Infeasible):
        sc.greedy_cover(inst)


def test_cap_exceeded():
    pix = sc.pixelate(sc.gen_comb(3))
    inst = oriented_instance(pix, ("H",))
    with pytest.raises(sc.CapExceeded):
        sc.brute_force_min_cover(inst, cap=2)


def test_greedy_examples():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    assert sc.greedy_cover(sc.build_instance(pix)).size == 1
    pixc = sc.pixelate(sc.gen_comb(3))
    assert sc.greedy_cover(oriented_instance(pixc, ("H",))).size == 3


def test_greedy_never_beats_oracle(corpus):
    for name, p in corpus.items():
        pix = sc.pixelate(p)
        inst = sc.build_instance(pix)
        assert sc.greedy_cover(inst).size >= sc.brute_force_min_cover(inst).size, name


def test_solution_json_shape():
    pix = sc.pixelate(sc.validate_polygon(RECT))
    sol = sc.brute_force_min_cover(sc.build_instance(pix))
    d = sol.to_dict()
    assert d["size"] == 1 and d["method"] == "exact"
    cam = d["cameras"][0]
    assert set(cam) == {"orientation", "anchor", "span"}


def test_make_solution_lists_each_camera_once():
    """Repeated ids, or segments with one key, are one camera of the solution."""
    pix = sc.pixelate(sc.gen_comb(3))
    every = range(len(pix.crosses))
    spine = next(g for g in pix.guards if g.hit_set == (1 << len(pix.crosses)) - 1)
    by_id = sc.make_solution(pix, every, [spine.id, spine.id], "exact")
    assert by_id.size == 1 and by_id.guard_ids == (spine.id,)
    copy = sc.GuardSegment(spine.orientation, spine.anchor, spine.lo, spine.hi)
    by_key = sc.make_solution(pix, every, [copy, spine, copy], "path")
    assert by_key.size == 1 and by_key.cameras == (copy,)
    # a run's record is built with id -1 and the hit set of the verify's walk
    by_run = sc.make_solution(pix, every, [spine.key(), copy, spine.key()], "path")
    assert by_run.size == 1 and by_run.cameras == (sc.GuardSegment(*spine.key(), hit_set=spine.hit_set),)
