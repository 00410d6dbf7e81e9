import importlib
import itertools

import pytest

import slidecam as sc
from slidecam.exact import make_solution

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


def reference_make_solution(pix, xprime, guards, method):
    """``make_solution`` as it was with two branches: all-id picks took
    their records from ``pix.guard`` (hit sets from ``guard_masks``), in
    ascending id order; otherwise runs got records with the hit sets of
    the verify's walk and segments were listed as given, in key order."""
    from slidecam.exact import Solution
    ids = None
    if all(isinstance(g, int) for g in guards):
        ids = tuple(sorted(set(guards)))
        cams = tuple(map(pix.guard, ids))
        report = sc.verify_cover(pix, ids, xprime)
    else:
        unique = {}
        for g in guards:
            unique.setdefault(g if isinstance(g, tuple) else g.key(), g)
        keys = sorted(unique)
        report = sc.verify_cover(pix, keys, xprime)
        cams = tuple(sc.GuardSegment(*key, hit_set=hit) if isinstance(unique[key], tuple) else unique[key]
                     for key, hit in zip(keys, report.hit_sets))
    if not report.covered:
        raise AssertionError(f"solution does not cover crosses {report.uncovered}")
    return Solution(cameras=cams, size=len(cams), method=method,
                    certificate=report.certificate, guard_ids=ids)


def _same_solution(got, want):
    assert got.cameras == want.cameras  # ids and hit sets included
    assert (got.size, got.method, got.guard_ids) == (want.size, want.method, want.guard_ids)
    assert dict(got.certificate) == dict(want.certificate)


def _make_solution_calls(monkeypatch):
    """Record the arguments of every ``make_solution`` call a solve makes."""
    calls = []
    real = sc.exact.make_solution
    for name in ("exact", "approx", "treewidth", "gallery"):
        module = importlib.import_module(f"slidecam.{name}")
        monkeypatch.setattr(module, "make_solution",
                            lambda *args: calls.append(args) or real(*args))
    return calls


def _solves(corpus):
    """(polygon, solve_polygon keywords) over the corpus and a two-hole
    shape, with restricted instances, and the bench-size shapes, for every
    algo that applies."""
    two_holes = sc.validate_polygon([[(0, 0), (8, 0), (8, 6), (0, 6)],
                                     [(2, 2), (2, 4), (3, 4), (3, 2)],
                                     [(5, 1), (5, 3), (6, 3), (6, 1)]])
    for p in (*corpus.values(), two_holes):
        pix = sc.pixelate(p)
        n_c, n_g = len(pix.h_supports), len(pix.guard_masks)
        for algo in ("exact", "greedy", "bg", "dp", "path"):
            yield p, {"algo": algo}
        for mode in ("mhsc", "mvsc"):
            for algo in ("exact", "greedy", "bg", "dp"):
                yield p, {"algo": algo, "mode": mode}
        for algo in ("exact", "greedy", "bg", "dp"):
            yield p, {"algo": algo, "mode": "custom", "xprime": range(0, n_c, 2)}
            yield p, {"algo": algo, "mode": "custom", "xprime": [], "guard_ids": range(n_g)}
            yield p, {"algo": algo, "mode": "custom", "guard_orientations": "V"}
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    grid = sc.validate_polygon([[(0, 0), (32, 0), (32, 32), (0, 32)],
                                *([(x + 10 * i + 2, y + 10 * j + 2) for x, y in square]
                                  for i in range(3) for j in range(3))])
    for p in (sc.gen_comb(400), sc.gen_path_lb(160), sc.gen_thin_tree(12, 3),
              sc.gen_random_simple(40, 4), grid):
        for algo in ("greedy", "bg", "path"):
            yield p, {"algo": algo}


def test_make_solution_matches_the_two_branch_reference(corpus, monkeypatch):
    """On the picks of every algo, ids and runs alike, one path gives the
    two-branch version's cameras (ids and hit sets included), size,
    method, guard ids and certificate."""
    calls = _make_solution_calls(monkeypatch)
    methods = set()
    for p, kwargs in _solves(corpus):
        try:
            sc.solve_polygon(p, **kwargs)
        except (sc.Infeasible, sc.NotPathSegmentation):
            continue
    assert len(calls) > 100
    # canonical records, which keep their ids, and runs, as a caller may pass them
    for pix in {id(pix): pix for pix, *_ in calls if len(pix.guard_runs) < 100}.values():
        calls += [(pix, None, pix.guards, "custom"), (pix, None, pix.guard_runs, "custom")]
    for pix, xprime, guards, method in calls:
        _same_solution(make_solution(pix, xprime, guards, method),
                       reference_make_solution(pix, xprime, guards, method))
        methods.add(method)
    assert methods == {"exact", "greedy", "bg", "dp", "path", "custom"}


def test_make_solution_refuses_as_the_two_branch_reference():
    """The same ``ValueError`` for one bad id and for several (the smallest
    is named), and the same ``AssertionError`` for picks that cover too
    little, as ids or as runs."""
    pix = sc.pixelate(sc.gen_comb(3))
    every = pix._all_crosses
    n = len(pix.guard_masks)
    cases = [[n], [2, -1], [n + 5, 1, -4, n], [99, n, 3]]
    cases += [[], [0], [pix.guard_runs[0]], [4, 5, 6], [g.key() for g in pix.guards[:2]]]
    for guards in cases:
        outcomes = []
        for build in (make_solution, reference_make_solution):
            with pytest.raises((ValueError, AssertionError)) as err:
                build(pix, every, guards, "custom")
            outcomes.append((err.type, str(err.value)))
        assert outcomes[0] == outcomes[1], guards


@pytest.mark.parametrize("algo", ["greedy", "exact"])
def test_solve_decides_feasibility_once(monkeypatch, algo):
    """A greedy or exact solve ORs the universe's hit masks once: the
    instance keeps its infeasible crosses, and ``solve_polygon`` and the
    solver both read them."""
    passes = []
    hit_mask = sc.HittingInstance.hit_mask

    def counted(self, guards):
        if guards is self.universe:
            passes.append(1)
        return hit_mask(self, guards)

    monkeypatch.setattr(sc.HittingInstance, "hit_mask", counted)
    for p in (sc.gen_comb(3), sc.gen_path_lb(2), sc.validate_polygon(LSHAPE)):
        for mode in ("msc", "mhsc"):
            passes.clear()
            sc.solve_polygon(p, mode=mode, algo=algo)
            assert len(passes) == 1, (p, mode)
