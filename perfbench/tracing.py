"""Spans recorded around the library's layer boundaries, from outside the library.

``Tracer.install`` replaces functions in the slidecam modules with wrappers,
at the module attribute the *calling* module looks up, so calls made inside
``solve_polygon``, ``path_guard`` and ``cli.main`` are seen without any
change to the library.  A span is (name, start, end, parent, op): the name
is ``<layer>.<stage>``, the parent is the index of the enclosing span and op
is the id of the benchmark operation.  Spans stay in memory until
``write`` is called at the end of the run.
"""
from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

# (module, attribute, span name).  A function imported by name into several
# modules is wrapped in each of them.
PATCHES = [
    ("geometry", "validate_polygon", "geometry.validate"),   # also OrthoPolygon.from_dict
    ("geometry", "pixelate", "geometry.pixelate"),           # segmentation_dual
    ("solve", "solve_polygon", "solve"),
    ("solve", "pixelate", "geometry.pixelate"),
    ("solve", "verify_cover", "geometry.verify"),
    ("solve", "build_instance", "hitset.instance"),
    ("solve", "build_auxiliary_graph", "hitset.aux_graph"),
    ("solve", "greedy_cover", "exact.greedy"),
    ("solve", "dual_graph", "treewidth.decompose"),
    ("solve", "decompose", "treewidth.decompose"),
    ("solve", "lift_decomposition", "treewidth.lift"),
    ("solve", "dp_solve", "treewidth.dp"),
    ("solve", "path_guard", "gallery.path_guard"),
    ("exact", "verify_cover", "geometry.verify"),            # make_solution
    ("gallery", "path_guard_steps", "gallery.path_guard_steps"),
    ("gallery", "guard_small", "gallery.guard_small"),
    ("gallery", "validate_polygon", "geometry.validate"),
    ("gallery", "pixelate", "geometry.pixelate"),
    ("gallery", "segmentation_dual", "geometry.segdual"),
    ("gallery", "verify_cover", "geometry.verify"),
    ("cli", "main", "cli"),
    ("cli", "solve_polygon", "solve"),
    ("cli", "pixelate", "geometry.pixelate"),
    # cmd_solve imports these inside the function, so during an operation
    # only its --dump-td rebuild reaches them through these modules
    ("hitset", "build_auxiliary_graph", "hitset.aux_graph"),
    ("treewidth", "dual_graph", "treewidth.decompose"),
    ("treewidth", "decompose", "treewidth.decompose"),
    ("treewidth", "lift_decomposition", "treewidth.lift"),
]

# spans that only glue stages together; their children are the pipeline stages
GLUE = ("op", "solve", "cli")

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span while an operation is open.

        ``count`` maps the return value to a number stored with the span.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[COUNT] = count(result)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, sc) -> None:
        """Wrap every function in ``PATCHES`` that this version of slidecam has."""
        counts = {"gallery.path_guard_steps": lambda result: len(result[1])}
        for module_name, attr, name in PATCHES:
            module = getattr(sc, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counts.get(name)))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def run_op(self, op: int, fn: Callable, *args):
        """Run one operation under a root span named ``op``."""
        self.op = op
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op = None

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(spans: List[list], ops: int) -> Dict[str, float]:
    """Per-op self times per stage, the CLI's --dump-td rebuild and stage shares.

    A span's self time is its duration minus that of its children.  Spans
    that ``cli.main`` opens itself, other than the solve call and the input
    validation, are its --dump-td rebuild; they count towards
    ``cli.dump_td_s`` only.  The stage share of a layer is its part of the
    pipeline time: the inclusive time of the stages the glue spans call, plus
    the self time of ``solve_polygon``.
    """
    child_time = [0.0] * len(spans)
    in_dump = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent < 0:
            continue
        child_time[parent] += span[END] - span[START]
        pname = spans[parent][NAME]
        in_dump[i] = in_dump[parent] or (
            pname == "cli" and span[NAME] not in ("solve", "geometry.validate"))

    self_time: Dict[str, float] = {}
    stage_time: Dict[str, float] = {}
    dump_td = 0.0
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        if in_dump[i]:
            if not in_dump[span[PARENT]]:
                dump_td += duration
            continue
        name = span[NAME]
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
        parent = span[PARENT]
        if name not in GLUE and parent >= 0 and spans[parent][NAME] in GLUE:
            layer = name.split(".")[0]
            stage_time[layer] = stage_time.get(layer, 0.0) + duration
    stage_time["solve"] = self_time.get("solve", 0.0)
    pipeline = sum(stage_time.values()) or 1.0

    def per_op(*names: str) -> float:
        return sum(self_time.get(n, 0.0) for n in names) / max(1, ops)

    metrics = {
        "geometry.validate_s": per_op("geometry.validate"),
        "geometry.pixelate_s": per_op("geometry.pixelate"),
        "geometry.verify_s": per_op("geometry.verify"),
        "geometry.segdual_s": per_op("geometry.segdual"),
        "hitset.instance_s": per_op("hitset.instance"),
        "hitset.aux_graph_s": per_op("hitset.aux_graph"),
        "exact.greedy_s": per_op("exact.greedy"),
        "treewidth.decompose_s": per_op("treewidth.decompose"),
        "treewidth.lift_s": per_op("treewidth.lift"),
        "treewidth.dp_s": per_op("treewidth.dp"),
        "gallery.path_guard_s": per_op("gallery.path_guard", "gallery.path_guard_steps",
                                       "gallery.guard_small"),
        "solve.self_s": per_op("solve"),
        "cli.self_s": per_op("cli"),
        "cli.dump_td_s": dump_td / max(1, ops),
    }
    for layer in ("geometry", "hitset", "exact", "treewidth", "gallery", "solve"):
        metrics[f"{layer}.stage_share"] = stage_time.get(layer, 0.0) / pipeline
    return metrics


def peel_metrics(spans: List[list], ops: set) -> Dict[str, float]:
    """Peels and geometry calls per peel inside ``path_guard``, over ``ops``."""
    peels = 0
    calls = {"geometry.pixelate": 0, "geometry.validate": 0}
    under_path = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        under_path[i] = parent >= 0 and (under_path[parent]
                                         or spans[parent][NAME] == "gallery.path_guard")
        if span[OP] not in ops:
            continue
        if span[NAME] == "gallery.path_guard_steps" and span[COUNT] is not None:
            peels += span[COUNT]
        elif under_path[i] and span[NAME] in calls:
            calls[span[NAME]] += 1
    return {
        "gallery.peels": peels,
        "gallery.pixelate_calls_per_peel": calls["geometry.pixelate"] / max(1, peels),
        "gallery.validate_calls_per_peel": calls["geometry.validate"] / max(1, peels),
    }
