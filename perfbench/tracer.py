"""In-memory span tracer that wraps fairaudit's layer functions from outside.

Nothing in `src/` knows about it. `install` replaces each seam function in
every fairaudit module namespace that holds it (so `report.evaluate`,
`criteria.evaluate` and `fairaudit.evaluate` are all wrapped) and each seam
method on its class. Spans carry name, start, end, parent and run id. Seams
called once per record or per stratum are aggregated into counters at the
boundary instead of one span per call; their time still counts as child time
of the enclosing span, so self times stay exact.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _first_arg_len(args, result):
    return len(args[1])


# (seam name, module, attribute, class or None, aggregate, work counter).
# Work counters: records queried, pairs or cells evaluated, strata retained,
# report bytes, map pairs examined.
SEAMS = (
    ("dataset.load_dataset", "fairaudit.dataset", "load_dataset", None, False, None),
    ("dataset.stratify", "fairaudit.dataset", "stratify", None, False, None),
    ("tables.stratified_contingency", "fairaudit.tables", "stratified_contingency", None,
     False, lambda args, result: len(result.entries)),
    ("tables.contingency", "fairaudit.tables", "contingency", None, True, None),
    ("tables.normalize", "fairaudit.tables", "normalize", None, True, None),
    ("criteria.evaluate", "fairaudit.criteria", "evaluate", None, False, None),
    ("distance.feature_space", "fairaudit.distance", "__init__", "FeatureSpace", False, None),
    ("distance.pair_distances", "fairaudit.distance", "pair_distances", "FeatureSpace",
     True, _first_arg_len),
    ("distance.block_distances", "fairaudit.distance", "block_distances", "FeatureSpace",
     True, lambda args, result: len(args[1]) * args[0].n),
    ("distance.gower_matrix_condensed", "fairaudit.distance", "gower_matrix_condensed", None,
     False, None),
    ("neighborhood.build_index", "fairaudit.neighborhood", "build_index", None, False, None),
    ("neighborhood.query", "fairaudit.neighborhood", "_knn_block", "NeighborIndex", True,
     _first_arg_len),
    ("neighborhood.query", "fairaudit.neighborhood", "_ball_block", "NeighborIndex", True,
     _first_arg_len),
    ("neighborhood.soft_evaluate", "fairaudit.neighborhood", "soft_evaluate", None, False, None),
    ("lipschitz.load_mapped_csv", "fairaudit.lipschitz", "load_mapped_csv", None, False, None),
    ("lipschitz.audit_map", "fairaudit.lipschitz", "audit_map", None, False,
     lambda args, result: result.pairs_examined),
    ("report.run_audit", "fairaudit.report", "run_audit", None, False, None),
    ("report.render", "fairaudit.report", "render", None, False,
     lambda args, result: len(result)),
) + tuple(
    ("measures", "fairaudit.measures", fn, None, True, None)
    for fn in ("mi_nats", "mutual_information", "conditional_mutual_information",
               "chi_square", "stratified_chi_square", "chi2_sf", "balanced_error_ratio",
               "stratified_balanced_error_ratio", "rate_gap")
)


class Tracer:
    """Spans and per-seam counters for one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []      # (id, name, start, end, parent id)
        self.stats: dict[str, dict] = {}  # name -> calls, time, self, work
        self._stack: list[list] = []      # [span id or None, child time]
        self._next_id = 0

    def wrap(self, name: str, fn, aggregate: bool, work):
        stats = self.stats.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0, "work": 0})
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if aggregate:
                span_id = parent
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            elapsed = end - start
            stats["calls"] += 1
            stats["time"] += elapsed
            stats["self"] += elapsed - frame[1]
            if work is not None:
                stats["work"] += work(args, result)
            if stack:
                stack[-1][1] += elapsed
            if not aggregate:
                spans.append((span_id, name, start, end, parent))
            return result

        return traced

    def to_dict(self) -> dict:
        return {"stats": self.stats,
                "spans": [dict(zip(("id", "name", "start", "end", "parent"), s),
                               run_id=self.run_id) for s in self.spans]}


def install(tracer: Tracer) -> None:
    """Wrap every seam; raise if a seam no longer exists under its name."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "fairaudit" or name.startswith("fairaudit."))]
    for name, module_name, attr, cls_name, aggregate, work in SEAMS:
        module = sys.modules[module_name]
        if cls_name is not None:
            cls = getattr(module, cls_name)
            fn = cls.__dict__.get(attr)
            if fn is None:
                raise LookupError(f"seam {name}: {cls_name}.{attr} not found")
            setattr(cls, attr, tracer.wrap(name, fn, aggregate, work))
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            raise LookupError(f"seam {name}: {module_name}.{attr} not found")
        wrapped = tracer.wrap(name, fn, aggregate, work)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
