"""Audit orchestration and report rendering.

run_audit loads a dataset, evaluates the selected criteria (switching to
soft neighborhood evaluation when a feature-conditioned criterion meets
numeric features), and assembles a Report; write streams it or a
LipschitzReport into a binary file, and render returns the same bytes.
JSON is the canonical machine format: keys are emitted in construction
order and floats with 17 significant digits, so identical inputs yield
byte-identical output (the timing block is the one run-dependent section,
kept under its own key).  The JSON text is encoded in bounded runs as it
is written: no whole-document str or list of pieces is built.
"""

from __future__ import annotations

import copy
import io
import json.encoder
import math
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .criteria import (
    FTU,
    CriterionResult,
    CriterionSpec,
    check_exact_params,
    check_situation_columns,
    evaluate,
    get_criterion,
    list_criteria,
    situation_testing_evaluate,
)
from .dataset import Dataset, load_dataset, load_schema_config
from .distance import DistanceSpec
from .errors import EmptySelection, InvalidParams
from .lipschitz import LipschitzReport
from .measures import StratumValues
from .neighborhood import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    DEFAULT_MIN_NEIGHBORHOOD,
    NeighborhoodSpec,
    SoftResult,
    build_index,
    check_soft_params,
    soft_evaluate,
)
from .tables import DEFAULT_MIN_COUNT

CRITERION_IDS = tuple(spec.id for spec in list_criteria())
SELECTABLE = CRITERION_IDS + (FTU.id, "situation_testing")


@dataclass
class AuditConfig:
    """Everything one audit run needs; echoed verbatim into the report."""

    data: str
    schema: str
    criteria: list[str] = field(default_factory=lambda: list(CRITERION_IDS))
    situation_columns: list[str] | None = None
    measure: str = "mi"
    threshold: float | None = None
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA
    min_count: int = DEFAULT_MIN_COUNT
    min_neighborhood: int = DEFAULT_MIN_NEIGHBORHOOD
    alpha: float = 0.0
    soft_measure: str = "mi"
    k: int = 50
    radius: float | None = None
    weights: dict[str, float] | None = None
    output: str | None = None
    format: str = "json"

    def neighborhood_spec(self) -> NeighborhoodSpec:
        """ball(radius) when a radius is given, else knn(k)."""
        if self.radius is None:
            return NeighborhoodSpec("knn", k=self.k)
        return NeighborhoodSpec("ball", radius=self.radius)

    def to_dict(self) -> dict:
        """Every field in order, k and radius as one neighborhood block."""
        doc = {}
        for f in fields(self):
            if f.name == "k":
                doc["neighborhood"] = _neighborhood_block(self.neighborhood_spec())
            elif f.name != "radius":    # a copy: the report does not alias the config
                doc[f.name] = copy.copy(getattr(self, f.name))
        return doc


@dataclass
class Report:
    config: dict
    results: list[dict]
    warnings: list[str]
    timing: dict
    all_passed: bool

    def to_dict(self) -> dict:
        """The report as plain JSON values, per-stratum rows as lists of dicts."""
        doc = self._document()
        doc["results"] = [{k: list(v) if isinstance(v, _StratumRows) else v
                           for k, v in entry.items()} for entry in self.results]
        return doc

    def _document(self) -> dict:
        return {
            **_header(),
            "config": self.config,
            "results": self.results,
            "warnings": self.warnings,
            "all_passed": self.all_passed,
            "timing": self.timing,
        }


def _header() -> dict:
    """The keys every report document opens with."""
    return {"schema_version": 1, "tool": {"name": "fairaudit", "version": __version__}}


def _neighborhood_block(nspec: NeighborhoodSpec) -> dict:
    return {"mode": nspec.mode, "k": nspec.k, "radius": nspec.radius}


# -- canonical JSON -------------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii
_ROWS = 256     # per-stratum rows formatted, joined and written at a time


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report; encode it as a flag instead")
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _column_text(values: np.ndarray, fmt) -> np.ndarray:
    """fmt over a numeric column as an object array of str, once per distinct value.

    Values are told apart by their bits, so -0.0 keeps its sign.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([fmt(x) for x in bits.view(values.dtype).tolist()], dtype=object)[inverse]


class _StratumRows(Sequence):
    """The per_stratum rows of an exact result, read from its StratumValues columns.

    A row is {key, value, weight}, plus rate_gap where the stratum's aux has
    one (vacuous strata have none) and degenerate: true on vacuous strata
    that the measure marks so.  Row dicts are built on access; the JSON
    writer formats the block straight from the columns, _ROWS rows at a
    time, and keeps no text once it is written: isp and ftu share one
    instance, and each of their entries writes it.
    """

    def __init__(self, strata: StratumValues):
        none = np.zeros(len(strata), dtype=bool)
        self.strata = strata
        self.gap = strata.aux.get("rate_gap")
        self.has_gap = none if self.gap is None else ~strata.vacuous
        self.degenerate = strata.vacuous if strata.vacuous_aux.get("degenerate") else none

    def __len__(self) -> int:
        return len(self.strata)

    def __getitem__(self, i: int) -> dict:
        s = self.strata
        row = {"key": s.keys[i].tolist(), "value": s.values[i].item(),
               "weight": s.weights[i].item()}
        if self.has_gap[i]:
            row["rate_gap"] = self.gap[i].item()
        if self.degenerate[i]:
            row["degenerate"] = True
        return row

    def write(self, out, indent: int, level: int) -> None:
        """Write these rows at `level` into the text stream out, _ROWS rows per write."""
        s = self.strata
        if not len(s):
            out.write("[]")
            return
        pad, p1, p2, p3 = (" " * (indent * (level + d)) for d in range(4))
        m = s.keys.shape[1]
        # key codes lie in [0, arity): one table gives their text, unless they are sparse
        top = int(s.keys.max()) + 1 if m else 0
        code_text = (np.array(list(map(str, range(top))), dtype=object)
                     if top <= s.keys.size else None)
        parts = [p1 + "{\n" + p2 + '"key": [' + ("\n" + p3 if m else "")]
        for j, code in enumerate(s.keys.T):
            parts += [_column_text(code, str) if code_text is None else code_text[code],
                      ",\n" + p3 if j < m - 1 else "\n" + p2]
        parts += ["],\n" + p2 + '"value": ', _column_text(s.values, _fmt_float),
                  ",\n" + p2 + '"weight": ', _column_text(s.weights, _fmt_float)]
        # rows share str objects: the rate_gap key is joined once per distinct gap, and
        # the flag stays one object (np.where over two str would copy it into every row)
        if self.has_gap.any():
            gap = np.where(self.has_gap, self.gap, 0.0)    # vacuous rows' gaps are not written
            key = ",\n" + p2 + '"rate_gap": '
            text = _column_text(gap, lambda x: key + _fmt_float(x))
            parts.append(np.where(self.has_gap, text, ""))
        flag = np.array(",\n" + p2 + '"degenerate": true', dtype=object)
        parts += [np.where(self.degenerate, flag, ""), "\n" + p1 + "},\n"]
        out.write("[\n")
        for lo in range(0, len(s), _ROWS):
            rows = slice(lo, min(lo + _ROWS, len(s)))
            table = np.empty((rows.stop - lo, len(parts)), dtype=object)
            for j, part in enumerate(parts):
                table[:, j] = part[rows] if isinstance(part, np.ndarray) else part
            if rows.stop == len(s):
                table[-1, -1] = "\n" + p1 + "}\n" + pad + "]"
            out.write("".join(table.ravel().tolist()))


def _write_json(obj, out, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, str):
        out.write(_escape(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(pad_in + _escape(str(key)) + ": ")
            _write_json(value, out, indent, level + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, value in enumerate(seq):
            out.write(pad_in)
            _write_json(value, out, indent, level + 1)
            out.write(",\n" if i < len(seq) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, _StratumRows):
        obj.write(out, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj, indent: int = 2) -> str:
    out = io.StringIO()
    _write_json(obj, out, indent, 0)
    out.write("\n")
    return out.getvalue()


# -- result serialization ----------------------------------------------------------

def _criterion_keys(spec: CriterionSpec, mode: str) -> dict:
    """The keys every result entry opens with, in report order."""
    return {"id": spec.id, "name": spec.name, "condition": spec.condition(),
            "unit": spec.unit, "awareness": spec.awareness, "mode": mode}


def _exact_result_dict(result: CriterionResult) -> dict:
    mv = result.measure
    details = {}
    for name in ("normalized", "dof", "p_value", "max_ber"):
        if name in mv.aux:
            details[name] = mv.aux[name]
    entry = {
        **_criterion_keys(result.criterion, "exact"),
        "measure": result.measure_kind,
        "value": mv.value,
        "threshold": result.threshold,
        "passed": result.passed,
        "details": details,
        "dropped_mass": result.dropped_mass,
    }
    if result.per_stratum is not None:
        entry["per_stratum"] = _StratumRows(result.per_stratum)
    return entry


def _soft_result_dict(result: SoftResult) -> dict:
    return {
        **_criterion_keys(result.criterion, "soft"),
        "soft_measure": result.measure_kind,
        "epsilon": result.epsilon,
        "delta": result.delta,
        "satisfied_fraction": result.satisfied_fraction,
        "indeterminate_fraction": result.indeterminate_fraction,
        "flagged_count": int(result.violated.sum()),
        "flagged_indices": [int(i) for i in result.flagged_indices],
        "passed": result.passed,
        # the record is always one of its candidates
        "neighborhood": {**_neighborhood_block(result.neighborhood), "include_self": True},
        "min_neighborhood": result.min_neighborhood,
    }


# -- orchestration ------------------------------------------------------------------

def _checked_selection(config: AuditConfig) -> list[str]:
    """The selected criterion ids, once every parameter of the request is checked.

    Exact and soft parameters and the neighborhood are checked whichever
    criteria are selected, by the same checks `evaluate` and `soft_evaluate`
    apply, so a bad value fails the run before any data is read.
    """
    selection = _parse_selection(config.criteria)
    check_exact_params(config.measure, config.threshold, config.min_count, config.alpha)
    check_soft_params(config.soft_measure, config.epsilon, config.delta,
                      config.min_neighborhood)
    config.neighborhood_spec()
    if "situation_testing" in selection:
        check_situation_columns(config.situation_columns)
    elif config.situation_columns:
        raise InvalidParams("situation testing columns given but situation_testing "
                            "is not selected")
    return selection


def _parse_selection(tokens) -> list[str]:
    seen = []
    for tok in tokens:
        tok = tok.strip()
        if tok == "st":
            tok = "situation_testing"
        if tok not in SELECTABLE:
            raise InvalidParams(
                f"unknown criterion {tok!r}; choose from {', '.join(SELECTABLE)}"
            )
        if tok not in seen:
            seen.append(tok)
    if not seen:
        raise EmptySelection("no criteria selected")
    return seen


def run_audit(config: AuditConfig, dataset: Dataset | None = None) -> Report:
    """Evaluate the configured criteria and assemble the report.

    Feature-conditioned criteria are evaluated exactly on all-categorical
    features and switch to soft neighborhood evaluation (with a warning
    naming the switch) when numeric features are present.  Every parameter
    is checked before the dataset is loaded.
    """
    selection = _checked_selection(config)
    if dataset is None:
        schema, threshold, missing = load_schema_config(config.schema)
        dataset = load_dataset(config.data, schema, threshold=threshold, missing=missing)

    warnings: list[str] = []
    if dataset.provenance.dropped_rows:
        warnings.append(f"load: dropped {dataset.provenance.dropped_rows} rows with missing "
                        f"cells (missing={dataset.provenance.missing})")
    results: list[dict] = []
    timing: dict[str, float] = {}
    all_passed = True
    shared_index = None
    dist = DistanceSpec(config.weights)
    if config.weights:      # checked even when no criterion measures distance
        dist.column_weights(dataset.feature_names())
    evaluated: dict[str, tuple] = {}    # id -> (result, entry); ftu reuses isp's

    def evaluate_once(cid: str) -> CriterionResult | SoftResult:
        nonlocal shared_index
        if cid == "situation_testing":
            return situation_testing_evaluate(
                dataset, config.situation_columns, config.measure,
                config.threshold, config.min_count, config.alpha,
            )
        spec = get_criterion(cid)
        if "features" in spec.given and dataset.has_numeric_features():
            if shared_index is None:
                shared_index = build_index(dataset, dist)
            return soft_evaluate(
                dataset, spec, config.neighborhood_spec(), dist,
                config.soft_measure, config.epsilon, config.delta,
                config.min_neighborhood, index=shared_index,
            )
        return evaluate(
            dataset, spec, config.measure, config.threshold, config.min_count, config.alpha,
        )

    for cid in selection:
        started = time.monotonic()
        # fairness through unawareness is the same condition as isp: its entry
        # is isp's under its own name, per-stratum rows included
        base = "isp" if cid == "ftu" else cid
        if base not in evaluated:
            result = evaluate_once(base)
            evaluated[base] = result, (_soft_result_dict(result) if isinstance(result, SoftResult)
                                       else _exact_result_dict(result))
        result, entry = evaluated[base]
        if cid == "ftu":
            entry = {**entry, **_criterion_keys(FTU, entry["mode"])}
        if isinstance(result, SoftResult):
            warnings.append(
                f"criterion {cid}: numeric features present, switched from "
                "exact stratification to soft neighborhood conditioning"
            )
            if result.indeterminate_fraction > 0:
                warnings.append(
                    f"criterion {cid}: {result.indeterminate_fraction:.4f} of records "
                    "indeterminate (restricted neighborhood below min_neighborhood)"
                )
        elif result.dropped_mass > 0:
            warnings.append(
                f"criterion {cid}: dropped_mass {result.dropped_mass:.4f} "
                f"(strata below min_count={config.min_count})"
            )
        results.append(entry)
        timing[cid] = time.monotonic() - started
        all_passed &= entry["passed"]

    return Report(
        config=config.to_dict(),
        results=results,
        warnings=warnings,
        timing=timing,
        all_passed=all_passed,
    )


# -- rendering -----------------------------------------------------------------------

def render(report: Report | LipschitzReport, format: str = "json") -> bytes:
    """Serialize an audit or Lipschitz report; JSON is canonical, markdown is for reading."""
    buf = io.BytesIO()
    write(report, buf, format)
    return buf.getvalue()


def write(report: Report | LipschitzReport, fp, format: str = "json") -> None:
    """Write the bytes `render` returns into the binary stream fp, in bounded runs."""
    audit = isinstance(report, Report)
    if format not in ("json", "markdown"):
        raise InvalidParams(f"unknown report format {format!r}")
    out = io.TextIOWrapper(fp, "utf-8", newline="")    # encodes runs of about 8 KiB
    try:
        if format == "markdown":
            out.write((_render_markdown if audit else _lipschitz_markdown)(report))
        else:
            _write_json(report._document() if audit else _lipschitz_document(report), out, 2, 0)
            out.write("\n")
    finally:
        out.detach()    # flushed, and fp is left open


def _lipschitz_document(report: LipschitzReport) -> dict:
    doc = {**_header(), "max_ratio": report.max_ratio, "passed": report.passed,
           **asdict(report)}
    doc["violations"] = doc.pop("violations")      # listed after the counts
    return doc


def _lipschitz_markdown(report: LipschitzReport) -> str:
    return "\n".join([
        "# Lipschitz audit",
        "",
        f"- verdict: {'PASS' if report.passed else 'FAIL'}",
        f"- max ratio: {report.max_ratio!r}",
        f"- violations: {report.violation_count} "
        f"(infinite: {report.infinite_count}) over {report.pairs_examined} pairs",
        f"- sampling: {report.sampling}",
        "",
    ])


def _render_markdown(report: Report) -> str:
    lines = ["# Fairness audit report", ""]
    lines.append(f"- tool: fairaudit {__version__}")
    lines.append(f"- data: `{report.config['data']}`")
    lines.append(f"- overall: {'PASS' if report.all_passed else 'FAIL'}")
    lines.append("")
    lines.append("| criterion | condition | unit | awareness | measure | value | verdict |")
    lines.append("|---|---|---|---|---|---|---|")
    for r in report.results:
        if r["mode"] == "exact":
            measure = r["measure"]
            value = repr(r["value"])
        else:
            measure = (
                f"soft {r['soft_measure']} "
                f"(ε={r['epsilon']!r}, δ={r['delta']!r})"
            )
            value = f"satisfied_fraction={r['satisfied_fraction']!r}"
        verdict = "pass" if r["passed"] else "fail"
        condition = r["condition"].replace("|", "\\|")  # keep the table cell intact
        lines.append(
            f"| {r['name']} | {condition} | {r['unit']} | {r['awareness']} "
            f"| {measure} | {value} | {verdict} |"
        )
    if report.warnings:
        lines.append("")
        lines.append("## Warnings")
        lines.append("")
        for w in report.warnings:
            lines.append(f"- {w}")
    lines.append("")
    return "\n".join(lines)


def parse_report(blob: bytes | str) -> dict:
    """Parse a rendered JSON report back into a dict (inverse of render)."""
    import json as _json

    if isinstance(blob, bytes):
        blob = blob.decode("utf-8")
    return _json.loads(blob)
