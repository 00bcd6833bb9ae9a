"""Command-line front end.

Subcommands:
    audit      run selected criteria over a CSV and write a report
    generate   write a scenario dataset CSV plus its ground-truth sidecar
    lipschitz  audit a representation map for distance expansion
    criteria   print the criterion registry

Exit codes: 0 every selected check passed, 1 at least one failed, 2 any
configuration, schema, or data error, or an unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .criteria import MEASURE_KINDS, list_criteria
from .dataset import save_csv
from .errors import FairauditError, InvalidParams
from .lipschitz import (
    DEFAULT_SAMPLE_COUNT,
    DEFAULT_TOL,
    MAPPED_METRICS,
    ORIGINAL_METRICS,
    audit_map,
    load_mapped_csv,
)
from .neighborhood import SOFT_MEASURE_KINDS
from .report import SELECTABLE, AuditConfig, canonical_json, render, run_audit
from .scenarios import SCENARIO_NAMES, ScenarioSpec, generate, schema_config_for


def criteria_table() -> str:
    """The criterion registry as a fixed-width text table."""
    rows = [("id", "criterion", "condition", "unit", "awareness")]
    for spec in list_criteria():
        rows.append((spec.id, spec.name, spec.condition(), spec.unit, spec.awareness))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for r in rows:
        cells = [r[i].ljust(widths[i]) for i in range(5)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _parse_weights(text: str | None) -> dict[str, float] | None:
    if not text:
        return None
    weights = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        name = name.strip()
        if not name or not value:
            raise InvalidParams(f"bad weight entry {item!r}; use column=weight")
        if name in weights:
            raise InvalidParams(f"weight for column {name!r} given twice")
        weights[name] = float(value)
    return weights


def _emit(blob: bytes, output: str | None) -> None:
    if output:
        Path(output).write_bytes(blob)
    else:
        sys.stdout.buffer.write(blob)
        sys.stdout.buffer.flush()


def _cmd_audit(args) -> int:
    # every AuditConfig field is an option's dest; the comma lists are split here
    values = {f.name: getattr(args, f.name) for f in fields(AuditConfig)}
    values.update(
        criteria=[t for t in args.criteria.split(",") if t],
        situation_columns=([c.strip() for c in args.situation_columns.split(",")]
                           if args.situation_columns else None),
        weights=_parse_weights(args.weights),
    )
    report = run_audit(AuditConfig(**values))
    _emit(render(report, args.format), args.output)
    return 0 if report.all_passed else 1


def _cmd_generate(args) -> int:
    params = json.loads(args.params) if args.params else {}
    spec = ScenarioSpec(args.scenario, args.n, args.seed, params)
    dataset, truth = generate(spec)
    save_csv(dataset, args.output)
    sidecar = {
        "scenario": args.scenario,
        "seed": args.seed,
        "verdicts": truth.verdicts,
        "planted_indices": (
            [int(i) for i in truth.planted_indices]
            if truth.planted_indices is not None else []
        ),
    }
    sidecar_path = args.truth_output or str(Path(args.output).with_suffix("")) + ".truth.json"
    Path(sidecar_path).write_text(canonical_json(sidecar), encoding="utf-8")
    if args.schema_out:
        Path(args.schema_out).write_text(
            canonical_json(schema_config_for(dataset)), encoding="utf-8"
        )
    return 0


def _cmd_lipschitz(args) -> int:
    original, mapped = load_mapped_csv(args.data)
    report = audit_map(
        original, mapped, args.d_original, args.d_mapped,
        sampling=args.sampling, sample_count=args.sample_count,
        seed=args.seed, tol=args.tol,
    )
    _emit(render(report, args.format), args.output)
    return 0 if report.passed else 1


def _cmd_criteria(args) -> int:
    sys.stdout.write(criteria_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairaudit",
        description="Audit tabular decision data against fairness criteria.",
    )
    parser.add_argument("--version", action="version", version=f"fairaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="run fairness criteria over a CSV")
    d = AuditConfig(data="", schema="")    # the one source of audit defaults
    p.add_argument("--data", required=True, help="input CSV with header")
    p.add_argument("--schema", required=True, help="JSON column config")
    p.add_argument("--criteria", default=",".join(d.criteria),
                   help=f"comma-separated ids ({','.join(SELECTABLE)})")
    p.add_argument("--st-columns", default=None, dest="situation_columns", metavar="ST_COLUMNS",
                   help="comma-separated feature columns for situation_testing")
    p.add_argument("--measure", default=d.measure, choices=list(MEASURE_KINDS))
    p.add_argument("--threshold", type=float, default=d.threshold)
    p.add_argument("--epsilon", type=float, default=d.epsilon)
    p.add_argument("--delta", type=float, default=d.delta)
    p.add_argument("--min-count", type=int, default=d.min_count)
    p.add_argument("--min-neighborhood", type=int, default=d.min_neighborhood)
    p.add_argument("--alpha", type=float, default=d.alpha, help="Laplace smoothing")
    p.add_argument("--soft-measure", default=d.soft_measure, choices=SOFT_MEASURE_KINDS)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--knn", type=int, default=d.k, dest="k", metavar="K")
    group.add_argument("--ball", type=float, default=d.radius, dest="radius", metavar="R")
    p.add_argument("--weights", default=None, help="per-column distance weights, col=w,col=w")
    p.add_argument("--output", default=d.output)
    p.add_argument("--format", default=d.format, choices=["json", "markdown"])
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("generate", help="write a scenario dataset and ground truth")
    p.add_argument("--scenario", required=True, choices=list(SCENARIO_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--params", default=None, help="JSON object of scenario knobs")
    p.add_argument("--output", required=True, help="CSV path; sidecar goes next to it")
    p.add_argument("--truth-output", default=None, dest="truth_output")
    p.add_argument("--schema-out", default=None, dest="schema_out",
                   help="also write a ready audit schema config here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("lipschitz", help="audit a representation map")
    p.add_argument("--data", required=True, help="CSV with x_0..x_{p-1}, m_0..m_{q-1}")
    p.add_argument("--d-original", default="euclidean", choices=list(ORIGINAL_METRICS),
                   dest="d_original")
    p.add_argument("--d-mapped", default="euclidean", choices=list(MAPPED_METRICS),
                   dest="d_mapped")
    p.add_argument("--sampling", default="auto", choices=["auto", "exhaustive", "sampled"])
    p.add_argument("--sample-count", type=int, default=DEFAULT_SAMPLE_COUNT,
                   dest="sample_count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--output", default=None)
    p.add_argument("--format", default="json", choices=["json", "markdown"])
    p.set_defaults(func=_cmd_lipschitz)

    p = sub.add_parser("criteria", help="print the criterion registry")
    p.set_defaults(func=_cmd_criteria)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FairauditError as exc:
        print(f"fairaudit: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"fairaudit: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed criterion (exit 1)
        detail = " ".join(str(exc).split())
        print(f"fairaudit: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
