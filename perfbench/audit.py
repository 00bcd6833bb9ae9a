"""One audit process, driven through the public API the CLI uses.

    python3 perfbench/audit.py JOB.json

The job names the workload kind, inputs, report path and result path. The
process loads its input (`load_schema_config` + `load_dataset`, or
`load_mapped_csv`), audits it (`run_audit` + `render`, or `audit_map` plus
the CLI's report document) and writes the report, then writes a result file
with monotonic timestamps of those milestones and its own peak resident set.
With "trace" set it wraps the layer seams first and adds the trace.

Exit codes follow the CLI: 0 every check passed, 1 a check failed, 2 error.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_kib() -> int:
    # VmHWM belongs to this process image. getrusage's ru_maxrss does not:
    # a vfork-spawned child inherits its parent's high-water mark.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _audit(fa, job: dict) -> tuple[float, float, bool]:
    schema, threshold, missing = fa.load_schema_config(job["schema"])
    dataset = fa.load_dataset(job["data"], schema, threshold=threshold, missing=missing)
    loaded = time.monotonic()
    config = fa.AuditConfig(data=job["data"], schema=job["schema"],
                            criteria=list(job["criteria"]), k=job["k"] or 50,
                            weights=job["weights"], output=job["report"])
    report = fa.run_audit(config, dataset)
    Path(job["report"]).write_bytes(fa.render(report, "json"))
    return loaded, time.monotonic(), report.all_passed


def _lipschitz_doc(fa, report) -> dict:
    return {
        "schema_version": 1,
        "tool": {"name": "fairaudit", "version": fa.__version__},
        "max_ratio": report.max_ratio,
        "passed": report.passed,
        "violation_count": report.violation_count,
        "infinite_count": report.infinite_count,
        "pairs_examined": report.pairs_examined,
        "skipped_coincident": report.skipped_coincident,
        "sampling": report.sampling,
        "sample_seed": report.sample_seed,
        "tol": report.tol,
        "violations": [
            {"i": v.i, "j": v.j, "d_original": v.d_original, "d_mapped": v.d_mapped,
             "ratio": v.ratio, "infinite": v.infinite}
            for v in report.violations
        ],
    }


def _lipschitz(fa, job: dict) -> tuple[float, float, bool]:
    inputs = [fa.load_mapped_csv(part["data"]) for part in job["parts"]]
    loaded = time.monotonic()
    passed = True
    for (original, mapped), part in zip(inputs, job["parts"]):
        report = fa.audit_map(original, mapped, "gower", "total_variation",
                              sample_count=job["sample_count"], seed=job["seed"])
        blob = fa.canonical_json(_lipschitz_doc(fa, report)).encode("utf-8")
        Path(part["report"]).write_bytes(blob)
        passed &= report.passed
    return loaded, time.monotonic(), passed


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    before = time.perf_counter()
    import fairaudit as fa
    import_s = time.perf_counter() - before
    if src not in Path(fa.__file__).resolve().parents:
        raise ImportError(f"fairaudit imported from {fa.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install
        tracer = Tracer(job["run_id"])
        install(tracer)

    run = _audit if job["kind"] == "audit" else _lipschitz
    loaded, done, passed = run(fa, job)

    import numpy
    import scipy
    result = {
        "t_start": T_START, "t_loaded": loaded, "t_done": done, "import_s": import_s,
        "peak_rss_kib": _peak_rss_kib(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "trace": tracer.to_dict() if tracer else None,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if passed else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
