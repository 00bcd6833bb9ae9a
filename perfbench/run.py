"""fairaudit benchmark: fresh audit processes on seeded inputs, checked against
ground truth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the audit processes import
fairaudit from its `src/`. One run generates the workload's inputs from the
seed, compiles the sources, then starts audit processes one after another
(closed loop, one client) until S seconds have passed and at least
MIN_SAMPLES have been timed. Every audit's output is checked.

--trace 0 prints the end-to-end metrics, each the median over the timed
processes. --trace 1 first makes one traced audit (layer seams wrapped from
the benchmark's own files, see tracer.py), then the same untimed loop, and
prints the per-layer metrics. The last stdout line is the JSON result; the
lines before it are a readable table and the run's record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_audit, check_lipschitz
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_SAMPLES = 3
RUN_LIMIT_S = 150          # start no audit after this
DEADLINE_S = 170           # kill any child still running then, to exit within 180 s
MIN_COVERAGE = 0.9

# single-threaded native libraries: on a small shared machine the numbers
# should measure the program, not the scheduler
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("audit_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(job: dict, work: Path, tag: str, timeout: int) -> dict:
    """Start one audit process, wait for it, and measure it from outside."""
    job = dict(job, result=str(work / f"{tag}.result.json"))
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    err_path = work / f"{tag}.stderr"
    with open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "audit.py"), str(job_path)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=CHILD_ENV, cwd=ROOT)
        try:
            signal.alarm(timeout)
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, ChildTimeout):
                return {"errors": [f"audit process still running after {timeout} s"]}
            raise
        finally:
            signal.alarm(0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1):
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        return {"errors": [f"audit process exited {code}: " + " | ".join(tail)]}
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    return {
        "errors": [],
        "exit_code": code,
        "wall_s": ended - started,
        "setup_s": result["t_loaded"] - started,
        "audit_s": result["t_done"] - result["t_loaded"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "import_s": result["import_s"],
        "versions": result["versions"],
        "trace": result["trace"],
    }


def check(spec: dict, job: dict, sample: dict, truth: dict) -> None:
    """Run the workload's correctness checks; failures land in sample['errors']."""
    if sample["errors"]:
        return
    if spec["kind"] == "audit":
        errors, info = check_audit(Path(job["report"]), truth, job["criteria"],
                                   sample["exit_code"])
    else:
        errors, info = check_lipschitz(job["parts"], truth, sample["exit_code"])
    sample["errors"] = errors
    sample["info"] = info


def make_job(name: str, spec: dict, seed: int, inputs: Path, work: Path, trace: bool) -> dict:
    job = {"kind": spec["kind"], "src": str(SRC), "trace": trace,
           "run_id": f"{name}-{seed}-{os.getpid()}"}
    if spec["kind"] == "audit":
        job.update(data=str(inputs / "data.csv"), schema=str(inputs / "schema.json"),
                   criteria=list(spec["criteria"]), k=spec["k"], weights=spec["weights"],
                   report=str(work / "report.json"))
    else:
        job.update(seed=seed, sample_count=spec["sample_count"], parts=[
            {"mode": mode, "data": str(inputs / file), "report": str(work / f"{mode}.json")}
            for mode, file in (("exhaustive", "small.csv"), ("sampled", "large.csv"))
        ])
    return job


def tail_note(count: int) -> str:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if count * (100 - p) / 100 >= 10:
            return f"p{p}"
    return "none: fewer than 20 samples, median only"


def layer_metrics(spec: dict, traced: dict, untraced: list[dict]) -> dict:
    stats = traced["trace"]["stats"]

    def self_s(name):
        return stats[name]["self"]

    strata = stats["tables.stratified_contingency"]["work"]
    tables_self = sum(self_s(n) for n in ("tables.stratified_contingency",
                                          "tables.contingency", "tables.normalize"))
    records = stats["neighborhood.query"]["work"]
    evaluated = stats["distance.pair_distances"]["work"] + stats["distance.block_distances"]["work"]
    load = stats["dataset.load_dataset"]["time"]
    audit_map = stats["lipschitz.audit_map"]
    untraced_audit = statistics.median(s["audit_s"] for s in untraced)
    audit_cover = sum(st["self"] for name, st in stats.items()
                      if name not in ("dataset.load_dataset", "lipschitz.load_mapped_csv"))

    def timing(cid):
        values = [s["info"].get("timing", {}).get(cid, 0.0) for s in untraced]
        return statistics.median(values)

    m = {
        "process.import_s": (traced["import_s"], "s"),
        "dataset.load_dataset.self_s": (self_s("dataset.load_dataset"), "s"),
        "dataset.rows_per_s": (spec["n"] / load if load else 0.0, "1/s"),
        "lipschitz.load_mapped_csv.self_s": (self_s("lipschitz.load_mapped_csv"), "s"),
        "dataset.stratify.self_s": (self_s("dataset.stratify"), "s"),
        "dataset.stratify.calls": (stats["dataset.stratify"]["calls"], "count"),
        "tables.stratified_contingency.self_s": (self_s("tables.stratified_contingency"), "s"),
        "tables.strata": (strata, "count"),
        "tables.us_per_stratum": (1e6 * tables_self / strata if strata else 0.0, "us"),
        "measures.self_s": (self_s("measures"), "s"),
        "measures.calls": (stats["measures"]["calls"], "count"),
        "measures.us_per_stratum": (1e6 * self_s("measures") / strata if strata else 0.0, "us"),
        "criteria.evaluate.calls": (stats["criteria.evaluate"]["calls"], "count"),
        "criteria.evaluate.self_s": (self_s("criteria.evaluate"), "s"),
    }
    for cid in ("sp", "eo", "suff", "isp", "ieo", "isuff", "ftu"):
        m[f"report.timing.{cid}_s"] = (timing(cid), "s")
    m.update({
        "distance.feature_space.self_s": (self_s("distance.feature_space"), "s"),
        "distance.pair_distances.calls": (stats["distance.pair_distances"]["calls"], "count"),
        "distance.pair_distances.pairs": (stats["distance.pair_distances"]["work"], "count"),
        "distance.pair_distances.self_s": (self_s("distance.pair_distances"), "s"),
        "distance.block_distances.calls": (stats["distance.block_distances"]["calls"], "count"),
        "distance.block_distances.cells": (stats["distance.block_distances"]["work"], "count"),
        "distance.block_distances.self_s": (self_s("distance.block_distances"), "s"),
        "neighborhood.build_index.calls": (stats["neighborhood.build_index"]["calls"], "count"),
        "neighborhood.build_index.self_s": (self_s("neighborhood.build_index"), "s"),
        "neighborhood.query.records": (records, "count"),
        "neighborhood.query.self_s": (self_s("neighborhood.query"), "s"),
        "neighborhood.candidates_per_member": (
            evaluated / (spec["k"] * records) if records else 0.0, "ratio"),
        "neighborhood.soft_evaluate.self_s": (self_s("neighborhood.soft_evaluate"), "s"),
        "distance.gower_matrix_condensed.self_s": (self_s("distance.gower_matrix_condensed"), "s"),
        "lipschitz.audit_map.self_s": (audit_map["self"], "s"),
        "lipschitz.pairs_per_s": (
            audit_map["work"] / audit_map["time"] if audit_map["time"] else 0.0, "1/s"),
        "report.run_audit.self_s": (self_s("report.run_audit"), "s"),
        "report.render.self_s": (self_s("report.render"), "s"),
        "report.bytes": (stats["report.render"]["work"], "count"),
        "trace.coverage": (audit_cover / traced["audit_s"], "ratio"),
        "trace.overhead": (traced["audit_s"] / untraced_audit, "ratio"),
    })
    return m


def trace_errors(spec: dict, traced: dict, metrics: dict) -> list[str]:
    stats = traced["trace"]["stats"]
    errors = [f"seam {seam} was never called" for seam in spec["seams"]
              if stats[seam]["calls"] == 0]
    coverage = metrics["trace.coverage"][0]
    if coverage < MIN_COVERAGE:
        errors.append(f"layer self times cover {coverage:.3f} of traced audit_s, "
                      f"below {MIN_COVERAGE}")
    return errors


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in declared["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairaudit" / "__init__.py").is_file():
        print(f"perfbench: no fairaudit sources under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    # a terminated run still stops its audit process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.monotonic()

    def time_left() -> int:
        return max(1, int(DEADLINE_S - (time.monotonic() - began)))

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    attempts = []
    try:
        inputs = work / "input"
        subprocess.run([sys.executable, str(BENCH / "gen.py"), args.workload,
                        str(args.seed), str(inputs)], check=True, env=CHILD_ENV,
                       timeout=time_left())
        truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))

        def attempt(tag: str, trace: bool) -> dict:
            job = make_job(args.workload, spec, args.seed, inputs, work, trace)
            sample = run_child(job, work, tag, time_left())
            check(spec, job, sample, truth)
            attempts.append(sample)
            for error in sample["errors"]:
                print(f"FAILED {tag}: {error}", file=sys.stderr)
            return sample

        # compile the sources once, so no timed audit pays for bytecode
        subprocess.run([sys.executable, "-c", "import fairaudit"], check=True,
                       env=dict(CHILD_ENV, PYTHONPATH=str(SRC)), timeout=time_left())
        traced = attempt("traced", trace=True) if args.trace else None
        timed = []
        loop_start = time.monotonic()
        for i in itertools.count():
            now = time.monotonic()
            if (i >= MIN_SAMPLES and now - loop_start >= args.seconds) \
                    or now - began >= RUN_LIMIT_S:
                break
            sample = attempt(f"run{i}", trace=False)
            if not sample["errors"]:
                timed.append(sample)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    failed = sum(1 for s in attempts if s["errors"])
    if not timed or (traced is not None and traced["errors"]):
        print("perfbench: no successful audit to report", file=sys.stderr)
        return 1

    if args.trace:
        layer = layer_metrics(spec, traced, timed)
        errors = trace_errors(spec, traced, layer)
        for error in errors:
            print(f"FAILED trace: {error}", file=sys.stderr)
        if errors:
            return 1
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": statistics.median(s[name] for s in timed), "unit": unit}
                   for name, unit in END_TO_END}
    if [(name, m["unit"]) for name, m in metrics.items()] != declared_metrics(bool(args.trace)):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    first = next(s for s in attempts if not s["errors"])
    record = {
        "workload": args.workload, "why": spec["why"], "seed": args.seed,
        "n": spec.get("n", {"exhaustive": spec.get("n_exhaustive"),
                            "sampled": spec.get("n_sampled")}),
        "k": spec["k"], "checks": first["info"],
        "samples": len(timed), "tail_percentile": tail_note(len(timed)),
        "run_seconds": args.seconds, "nproc": os.cpu_count(), **first["versions"],
        "commit": commit(),
        "per_sample": {name: [s[name] for s in timed] for name, _ in END_TO_END},
    }
    if traced is not None:
        record["trace"] = dict(traced["trace"], traced_audit_s=traced["audit_s"])
    print(f"workload {args.workload}  seed {args.seed}  {len(timed)} timed audits, "
          f"{len(attempts)} attempted, {failed} failed; tail percentile: {record['tail_percentile']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
