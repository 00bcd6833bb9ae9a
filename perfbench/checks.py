"""Per-run correctness checks against the generator's ground truth.

Each check returns (errors, info): an empty error list means the run's
outputs are correct; info holds the counts the result record keeps.
"""

from __future__ import annotations

import json
from pathlib import Path

MIN_RECALL = 0.80       # planted-cluster bounds of the acceptance suite
MAX_FALSE_RATE = 0.05
WEIGHT_TOL = 1e-9


def _same_as_isp(results: dict) -> bool:
    def body(entry):
        return {k: v for k, v in entry.items() if k not in ("id", "name")}
    return body(results["ftu"]) == body(results["isp"])


def check_audit(report_path: Path, truth: dict, criteria, exit_code: int):
    report = json.loads(report_path.read_text(encoding="utf-8"))
    results = {r["id"]: r for r in report["results"]}
    errors = []
    if sorted(results) != sorted(criteria):
        errors.append(f"report has criteria {sorted(results)}, expected {sorted(criteria)}")
        return errors, {}
    if exit_code != (0 if report["all_passed"] else 1):
        errors.append(f"exit code {exit_code} disagrees with all_passed={report['all_passed']}")
    for cid, expected in truth["expect_pass"].items():
        if results[cid]["passed"] != expected:
            errors.append(f"{cid}: passed={results[cid]['passed']}, ground truth {expected}")
    if not _same_as_isp(results):
        errors.append("ftu differs from isp")

    info = {"strata": {}, "timing": report["timing"]}
    for cid, r in results.items():
        if "per_stratum" in r:
            rows = r["per_stratum"]
            info["strata"][cid] = len(rows)
            total = sum(row["weight"] for row in rows) + r["dropped_mass"]
            if abs(total - 1.0) > WEIGHT_TOL:
                errors.append(f"{cid}: stratum weights + dropped_mass = {total!r}")

    if "planted" in truth:
        planted = set(truth["planted"])
        flagged = set(results["isp"]["flagged_indices"])
        n = truth["n"]
        recall = len(flagged & planted) / len(planted)
        false_rate = len(flagged - planted) / (n - len(planted))
        info.update(recall=recall, false_rate=false_rate, planted=len(planted))
        if recall < MIN_RECALL:
            errors.append(f"isp planted recall {recall:.4f} < {MIN_RECALL}")
        if false_rate > MAX_FALSE_RATE:
            errors.append(f"isp false-flag rate {false_rate:.4f} > {MAX_FALSE_RATE}")
    return errors, info


def check_lipschitz(parts: list[dict], truth: dict, exit_code: int):
    errors = []
    info = {}
    if exit_code != 1:
        errors.append(f"exit code {exit_code}; every planted map must fail (1)")
    for part in parts:
        mode = part["mode"]
        expect = truth[mode]
        doc = json.loads(Path(part["report"]).read_text(encoding="utf-8"))
        planted = set(expect["planted"])
        info[mode] = {"n": expect["n"], "pairs": doc["pairs_examined"],
                      "violations": doc["violation_count"]}
        if doc["sampling"] != mode:
            errors.append(f"{mode}: report says sampling={doc['sampling']}")
        if doc["passed"] or doc["violation_count"] < 1:
            errors.append(f"{mode}: planted expansion not detected")
        if doc["pairs_examined"] != expect["pairs"]:
            errors.append(f"{mode}: pairs_examined {doc['pairs_examined']} != {expect['pairs']}")
        stray = [v for v in doc["violations"] if v["i"] not in planted and v["j"] not in planted]
        if stray:
            errors.append(f"{mode}: {len(stray)} listed violations touch no planted record")
    return errors, info
