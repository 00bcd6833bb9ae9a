"""The benchmark tracer's seams must all resolve against the package.

`perfbench/tracer.py` wraps fairaudit functions by name; a refactor that
renames or moves one, or stops calling it, would otherwise surface only in a
traced benchmark run.  The resolution tests read the seam table without
installing the tracer; the soft-audit tests run perfbench's own audit
process, traced, on small generated inputs.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    return runpy.run_path(str(PERFBENCH / f"{name}.py"))


SEAMS = _load("tracer")["SEAMS"]


@pytest.mark.parametrize("seam", SEAMS, ids=lambda seam: f"{seam[0]}:{seam[2]}")
def test_tracer_seam_resolves(seam):
    name, module_name, attr, cls_name, _aggregate, _work = seam
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"seam {name}: {cls_name}.{attr} is not defined on the class"
    assert callable(getattr(owner, attr)), f"seam {name}: {module_name}.{attr} not found"


def test_workload_seams_are_tracer_seams():
    names = {seam[0] for seam in SEAMS}
    for workload, spec in _load("workloads")["WORKLOADS"].items():
        assert set(spec["seams"]) <= names, workload


# all-numeric inputs take the KD-tree engine, and mixed kinds force the linear
# scan
@pytest.mark.parametrize("workload, n", [("soft_knn", 1224),
                                         ("soft_mixed", 600)])
def test_soft_audit_calls_its_workload_seams(workload, n, tmp_path):
    spec = _load("workloads")["WORKLOADS"][workload]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    generate = (f"import sys; sys.path.insert(0, {str(PERFBENCH)!r})\n"
                "from pathlib import Path\nimport numpy as np\n"
                "from gen import planted_cluster\nfrom workloads import WORKLOADS\n"
                f"planted_cluster(dict(WORKLOADS[{workload!r}], n={n}), "
                f"np.random.default_rng(1), Path({str(tmp_path)!r}))\n")
    subprocess.run([sys.executable, "-c", generate], check=True, env=env)
    job = {"kind": "audit", "src": str(ROOT / "src"), "trace": True, "run_id": workload,
           "data": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json"),
           "criteria": list(spec["criteria"]), "k": spec["k"], "weights": spec["weights"],
           "report": str(tmp_path / "report.json"), "result": str(tmp_path / "result.json")}
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "audit.py"), str(job_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1), proc.stderr    # 1: an audit failed, as planted
    stats = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))["trace"]["stats"]
    uncalled = [seam for seam in spec["seams"] if stats.get(seam, {}).get("calls", 0) == 0]
    assert not uncalled, f"{workload} seams never called: {uncalled}"
