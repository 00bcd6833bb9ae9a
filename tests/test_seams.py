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


def _assert_workload_seams_called(workload, sizes, tmp_path):
    """Trace one perfbench audit process on the workload's inputs resized by
    `sizes` and require a call of every seam the workload lists.

    The inputs come from perfbench's own generator and the job from its own
    `make_job`, so the test runs what the benchmark runs, only smaller.
    """
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    prepare = (f"import json, sys; sys.path.insert(0, {str(PERFBENCH)!r})\n"
               "from pathlib import Path\nimport numpy as np\n"
               "from gen import GENERATORS\nfrom run import make_job\n"
               "from workloads import WORKLOADS\n"
               f"spec = dict(WORKLOADS[{workload!r}], **{sizes!r})\n"
               f"out = Path({str(tmp_path)!r})\n"
               f"GENERATORS[{workload!r}](spec, np.random.default_rng(1), out)\n"
               f"job = make_job({workload!r}, spec, 1, out, out, True)\n"
               "job['result'] = str(out / 'result.json')\n"
               "(out / 'job.json').write_text(json.dumps(job), encoding='utf-8')\n")
    subprocess.run([sys.executable, "-c", prepare], check=True, env=env)
    proc = subprocess.run([sys.executable, str(PERFBENCH / "audit.py"), str(tmp_path / "job.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1), proc.stderr    # 1: an audit failed, as planted
    stats = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))["trace"]["stats"]
    seams = _load("workloads")["WORKLOADS"][workload]["seams"]
    uncalled = [seam for seam in seams if stats.get(seam, {}).get("calls", 0) == 0]
    assert not uncalled, f"{workload} seams never called: {uncalled}"


# both soft workloads take the strip (grid) engine: two numeric features
# ranked by L1 and confirmed by pair_distances, and mixed kinds ranked by
# block_distances
@pytest.mark.parametrize("workload, n", [("soft_knn", 1224),
                                         ("soft_mixed", 600)])
def test_soft_audit_calls_its_workload_seams(workload, n, tmp_path):
    _assert_workload_seams_called(workload, {"n": n}, tmp_path)


# exact_strata keeps an even arity, and few enough cells that strata survive
# min_count; the lipschitz files lie on either side of the 2,000-row
# exhaustive limit, so both the exhaustive and the sampled scan run
@pytest.mark.parametrize("workload, sizes", [
    ("exact_strata", {"n": 3000, "arities": (4, 3, 2)}),
    ("lipschitz", {"n_exhaustive": 300, "n_sampled": 2500, "sample_count": 5000}),
], ids=["exact_strata", "lipschitz"])
def test_exact_and_lipschitz_audits_call_their_workload_seams(workload, sizes, tmp_path):
    _assert_workload_seams_called(workload, sizes, tmp_path)
