"""The benchmark tracer's seams must all resolve against the package.

`perfbench/tracer.py` wraps fairaudit functions by name; a refactor that
renames or moves one would otherwise surface only in a traced benchmark
run.  This test reads the seam table without installing the tracer.
"""

import importlib
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
