"""Which audits load scipy: only chi2 and KD-trees over three or more coordinates.

Each case runs in a fresh interpreter, since a module once imported stays in
`sys.modules`, and reports the scipy modules loaded by its audits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

_RUN = """
import json, sys
import numpy as np
import fairaudit as fa
from fairaudit.report import AuditConfig

for audit in json.loads(sys.argv[1]):
    if audit.pop("lipschitz", False):
        table = np.loadtxt(audit["data"], delimiter=",", skiprows=1)
        fa.audit_map(table[:, :3], table[:, 3:], "gower", "total_variation",
                     sampling=audit["sampling"], sample_count=500, seed=3)
    else:
        fa.render(fa.run_audit(AuditConfig(**audit)))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _write(path, header, columns):
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _inputs(tmp_path):
    """CSV and schema paths: exact (categorical), 2- and 3-numeric soft, and mapped pairs."""
    rng = np.random.default_rng(5)
    n = 300
    labels = [rng.integers(0, 2, n).tolist() for _ in range(3)]
    files = {}
    for name, kind, p in (("exact", "categorical", 2), ("soft2", "numeric", 2),
                          ("soft3", "numeric", 3)):
        features = [(rng.integers(0, 4, n) if kind == "categorical" else rng.random(n)).tolist()
                    for _ in range(p)]
        header = ["s", "y", "yhat"] + [f"x{j}" for j in range(p)]
        schema = {"columns": [{"name": "s", "role": "sensitive", "kind": "categorical"},
                              {"name": "y", "role": "target", "kind": "categorical"},
                              {"name": "yhat", "role": "prediction", "kind": "categorical"}]
                  + [{"name": h, "role": "feature", "kind": kind} for h in header[3:]]}
        (tmp_path / f"{name}.json").write_text(json.dumps(schema), encoding="utf-8")
        files[name] = dict(data=_write(tmp_path / f"{name}.csv", header, labels + features),
                           schema=str(tmp_path / f"{name}.json"))
    original = rng.random((n, 3))
    mapped = rng.dirichlet(np.ones(2), n)
    files["pairs"] = _write(tmp_path / "pairs.csv", ["x_0", "x_1", "x_2", "m_0", "m_1"],
                            [*original.T.tolist(), *mapped.T.tolist()])
    return files


def _scipy_modules(audits):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RUN, json.dumps(audits)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_mi_two_column_soft_and_lipschitz_audits_load_no_scipy(tmp_path):
    files = _inputs(tmp_path)
    soft = ["isp", "ieo", "isuff", "ftu"]
    audits = [dict(files["exact"], criteria=["sp", "eo", "suff", "isp", "ieo", "isuff", "ftu"],
                   measure="mi"),
              dict(files["soft2"], criteria=soft, k=20),
              dict(files["soft2"], criteria=soft, radius=0.1),
              dict(lipschitz=True, data=files["pairs"], sampling="exhaustive"),
              dict(lipschitz=True, data=files["pairs"], sampling="sampled")]
    assert _scipy_modules(audits) == []


@pytest.mark.parametrize("case", ["chi2", "soft3"])
def test_chi2_and_three_column_soft_audits_load_scipy(tmp_path, case):
    files = _inputs(tmp_path)
    audit = (dict(files["exact"], criteria=["sp", "isp"], measure="chi2") if case == "chi2"
             else dict(files["soft3"], criteria=["isp"], k=20))
    loaded = _scipy_modules([audit])
    assert ("scipy.special" if case == "chi2" else "scipy.spatial") in loaded
