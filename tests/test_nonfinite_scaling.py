"""Gower scaling refuses a column whose range has no finite span.

A numeric column holding 1e308 and -1e308 is finite, but its span overflows
float64, and a NaN that reaches a column through the API has no span at
all; scaled, either would turn distances into NaN.  The audits that once
looped or misreported on such input run in a subprocess with a timeout, so
a regression fails the suite instead of stalling it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairaudit.distance import min_max_scale
from fairaudit.errors import DegenerateInput

ROOT = Path(__file__).resolve().parent.parent
_TIMEOUT = 60
_EXTREMES = [1e308, -1e308] + [float(i) for i in range(38)]     # 40 records


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=_TIMEOUT)


def test_finite_ranges_keep_their_bits_and_overflowing_ones_are_refused():
    rng = np.random.default_rng(3)
    for x in (rng.normal(size=50) * 1e300, rng.random(50), np.full(5, 7.0)):
        lo, span = x.min(), x.max() - x.min()
        assert np.array_equal(min_max_scale(x), (x - lo) / (span if span > 0 else 1.0))
    rows = np.stack([rng.random(20), np.resize(_EXTREMES, 20), rng.random(20)])
    for x, axis, names, column in ((np.array(_EXTREMES), 0, ["feature 'x'"], "feature 'x'"),
                                   (np.array([0.0, np.nan, 1.0]), 0, None, "a numeric column"),
                                   (np.array([0.0, np.inf]), 0, None, "a numeric column"),
                                   (rows, 1, ["c0", "c1", "c2"], "c1")):
        with pytest.raises(DegenerateInput, match=f"^{column} ranges from"):
            min_max_scale(x, axis=axis, names=names)


def test_cli_audits_of_an_overflowing_range_exit_2(tmp_path):
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, (3, len(_EXTREMES)))
    data = tmp_path / "extremes.csv"
    data.write_text("s,y,yhat,x\n" + "".join(f"{s},{y},{yh},{x!r}\n" for s, y, yh, x
                                             in zip(*labels, _EXTREMES)), encoding="utf-8")
    schema = tmp_path / "extremes.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "s", "role": "sensitive", "kind": "categorical"},
        {"name": "y", "role": "target", "kind": "categorical"},
        {"name": "yhat", "role": "prediction", "kind": "categorical"},
        {"name": "x", "role": "feature", "kind": "numeric"}]}), encoding="utf-8")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("x_0,m_0\n" + "".join(f"{x!r},{i}\n" for i, x in enumerate(_EXTREMES)),
                     encoding="utf-8")
    audit = ["-m", "fairaudit.cli", "audit", "--data", str(data), "--schema", str(schema),
             "--criteria", "isp", "--output", str(tmp_path / "report.json")]
    lipschitz = ["-m", "fairaudit.cli", "lipschitz", "--data", str(pairs), "--d-original",
                 "gower", "--output", str(tmp_path / "lipschitz.json")]
    for args, column in ((audit + ["--knn", "5"], "feature 'x'"),
                         (audit + ["--ball", "0.5"], "feature 'x'"),
                         (lipschitz, "original column 0")):
        proc = _run(args)
        assert proc.returncode == 2, proc.stderr
        assert f"{column} ranges from -1e+308 to 1e+308" in proc.stderr


_NAN_SOFT_AUDIT = """
import numpy as np
from fairaudit.criteria import get_criterion
from fairaudit.dataset import Column, Dataset, Provenance
from fairaudit.errors import DegenerateInput
from fairaudit.neighborhood import NeighborhoodSpec, soft_evaluate

n = 40
rng = np.random.default_rng(1)
labels = [Column(name, "categorical", codes=rng.integers(0, 2, n), categories=("0", "1"))
          for name in ("s", "y", "yhat")]
x = rng.random(n)
x[3] = np.nan
ds = Dataset(*labels, (Column("x", "numeric", values=x),), None,
             Provenance("nan", "error", None, 0))
for nspec in (NeighborhoodSpec("knn", k=5), NeighborhoodSpec("ball", radius=0.5)):
    try:
        soft_evaluate(ds, get_criterion("isp"), nspec)
    except DegenerateInput as exc:
        print(exc)
    else:
        raise SystemExit("soft_evaluate accepted a NaN feature value")
"""


def test_soft_evaluate_refuses_a_nan_feature_built_through_the_api():
    proc = _run(["-c", _NAN_SOFT_AUDIT])
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == ["feature 'x' ranges from nan to nan: its span is not "
                                        "a finite float64, so it cannot be scaled"] * 2
