"""Seeded input generators with ground truth known by construction.

    python3 perfbench/gen.py WORKLOAD SEED OUTDIR

writes the CSV input(s), the audit schema and a `truth.json` sidecar into
OUTDIR. The same (workload, seed) always gives the same bytes. Nothing here
imports fairaudit: the program under test receives only the CSV and schema,
and generation stays outside every timed region.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    # repr() round-trips every float64 exactly through float()
    cells = [[repr(v) if isinstance(v, float) else str(v) for v in col.tolist()]
             for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _schema(columns: list[tuple[str, str, str]]) -> dict:
    return {"columns": [{"name": n, "role": r, "kind": k} for n, r, k in columns],
            "missing": "error"}


def exact_strata(spec: dict, rng: np.random.Generator, out: Path) -> dict:
    """Group-fair, individually unfair data over three categorical features.

    Within each feature cell the prediction rate differs by S with a sign
    set by the parity of the feature codes. One arity is even, so exactly
    half the cells have each sign and the gaps cancel in aggregate: sp, eo
    and suff hold in the population, while isp, ieo and ftu carry a
    per-cell MI of about 0.08 nats at gap 0.4, far above the 0.01 threshold.
    """
    n, arities, gap = spec["n"], spec["arities"], spec["gap"]
    if not any(a % 2 == 0 for a in arities):
        raise ValueError("one arity must be even for the gaps to cancel exactly")
    s = rng.integers(0, 2, n)
    xs = [rng.integers(0, a, n) for a in arities]
    y = rng.integers(0, 2, n)
    sign = 1 - 2 * (sum(xs) % 2)
    yhat = (rng.random(n) < 0.5 + 0.5 * gap * sign * (2 * s - 1)).astype(np.int64)
    names = [f"f{i}" for i in range(len(arities))]
    _write_csv(out / "data.csv", ["s", "y", "yhat"] + names, [s, y, yhat] + xs)
    schema = _schema([("s", "sensitive", "categorical"), ("y", "target", "categorical"),
                      ("yhat", "prediction", "categorical")]
                     + [(f, "feature", "categorical") for f in names])
    (out / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    # isuff's population CMI is 0 too, but the plug-in bias at a handful of
    # records per stratum makes it fail, so it carries no expected verdict
    return {"expect_pass": {"sp": True, "eo": True, "suff": True,
                            "isp": False, "ieo": False, "ftu": False},
            "n": n, "feature_cells": int(np.prod(arities))}


def planted_cluster(spec: dict, rng: np.random.Generator, out: Path) -> dict:
    """Two uniform numeric features with an S-dependent prediction only inside
    an L1 diamond of area `cluster_fraction` around (0.5, 0.5); optionally one
    independent categorical feature that forces mixed-type distances."""
    n, frac, gap = spec["n"], spec["cluster_fraction"], spec["gap"]
    s = rng.integers(0, 2, n)
    x0 = rng.random(n)
    x1 = rng.random(n)
    y = rng.integers(0, 2, n)
    planted = (np.abs(x0 - 0.5) + np.abs(x1 - 0.5)) <= np.sqrt(frac / 2.0)
    rate = np.where(planted, 0.5 + gap * (s - 0.5), 0.3 + 0.4 * x0)
    yhat = (rng.random(n) < rate).astype(np.int64)
    header = ["s", "y", "yhat", "x0", "x1"]
    cols = [s, y, yhat, x0, x1]
    schema_cols = [("s", "sensitive", "categorical"), ("y", "target", "categorical"),
                   ("yhat", "prediction", "categorical"),
                   ("x0", "feature", "numeric"), ("x1", "feature", "numeric")]
    if spec["categorical_arity"]:
        header.append("c")
        cols.append(rng.integers(0, spec["categorical_arity"], n))
        schema_cols.append(("c", "feature", "categorical"))
    _write_csv(out / "data.csv", header, cols)
    (out / "schema.json").write_text(json.dumps(_schema(schema_cols)), encoding="utf-8")
    return {"expect_pass": {"isp": False, "ftu": False}, "n": n,
            "planted": np.nonzero(planted)[0].tolist()}


def lipschitz_pair(spec: dict, rng: np.random.Generator, out: Path) -> dict:
    """Original vectors in [0,1]^p and a contraction map into probability
    vectors, except for a planted subset mapped to a far corner.

    Unplanted rows map to m = (c*x/p, 1 - c*sum(x)/p), whose total-variation
    distance is at most c times the Gower distance of the originals (each
    column holds an exact 0 and 1, so Gower scaling is the identity). Only
    pairs that touch a planted row can expand. The exhaustive file is the
    first `n_exhaustive` rows of the sampled one.
    """
    n, p, c = spec["n_sampled"], spec["dims"], spec["contraction"]
    small = spec["n_exhaustive"]
    x = rng.random((n, p))
    x[0], x[1] = 0.0, 1.0
    k_small = max(1, int(round(small * spec["planted_fraction"])))
    k_large = max(1, int(round(n * spec["planted_fraction"])))
    planted = np.concatenate([
        2 + rng.choice(small - 2, k_small, replace=False),
        small + rng.choice(n - small, k_large - k_small, replace=False),
    ])
    m = np.empty((n, p + 1))
    m[:, :p] = c * x / p
    m[:, p] = 1.0 - m[:, :p].sum(axis=1)
    m[planted] = 0.0
    m[planted, 0] = 1.0
    header = [f"x_{i}" for i in range(p)] + [f"m_{i}" for i in range(p + 1)]
    cols = [x[:, i] for i in range(p)] + [m[:, i] for i in range(p + 1)]
    _write_csv(out / "large.csv", header, cols)
    _write_csv(out / "small.csv", header, [col[:small] for col in cols])
    planted = np.sort(planted)
    return {
        "exhaustive": {"file": "small.csv", "n": small,
                       "pairs": small * (small - 1) // 2,
                       "planted": planted[planted < small].tolist()},
        "sampled": {"file": "large.csv", "n": n, "pairs": spec["sample_count"],
                    "planted": planted.tolist()},
    }


GENERATORS = {"exact_strata": exact_strata, "soft_knn": planted_cluster,
              "soft_mixed": planted_cluster, "lipschitz": lipschitz_pair}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed & (2**64 - 1), sorted(WORKLOADS).index(workload)])
    truth = GENERATORS[workload](WORKLOADS[workload], rng, out)
    truth.update(workload=workload, seed=seed)
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
