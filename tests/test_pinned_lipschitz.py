"""Lipschitz CLI report bytes pinned against committed fixtures.

The fixtures under tests/data/pinned_lipschitz_*.json hold the canonical
JSON report of `fairaudit lipschitz` on one small seeded map: four original
columns (one constant) and four-entry probability vectors that contract
every pair except those touching a few planted rows, which are sent to a
corner, plus a block of copied rows that gives coincident and infinite-ratio
pairs.  Each fixture is one (sampling, d_original, d_mapped) case, so the
exhaustive condensed kernel, the sampled pair kernel and the mapped-CSV
loader are all held to their bytes.  Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_pinned_lipschitz.py
"""

from pathlib import Path

import pytest

from fairaudit.cli import main
from fairaudit.rng import CounterRng

DATA = Path(__file__).parent / "data"
CASES = {
    "exhaustive_gower": ["--sampling", "exhaustive", "--d-original", "gower",
                         "--d-mapped", "total_variation"],
    "exhaustive_euclidean": ["--sampling", "exhaustive", "--d-original", "euclidean",
                             "--d-mapped", "euclidean"],
    "sampled_gower": ["--sampling", "sampled", "--seed", "11", "--sample-count", "30000",
                      "--d-original", "gower", "--d-mapped", "total_variation"],
    "sampled_euclidean": ["--sampling", "sampled", "--seed", "11", "--sample-count", "30000",
                          "--d-original", "euclidean", "--d-mapped", "euclidean"],
}


def _map_csv(n=400, seed=4242) -> str:
    rng = CounterRng(seed)
    x = rng.uniforms(n * 4).reshape(n, 4)
    x[:, 2] = 0.25                      # a constant column: Gower scales it to 0
    x[:, 3] = 3.0 * x[:, 3] - 1.0       # a column Gower must rescale
    m = x.copy()
    m[:, 2] = 0.0
    m[:, 3] = (x[:, 3] + 1.0) / 3.0
    m = 0.4 * m / 4.0
    m[:, 2] = 1.0 - m.sum(axis=1)
    planted = rng.integers(n, 6)
    m[planted] = [1.0, 0.0, 0.0, 0.0]
    # rows 0-7 share one original; 0-3 and 4-7 share two different images,
    # so pairs inside a half coincide and pairs across are infinite ratios
    x[1:8] = x[0]
    m[1:4] = m[0]
    m[4:8] = [0.0, 1.0, 0.0, 0.0]
    header = "x_0,x_1,x_2,x_3,m_0,m_1,m_2,m_3"
    rows = [",".join(repr(float(v)) for v in (*x[r], *m[r])) for r in range(n)]
    return "\n".join([header] + rows) + "\n"


def _report(case: str, tmp_path: Path) -> str:
    data = tmp_path / "map.csv"
    data.write_text(_map_csv(), encoding="utf-8")
    out = tmp_path / f"{case}.json"
    main(["lipschitz", "--data", str(data), "--output", str(out)] + CASES[case])
    return out.read_text(encoding="utf-8")


def _fixture(case: str) -> Path:
    return DATA / f"pinned_lipschitz_{case}.json"


@pytest.mark.parametrize("case", sorted(CASES))
def test_lipschitz_report_bytes_pinned(case, tmp_path):
    assert _report(case, tmp_path) == _fixture(case).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            _fixture(case).write_text(_report(case, Path(tmp)), encoding="utf-8")
