"""Exact-mode report bytes pinned against committed fixtures.

The fixtures under tests/data/pinned_report_*.json hold canonical JSON
reports (the run-dependent `timing` block removed) of one small seeded
all-categorical dataset: three-way sensitive attribute and prediction, so
isp's per-stratum tables are 3 x 3 and some strata have empty rows or
columns, plus dropped strata below min_count.  The same reports are written
in row chunks of every edge size, and a wide one under tracemalloc, so the
chunked writer is held to the pinned bytes and to a bounded peak.
Regenerate the fixtures only for an intended output change:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

import gc
import io
import json
import os
import re
import stat
import threading
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import fairaudit.report as report_module
from fairaudit.cli import main
from fairaudit.dataset import ColumnSchema, load_dataset
from fairaudit.measures import StratumValues
from fairaudit.report import AuditConfig, _StratumRows, canonical_json, render, run_audit
from fairaudit.rng import CounterRng

DATA = Path(__file__).parent / "data"
CRITERIA = ["sp", "eo", "suff", "isp", "ieo", "isuff", "ftu", "situation_testing"]
MEASURES = {"mi": 0.0, "ber": 0.5, "chi2": 0.0}   # measure -> Laplace alpha
P_VALUE_TOL = 1e-10


SCHEMA = [
    ColumnSchema("s", "sensitive", "categorical"),
    ColumnSchema("y", "target", "categorical"),
    ColumnSchema("yhat", "prediction", "categorical"),
] + [ColumnSchema(f"x{i}", "feature", "categorical") for i in range(3)]


def _csv(n=900, seed=20260, arities=(5, 4, 3)) -> str:
    rng = CounterRng(seed)
    s = rng.categorical([0.5, 0.35, 0.15], n)
    y = rng.integers(2, n)
    x = [rng.integers(arity, n) for arity in arities]
    # the prediction leans on s in odd feature cells only
    lean = ((x[0] + x[1]) % 2) * (s == 2)
    u = rng.uniforms(n)
    yhat = (u < 0.25 + 0.2 * y + 0.3 * lean).astype(int) + (u < 0.1 * x[2]).astype(int)
    rows = ["s,y,yhat,x0,x1,x2"] + [",".join(str(int(c[r])) for c in (s, y, yhat, *x))
                                    for r in range(n)]
    return "\n".join(rows) + "\n"


def _dataset(**kwargs):
    return load_dataset(io.BytesIO(_csv(**kwargs).encode()), SCHEMA)


def _full_report(measure: str):
    config = AuditConfig(data="pinned.csv", schema="pinned_schema.json", criteria=CRITERIA,
                         situation_columns=["x0", "x2"], measure=measure,
                         alpha=MEASURES[measure])
    return run_audit(config, dataset=_dataset())


def _report(measure: str) -> str:
    doc = _full_report(measure).to_dict()
    del doc["timing"]
    return canonical_json(doc)


def _fixture(measure: str) -> Path:
    return DATA / f"pinned_report_{measure}.json"


def test_mi_report_bytes_pinned():
    assert _report("mi") == _fixture("mi").read_text(encoding="utf-8")


def test_ber_report_bytes_pinned():
    assert _report("ber") == _fixture("ber").read_text(encoding="utf-8")


def _split_p_values(node, found):
    """Copy of a parsed report with every p_value pulled out into `found`."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key == "p_value":
                found.append(value)
            else:
                out[key] = _split_p_values(value, found)
        return out
    if isinstance(node, list):
        return [_split_p_values(v, found) for v in node]
    return node


def test_chi2_report_pinned_up_to_p_value_rounding():
    got_p, want_p = [], []
    got = _split_p_values(json.loads(_report("chi2")), got_p)
    want = _split_p_values(json.loads(_fixture("chi2").read_text(encoding="utf-8")), want_p)
    assert got == want    # statistics, dof, per-stratum rows and verdicts exactly
    assert len(got_p) == len(want_p) > 0
    assert all(abs(g - w) <= P_VALUE_TOL for g, w in zip(got_p, want_p))



@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_render_writes_the_bytes_of_the_plain_document(measure):
    report = _full_report(measure)
    assert render(report, "json") == canonical_json(report.to_dict()).encode("utf-8")
    # ftu shares isp's per-stratum rows
    entries = {entry["id"]: entry for entry in report.results}
    assert entries["ftu"]["per_stratum"] is entries["isp"]["per_stratum"]


def test_isp_and_ftu_write_isp_rows_with_the_pinned_bytes():
    report = _full_report("mi")
    entries = {entry["id"]: entry for entry in report.results}
    rows = entries["isp"]["per_stratum"]
    assert isinstance(rows, _StratumRows) and entries["ftu"]["per_stratum"] is rows
    # the block at the depth a result entry writes it: results list, entry dict
    text = canonical_json([[{"per_stratum": rows}]])
    block = text[text.index('"per_stratum": '):text.rindex("\n    }")] + "\n"
    assert block.count("\n") > len(rows)
    pinned = _fixture("mi").read_text(encoding="utf-8")
    by_id = {part.split('"', 1)[0]: part for part in pinned.split('"id": "')[1:]}
    assert block in by_id["isp"] and block in by_id["ftu"]


def _without_timing(blob: bytes) -> bytes:
    return re.sub(rb',\n  "timing": \{[^}]*\}', b"", blob)


def _head(rows: _StratumRows, k: int) -> _StratumRows:
    """The first k rows of a per-stratum block, as their own block."""
    s = rows.strata
    return _StratumRows(StratumValues(s.kind, s.keys[:k], s.values[:k], s.weights[:k],
                                      {name: col[:k] for name, col in s.aux.items()},
                                      s.vacuous[:k], s.vacuous_aux))


# isp's block has 60 rows and ieo's, the longest, 109
@pytest.mark.parametrize("chunk", [1, 2, 3, 60, 61, 109, 110])
@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_row_chunks_write_the_bytes_of_the_row_dicts(monkeypatch, measure, chunk):
    monkeypatch.setattr(report_module, "_ROWS", chunk)
    report = _full_report(measure)
    blocks = {e["id"]: e["per_stratum"] for e in report.results if "per_stratum" in e}
    assert (len(blocks["isp"]), max(map(len, blocks.values()))) == (60, 109)
    blob = render(report, "json")
    assert blob == canonical_json(report.to_dict()).encode("utf-8")
    if measure != "chi2":   # chi2's p-values are pinned up to rounding
        assert _without_timing(blob) == _fixture(measure).read_bytes()
    # blocks of no rows and of one row, cut from every block of the report
    cut = replace(report, results=[{**entry, "per_stratum": _head(rows, k)}
                                   for entry in report.results if "per_stratum" in entry
                                   for rows in [entry["per_stratum"]] for k in (0, 1)])
    blob = render(cut, "json")
    assert blob == canonical_json(cut.to_dict()).encode("utf-8")
    assert b'"per_stratum": []' in blob


def test_render_peak_stays_near_its_output_and_keeps_only_it():
    # about 5,000 strata per feature-conditioned block, as in the exact benchmark input
    config = AuditConfig(data="wide.csv", schema="wide_schema.json", criteria=CRITERIA[:-1])
    report = run_audit(config, dataset=_dataset(n=50_000, seed=7, arities=(25, 20, 10)))
    entries = {entry["id"]: entry for entry in report.results}
    assert min(len(entries[cid]["per_stratum"]) for cid in ("isp", "ieo", "isuff")) >= 4000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blob = render(report, "json")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * len(blob)
    assert held - before < len(blob) + 64 * 1024


def _cli_inputs(tmp_path, monkeypatch, measure: str) -> list[str]:
    """The pinned inputs as files under the names the fixtures echo; the audit argv."""
    monkeypatch.chdir(tmp_path)
    Path("pinned.csv").write_text(_csv(), encoding="utf-8")
    Path("pinned_schema.json").write_text(canonical_json({"columns": list(map(asdict, SCHEMA))}),
                                          encoding="utf-8")
    return ["audit", "--data", "pinned.csv", "--schema", "pinned_schema.json",
            "--criteria", ",".join(CRITERIA), "--st-columns", "x0,x2",
            "--measure", measure, "--alpha", str(MEASURES[measure])]


@pytest.mark.parametrize("measure", ["mi", "ber"])
def test_cli_writes_the_pinned_bytes_to_stdout_and_to_output(tmp_path, monkeypatch,
                                                             capsysbinary, measure):
    argv = _cli_inputs(tmp_path, monkeypatch, measure)
    pinned = _fixture(measure).read_bytes()
    assert main(argv) == 1
    assert _without_timing(capsysbinary.readouterr().out) == pinned
    assert main(argv + ["--output", "report.json"]) == 1
    assert _without_timing(Path("report.json").read_bytes()) == pinned.replace(
        b'"output": null', b'"output": "report.json"', 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pinned.csv", "pinned_schema.json", "report.json"]


def test_failed_write_keeps_the_old_output(tmp_path, monkeypatch, capsysbinary):
    argv = _cli_inputs(tmp_path, monkeypatch, "mi") + ["--output", "report.json"]
    fmt, calls, written = report_module._fmt_float, [], []

    def counted(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(report_module, "_fmt_float", counted)
    assert main(argv) == 1
    whole = Path("report.json").read_bytes()
    Path("report.json").write_bytes(b"the old report\n")

    total = len(calls)
    calls.clear()

    def fails_midway(x):
        if len(calls) == total // 2:
            written.extend(p.stat().st_size for p in tmp_path.glob(".report.json.*"))
            raise ValueError("non-finite float in report")
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(report_module, "_fmt_float", fails_midway)
    assert main(argv) == 2
    assert 0 < written[0] < len(whole)      # the report was half written when it failed
    assert Path("report.json").read_bytes() == b"the old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pinned.csv", "pinned_schema.json", "report.json"]
    # stdout is streamed: what was written stays written, and the exit status marks it
    capsysbinary.readouterr()
    calls.clear()
    assert main(argv[:-2]) == 2
    assert 0 < len(capsysbinary.readouterr().out) < len(whole)


def _pinned_output(measure: str, output: str) -> bytes:
    return _fixture(measure).read_bytes().replace(
        b'"output": null', b'"output": ' + json.dumps(output).encode(), 1)


def test_output_through_a_symlink_replaces_its_target_and_keeps_the_mode(tmp_path, monkeypatch):
    argv = _cli_inputs(tmp_path, monkeypatch, "mi")
    Path("kept").mkdir()
    target = Path("kept", "report.json")
    target.write_bytes(b"the old report\n")
    target.chmod(0o640)
    Path("report.json").symlink_to(target)
    assert main(argv + ["--output", "report.json"]) == 1
    assert Path("report.json").is_symlink() and Path("report.json").resolve() == target.resolve()
    assert _without_timing(target.read_bytes()) == _pinned_output("mi", "report.json")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in Path("kept").iterdir()) == ["report.json"]


def test_output_to_a_fifo_is_written_through(tmp_path, monkeypatch):
    argv = _cli_inputs(tmp_path, monkeypatch, "mi")
    os.mkfifo("pipe")
    read = []
    reader = threading.Thread(target=lambda: read.append(Path("pipe").read_bytes()), daemon=True)
    reader.start()
    assert main(argv + ["--output", "pipe"]) == 1
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.stat("pipe").st_mode)
    assert _without_timing(read[0]) == _pinned_output("mi", "pipe")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pinned.csv", "pinned_schema.json", "pipe"]


def test_output_in_a_directory_that_takes_no_new_file_is_written_through(tmp_path, monkeypatch):
    argv = _cli_inputs(tmp_path, monkeypatch, "mi")
    Path("report.json").write_bytes(b"the old report\n")
    inode = Path("report.json").stat().st_ino
    access = os.access
    # a superuser may still create files in a read-only directory; access() then says no
    monkeypatch.setattr(os, "access", lambda p, mode: access(p, mode) and (
        Path(p) != tmp_path.resolve() or not mode & os.W_OK))
    tmp_path.chmod(0o555)
    try:
        assert main(argv + ["--output", "report.json"]) == 1
    finally:
        tmp_path.chmod(0o755)
    assert Path("report.json").stat().st_ino == inode
    assert _without_timing(Path("report.json").read_bytes()) == _pinned_output("mi", "report.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pinned.csv", "pinned_schema.json", "report.json"]


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_markdown_does_not_depend_on_the_row_views(measure):
    report = _full_report(measure)
    plain = replace(report, results=report.to_dict()["results"])
    assert render(report, "markdown") == render(plain, "markdown")


if __name__ == "__main__":
    for m in MEASURES:
        _fixture(m).write_text(_report(m), encoding="utf-8")
