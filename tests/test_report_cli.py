import argparse
import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fairaudit.cli import build_parser, criteria_table, main
from fairaudit.report import AuditConfig, canonical_json, parse_report, render, run_audit
from fairaudit.scenarios import ScenarioSpec, generate, schema_config_for
from fairaudit.dataset import load_dataset, load_schema_config, save_csv

FIXTURE = Path(__file__).parent / "data" / "criteria_registry.txt"


def _write_scenario(tmp_path, name, n=5000, seed=7, params=None):
    ds, truth = generate(ScenarioSpec(name, n, seed, params or {}))
    data = tmp_path / f"{name}.csv"
    schema = tmp_path / f"{name}_schema.json"
    save_csv(ds, data)
    schema.write_text(canonical_json(schema_config_for(ds)), encoding="utf-8")
    return str(data), str(schema), truth


def test_canonical_json_floats_have_17_significant_digits():
    blob = canonical_json({"a": 0.05, "b": 1.0, "c": 1e-300, "d": 123})
    assert '"a": 0.050000000000000003' in blob
    assert '"b": 1.0' in blob
    assert '"d": 123' in blob
    parsed = json.loads(blob)
    assert parsed["a"] == 0.05 and parsed["c"] == 1e-300


def test_report_roundtrip(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "independent")
    config = AuditConfig(data=data, schema=schema,
                         criteria=["sp", "eo", "suff", "isp", "ieo", "isuff", "ftu"])
    report = run_audit(config)
    blob = render(report, "json")
    assert parse_report(blob) == json.loads(json.dumps(report.to_dict(), default=float))


def test_report_empty_warnings_serialized(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "independent")
    report = run_audit(AuditConfig(data=data, schema=schema, criteria=["sp"]))
    assert b'"warnings": []' in render(report, "json")


def test_markdown_soft_row_shows_mode_and_thresholds(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "planted_unfair_cluster", n=3000)
    report = run_audit(AuditConfig(data=data, schema=schema, criteria=["isp"]))
    md = render(report, "markdown").decode("utf-8")
    assert "soft mi" in md
    assert "ε=0.05" in md and "δ=0.05" in md


def test_exit_codes(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "independent")
    out = str(tmp_path / "rep.json")
    assert main(["audit", "--data", data, "--schema", schema, "--output", out]) == 0

    data2, schema2, _ = _write_scenario(tmp_path, "direct_discrimination")
    out2 = str(tmp_path / "rep2.json")
    assert main(["audit", "--data", data2, "--schema", schema2,
                 "--criteria", "isp", "--output", out2]) == 1
    rep = json.loads(Path(out2).read_text())
    assert rep["results"][0]["id"] == "isp"
    assert rep["results"][0]["passed"] is False

    assert main(["audit", "--data", data, "--schema", schema, "--criteria", ""]) == 2
    assert main(["audit", "--data", str(tmp_path / "nope.csv"), "--schema", schema]) == 2


def test_unexpected_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    data, schema, _ = _write_scenario(tmp_path, "independent", n=200)

    def crash(config):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("fairaudit.cli.run_audit", crash)
    assert main(["audit", "--data", data, "--schema", schema]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "RuntimeError" in err and "boom" in err


def test_audit_json_determinism(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "proxy_redlining")
    out = tmp_path / "rep.json"
    argv = ["audit", "--data", data, "--schema", schema, "--output", str(out)]
    main(argv)
    first = json.loads(out.read_text())
    main(argv)
    second = json.loads(out.read_text())
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first) == json.dumps(second)


def test_ftu_reuses_the_isp_evaluation(tmp_path, monkeypatch):
    from fairaudit import report as report_module
    from fairaudit.criteria import evaluate, evaluate_ftu, get_criterion

    calls = []
    for name in ("evaluate", "soft_evaluate"):
        real = getattr(report_module, name)
        monkeypatch.setattr(report_module, name, lambda ds, spec, *args, _real=real, **kw:
                            calls.append(spec.id) or _real(ds, spec, *args, **kw))

    data, schema, _ = _write_scenario(tmp_path, "direct_discrimination", n=3000)
    both = run_audit(AuditConfig(data=data, schema=schema, criteria=["ftu", "isp"]))
    assert calls == ["isp"]
    ds = load_dataset(data, load_schema_config(schema)[0])
    separate = [report_module._exact_result_dict(evaluate_ftu(ds)),
                report_module._exact_result_dict(evaluate(ds, get_criterion("isp")))]
    assert canonical_json(both.results) == canonical_json(separate)

    calls.clear()
    data, schema, _ = _write_scenario(tmp_path, "planted_unfair_cluster", n=2000)
    soft = run_audit(AuditConfig(data=data, schema=schema, criteria=["isp", "ftu"]))
    assert calls == ["isp"]
    isp, ftu = soft.results
    assert (ftu["id"], ftu["name"]) == ("ftu", "fairness through unawareness")
    assert {**ftu, "id": "isp", "name": isp["name"]} == isp
    assert [w.split(":")[0] for w in soft.warnings] == ["criterion isp", "criterion ftu"]


def test_timing_is_isolated_per_criterion(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "independent")
    report = run_audit(AuditConfig(data=data, schema=schema, criteria=["sp", "eo"]))
    doc = report.to_dict()
    assert set(doc["timing"]) == {"sp", "eo"}


def test_generate_sidecar_schema(tmp_path):
    out = tmp_path / "data.csv"
    code = main([
        "generate", "--scenario", "planted_unfair_cluster", "--n", "2000",
        "--seed", "5", "--output", str(out),
    ])
    assert code == 0
    sidecar = json.loads((tmp_path / "data.truth.json").read_text())
    assert set(sidecar) == {"scenario", "seed", "verdicts", "planted_indices"}
    assert sidecar["scenario"] == "planted_unfair_cluster"
    assert sidecar["seed"] == 5
    assert len(sidecar["planted_indices"]) > 0
    assert sidecar["verdicts"]["isp"] == "violated"


def test_generate_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(["generate", "--scenario", "suff_holds_eo_fails", "--n", "3000",
              "--seed", "9", "--output", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_lipschitz_cli(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.random((100, 2)).tolist()
    rows = ["x_0,x_1,m_0,m_1"]
    for a, b in x:
        rows.append(f"{a!r},{b!r},{2*a!r},{2*b!r}")
    data = tmp_path / "pairs.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "lip.json"
    code = main(["lipschitz", "--data", str(data), "--output", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["max_ratio"] == 2.0
    assert doc["passed"] is False

    rows = ["x_0,x_1,m_0,m_1"] + [f"{a!r},{b!r},{a!r},{b!r}" for a, b in x]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["lipschitz", "--data", str(data), "--output", str(out)]) == 0


@pytest.mark.parametrize("command", ["audit", "lipschitz"])
def test_a_field_over_the_csv_limit_exits_2_as_a_data_error(tmp_path, capsys, command):
    oversized = "1" * (csv.field_size_limit() + 1)
    if command == "audit":
        data, schema, _ = _write_scenario(tmp_path, "independent", n=300)
        lines = Path(data).read_text().splitlines()
        lines[5] = lines[5].split(",", 1)[0] + "," + oversized
        Path(data).write_text("\n".join(lines) + "\n")
        args = ["audit", "--data", data, "--schema", schema]
    else:
        data = tmp_path / "pairs.csv"
        data.write_text(f"x_0,m_0\n1,2\n3,4\n5,4\n7,4\n1,{oversized}\n")
        args = ["lipschitz", "--data", str(data)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("fairaudit: error: field larger than field limit")
    assert "internal error" not in err and "(line 6)" in err


def test_criteria_subcommand_matches_fixture(capsys):
    assert main(["criteria"]) == 0
    out = capsys.readouterr().out
    assert out == FIXTURE.read_text(encoding="utf-8")
    assert out == criteria_table()


def test_situation_testing_via_cli(tmp_path):
    data, schema, truth = _write_scenario(tmp_path, "illegal_proxy", n=40000)
    out = str(tmp_path / "st.json")
    code = main(["audit", "--data", data, "--schema", schema,
                 "--criteria", "isp,situation_testing",
                 "--st-columns", "x0", "--output", out])
    assert code == 1
    rep = json.loads(Path(out).read_text())
    by_id = {r["id"]: r for r in rep["results"]}
    assert by_id["isp"]["passed"] is True
    assert by_id["situation_testing"]["passed"] is False
    assert by_id["situation_testing"]["condition"] == "Ŷ ⊥ S | x0"


def test_st_columns_accept_spaces_after_commas(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "illegal_proxy", n=3000, seed=1)
    out = tmp_path / "st.json"
    reports = []
    for columns in ("x0,x1", "x0, x1"):
        assert main(["audit", "--data", data, "--schema", schema,
                     "--criteria", "isp, situation_testing",
                     "--st-columns", columns, "--output", str(out)]) in (0, 1)
        rep = json.loads(out.read_text())
        rep.pop("timing")
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["config"]["situation_columns"] == ["x0", "x1"]


def test_bare_audit_command_parses_to_the_config_defaults(monkeypatch):
    seen = []

    def capture(config):
        seen.append(config)
        raise RuntimeError("stop before loading")

    monkeypatch.setattr("fairaudit.cli.run_audit", capture)
    assert main(["audit", "--data", "x.csv", "--schema", "y.json"]) == 2
    assert seen == [AuditConfig(data="x.csv", schema="y.json")]


def _drop_inputs(tmp_path, missing):
    data = tmp_path / "gaps.csv"
    rows = ["s,y,yhat,x"] + [f"{'ab'[i % 2]},{i % 3 % 2},{i % 5 % 2},{'uv'[i % 4 // 2]}"
                             for i in range(40)]
    rows[7] = "a,,1,u"
    rows[12] = "b,1,0,"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    schema = tmp_path / "gaps_schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "s", "role": "sensitive", "kind": "categorical"},
        {"name": "y", "role": "target", "kind": "categorical"},
        {"name": "yhat", "role": "prediction", "kind": "categorical"},
        {"name": "x", "role": "feature", "kind": "categorical"},
    ], "missing": missing}), encoding="utf-8")
    return str(data), str(schema)


def test_drop_mode_audit_reports_its_dropped_rows(tmp_path):
    data, schema = _drop_inputs(tmp_path, "drop")
    out = tmp_path / "rep.json"
    assert main(["audit", "--data", data, "--schema", schema, "--criteria", "sp",
                 "--output", str(out)]) in (0, 1)
    rep = json.loads(out.read_text())
    assert rep["warnings"][0] == "load: dropped 2 rows with missing cells (missing=drop)"
    assert rep["schema_version"] == 1


def test_error_mode_audit_adds_no_load_warning(tmp_path, capsys):
    data, schema = _drop_inputs(tmp_path, "error")
    assert main(["audit", "--data", data, "--schema", schema, "--criteria", "sp"]) == 2
    assert "missing value" in capsys.readouterr().err

    data, schema, _ = _write_scenario(tmp_path, "independent", n=300)
    report = run_audit(AuditConfig(data=data, schema=schema, criteria=["sp", "isp"]))
    assert not [w for w in report.warnings if w.startswith("load:")]


def test_malformed_schema_config_exits_as_a_config_error(tmp_path, capsys):
    data = tmp_path / "num.csv"
    data.write_text("s,y,p\na,0,0.2\nb,1,0.9\na,1,0.7\n", encoding="utf-8")
    columns = [{"name": "s", "role": "sensitive", "kind": "categorical"},
               {"name": "y", "role": "target", "kind": "categorical"},
               {"name": "p", "role": "prediction", "kind": "numeric"}]
    for cfg in ({"columns": columns, "threshold": "0.5"},
                {"columns": columns[:2] + [{"name": "p", "role": "prediction"}],
                 "threshold": 0.5},
                "columns", {"columns": 5}, {"columns": "abc"}):
        schema = tmp_path / "bad_schema.json"
        schema.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["audit", "--data", str(data), "--schema", str(schema)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fairaudit: error:") and "internal" not in err


def test_weights_naming_no_feature_column_exit_2(tmp_path, capsys):
    for scenario in ("independent", "planted_unfair_cluster"):    # exact, then soft
        data, schema, _ = _write_scenario(tmp_path, scenario, n=300)
        assert main(["audit", "--data", data, "--schema", schema, "--criteria", "sp,isp",
                     "--weights", "x0=2,x9=5", "--output", str(tmp_path / "rep.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fairaudit: error:") and "x9" in err and "x0" not in err


def test_a_column_weighted_twice_exits_2_naming_it(tmp_path, capsys):
    data, schema, _ = _write_scenario(tmp_path, "planted_unfair_cluster", n=300)
    out = tmp_path / "rep.json"
    for weights in ("x0=1,x0=5", "x0=1, x0 =1"):
        assert main(["audit", "--data", data, "--schema", schema, "--criteria", "isp",
                     "--weights", weights, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fairaudit: error:") and "'x0' given twice" in err
    assert not out.exists()


def test_weights_are_echoed_in_the_config_block(tmp_path):
    data, schema, _ = _write_scenario(tmp_path, "planted_unfair_cluster", n=300)
    configs = {}
    for weights in ("x0=0.02", "x0=1", None):
        out = tmp_path / "rep.json"
        args = ["audit", "--data", data, "--schema", schema, "--criteria", "isp",
                "--output", str(out)] + (["--weights", weights] if weights else [])
        assert main(args) in (0, 1)
        configs[weights] = json.loads(out.read_text(encoding="utf-8"))["config"]
    assert configs["x0=0.02"]["weights"] == {"x0": 0.02}
    assert configs["x0=1"]["weights"] == {"x0": 1.0}
    assert configs[None]["weights"] is None


@pytest.mark.parametrize("scenario, args, message", [
    ("independent", ["--measure", "mi", "--alpha", "nan"], "alpha"),
    ("independent", ["--measure", "ber", "--alpha", "-1"], "alpha"),
    ("independent", ["--measure", "chi2", "--alpha", "-5"], "alpha"),
    ("independent", ["--criteria", "sp", "--alpha", "inf"], "alpha"),
    ("independent", ["--criteria", "sp", "--min-count", "-3"], "min_count"),
    ("independent", ["--threshold", "inf"], "threshold"),
    ("independent", ["--criteria", "sp", "--threshold", "nan"], "threshold"),
    ("independent", ["--criteria", "st", "--st-columns", "x0", "--threshold", "inf"],
     "threshold"),
    ("planted_unfair_cluster", ["--criteria", "isp", "--epsilon", "nan"], "epsilon"),
    ("planted_unfair_cluster", ["--criteria", "isp", "--epsilon", "inf"], "epsilon"),
    # checked whichever criteria are selected
    ("planted_unfair_cluster", ["--criteria", "isp", "--alpha", "nan", "--threshold", "inf",
                                "--min-count", "-3"], "threshold"),
    ("planted_unfair_cluster", ["--criteria", "isp", "--alpha", "nan"], "alpha"),
    ("planted_unfair_cluster", ["--criteria", "isp", "--min-count", "-3"], "min_count"),
    ("planted_unfair_cluster", ["--criteria", "sp", "--epsilon", "nan"], "epsilon"),
    ("planted_unfair_cluster", ["--criteria", "sp", "--delta", "1"], "delta"),
    ("planted_unfair_cluster", ["--criteria", "sp", "--min-neighborhood", "0"],
     "min_neighborhood"),
    ("planted_unfair_cluster", ["--criteria", "sp", "--knn", "0"], "k >= 1"),
    ("planted_unfair_cluster", ["--criteria", "sp", "--ball", "2"], "radius"),
    ("planted_unfair_cluster", ["--criteria", "sp", "--ball", "nan"], "radius"),
    ("planted_unfair_cluster", ["--criteria", "sp", "--st-columns", "x0"],
     "situation_testing is not selected"),
])
def test_bad_decision_parameters_exit_2_before_a_verdict(tmp_path, capsys, scenario, args,
                                                         message):
    data, schema, _ = _write_scenario(tmp_path, scenario, n=3000)
    assert main(["audit", "--data", data, "--schema", schema, "--format", "markdown",
                 *args]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("fairaudit: error:") and message in captured.err


def test_bad_parameters_fail_before_the_data_is_read(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    for args, message in ((["--criteria", "sp", "--epsilon", "nan"], "epsilon"),
                          (["--criteria", "isp", "--alpha", "-1"], "alpha"),
                          (["--criteria", "st"], "without columns"),
                          (["--criteria", "st", "--st-columns", "x0,x0"], "repeated: x0"),
                          (["--criteria", "st", "--st-columns", "x0,"], "must not be empty"),
                          (["--criteria", "st", "--st-columns", "x0, "], "must not be empty")):
        assert main(["audit", "--data", missing, "--schema", missing, *args]) == 2
        captured = capsys.readouterr()
        assert not captured.out and message in captured.err, captured.err


def test_every_audit_config_field_is_echoed_and_is_an_audit_option():
    names = [f.name for f in fields(AuditConfig)]
    config = AuditConfig(data="d.csv", schema="s.json", situation_columns=["x0"],
                         radius=0.25, weights={"x0": 2.0})
    doc = config.to_dict()
    at = names.index("k")
    assert names[at:at + 2] == ["k", "radius"]
    assert list(doc) == names[:at] + ["neighborhood"] + names[at + 2:]
    assert doc["neighborhood"] == {"mode": "ball", "k": None, "radius": 0.25}
    assert all(doc[name] == getattr(config, name) for name in names if name in doc)
    assert AuditConfig(data="", schema="").to_dict()["neighborhood"] == {
        "mode": "knn", "k": 50, "radius": None}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices["audit"]._actions}
    assert set(names) <= dests
