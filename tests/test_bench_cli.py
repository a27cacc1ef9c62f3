import json

import numpy as np
import pytest

from heatoc import (
    ConfigError, ConvergenceReport, ExperimentConfig, ReportRow, emit_report,
    render_csv, render_gnuplot, render_table, run_scenario1, run_scenario2,
)
from heatoc.bench import attach_orders
from heatoc.cli import main


def small_cfg(**kw):
    base = dict(m_values=(8,), N_values=(16, 32, 64), methods=("gauss2",),
                scenario=1)
    base.update(kw)
    return ExperimentConfig(**base)


def data_rows(csv_text: str) -> list[str]:
    return [ln for ln in csv_text.splitlines() if not ln.startswith("#")]


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_attach_orders_blank_for_last_N():
    rows = [ReportRow("m", 8, N, "e", err) for N, err in
            [(16, 1.0), (32, 0.25), (64, 0.0625)]]
    out = attach_orders(rows)
    assert [r.observed_order for r in out] == [pytest.approx(2.0), pytest.approx(2.0), None]


def test_attach_orders_requires_doubling():
    rows = [ReportRow("m", 8, N, "e", err) for N, err in [(16, 1.0), (64, 0.1)]]
    out = attach_orders(rows)
    assert [r.observed_order for r in out] == [None, None]


def test_single_row_report_renders():
    report = ConvergenceReport(rows=attach_orders([ReportRow("gauss2", 8, 16, "e", 0.5)]))
    text = render_csv(report)
    rows = data_rows(text)
    assert rows[0] == "method,m,N,metric,error,observed_order"
    assert rows[1] == "gauss2,8,16,e,0.5,"
    assert len(rows) == 2


def test_emit_report_files(tmp_path):
    report = ConvergenceReport(rows=[ReportRow("gauss2", 8, 16, "e", 0.5)],
                               metadata={"created": "sometime"})
    paths = emit_report(report, tmp_path)
    assert sorted(p.name for p in paths.values()) == ["report.csv", "report.gp", "report.txt"]
    assert "# created=sometime" in paths["csv"].read_text()
    assert "logscale" in paths["plot"].read_text()
    with pytest.raises(ConfigError):
        emit_report(ConvergenceReport(), tmp_path)


def test_gnuplot_contains_inline_data():
    rows = attach_orders([ReportRow("gauss2", 8, 16, "yT_err_inf", 0.5),
                          ReportRow("gauss2", 8, 32, "yT_err_inf", 0.1)])
    text = render_gnuplot(ConvergenceReport(rows=rows))
    assert "$yT_err_inf_gauss2_m8 << EOD" in text
    assert "16 0.5" in text
    assert "plot" in text


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_json_round_trip(tmp_path):
    cfg = small_cfg(methods=("gauss2", "lobatto3"), jobs=2)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.canonical_json())
    loaded = ExperimentConfig.from_json(path)
    assert loaded == cfg
    assert loaded.config_hash() == cfg.config_hash()


def test_config_overrides():
    cfg = small_cfg().with_overrides(methods=("lobatto3",), jobs=None)
    assert cfg.methods == ("lobatto3",)
    assert cfg.jobs == 1   # None means "keep"


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_cfg(methods=()).validate()
    with pytest.raises(ConfigError):
        small_cfg(N_values=(16, 24)).validate()
    with pytest.raises(ConfigError):
        small_cfg(N_values=(32, 16)).validate()
    with pytest.raises(ConfigError):
        small_cfg(m_values=(1,)).validate()
    with pytest.raises(ConfigError):
        small_cfg(scenario=3).validate()
    for bad in (dict(deltas=((9, 0.1),)), dict(deltas=((1, 0.1), (1, 0.2))),
                dict(T=float("nan")), dict(alpha=0.0), dict(beta0=-1.0)):
        with pytest.raises(ConfigError):
            small_cfg(**bad).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"mvalues": [8]})


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def test_scenario1_toy_peer_orders():
    cfg = small_cfg(methods=("peer_toy2",), N_values=(32, 64, 128, 256))
    report = run_scenario1(cfg)
    state = [r for r in report.rows if r.metric == "yT_err_inf"]
    errs = [r.error for r in sorted(state, key=lambda r: r.N)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    last_order = sorted(state, key=lambda r: r.N)[-2].observed_order
    assert last_order == pytest.approx(2.0, abs=0.4)


def test_scenario1_cardinality_and_row_shape():
    cfg = small_cfg(methods=("gauss2", "lobatto3"), m_values=(4, 8))
    report = run_scenario1(cfg)
    assert len(report.rows) == 2 * 2 * 3 * 2   # methods x m x N x metrics
    for r in report.rows:
        assert r.metric in ("yT_err_inf", "p0_err_inf")
        assert np.isfinite(r.error)


def test_scenario1_single_step_count_has_empty_order_column():
    report = run_scenario1(small_cfg(N_values=(16,)))
    assert len(report.rows) == 2
    assert all(r.observed_order is None for r in report.rows)


def test_scenario1_deterministic_data_rows():
    cfg = small_cfg()
    a = render_csv(run_scenario1(cfg))
    b = render_csv(run_scenario1(cfg))
    assert data_rows(a) == data_rows(b)


def test_scenario1_parallel_jobs_match_serial():
    cfg = small_cfg()
    serial = render_csv(run_scenario1(cfg))
    parallel = render_csv(run_scenario1(small_cfg(jobs=2)))
    assert data_rows(serial) == data_rows(parallel)


@pytest.mark.parametrize("scenario,runner,rows_per_cell", [
    (1, run_scenario1, 2), (2, run_scenario2, 1)], ids=["scenario1", "scenario2"])
def test_partial_flush_on_failure(monkeypatch, scenario, runner, rows_per_cell):
    import heatoc.bench as bench
    calls = {"n": 0}
    cell_name = f"_scenario{scenario}_cell"
    orig = getattr(bench, cell_name)

    def failing(args):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("synthetic failure")
        return orig(args)

    monkeypatch.setattr(bench, cell_name, failing)
    partials = []
    with pytest.raises(RuntimeError):
        runner(small_cfg(scenario=scenario), on_partial=partials.append)
    assert len(partials) == 1
    assert partials[0].metadata["incomplete"] == "true"
    assert len(partials[0].rows) == 2 * rows_per_cell


def test_scenario2_small_run_marks_convergence():
    cfg = small_cfg(scenario=2, N_values=(8, 16), methods=("gauss2",),
                    grad_tol=1e-9, algorithm="cg", m_values=(4,))
    report = run_scenario2(cfg)
    assert all(r.metric == "u_nodes_err_inf" for r in report.rows)
    assert "non_converged" not in report.metadata
    errs = sorted(report.rows, key=lambda r: r.N)
    assert errs[1].error < errs[0].error


def test_scenario2_nonconverged_excluded_from_orders():
    cfg = small_cfg(scenario=2, N_values=(8, 16), methods=("gauss2",),
                    grad_tol=1e-16, max_iterations=1, m_values=(4,))
    report = run_scenario2(cfg)
    assert "non_converged" in report.metadata
    assert all(r.observed_order is None for r in report.rows)


def test_missing_peer_fails_fast():
    from heatoc import MissingPeerCoefficientsError
    with pytest.raises(MissingPeerCoefficientsError):
        run_scenario1(small_cfg(methods=("gauss2", "AP4o43bdf")))


def test_scenario2_huge_penalty_drives_controls_to_zero():
    # degenerate sanity cell: with a dominating penalty the optimal control
    # vanishes and all methods agree
    cfg = small_cfg(scenario=2, N_values=(8,), m_values=(4,), alpha=1e9,
                    methods=("gauss2", "lobatto3", "peer_toy2"),
                    grad_tol=1e-12, algorithm="cg")
    report = run_scenario2(cfg)
    from heatoc import benchmark_instance
    _, sol = benchmark_instance(4, 1.0, 0.0, 1.0, 1e9, cfg.deltas)
    exact_scale = np.abs(sol.control.coefficients).sum()
    for r in report.rows:
        assert r.error < 1e-8
    assert exact_scale < 1e-8


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_spectrum_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--m", "3", "--beta0", "1", "--beta1", "0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,omega,lambda,nu"
    assert len(lines) == 4
    k, omega, lam, nu = lines[1].split(",")
    assert float(omega) == pytest.approx(np.pi / 2)


def test_cli_exact_csv(capsys):
    assert main(["exact", "--m", "3", "--times", "0,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,key,value"
    assert sum(1 for ln in lines if ln.startswith("yT,")) == 3
    assert sum(1 for ln in lines if ln.startswith("p0,")) == 3
    assert sum(1 for ln in lines if ln.startswith("u,")) == 2


def test_cli_scenario1_writes_reports(tmp_path, capsys):
    code = main(["scenario1", "--m", "8", "--N", "16,32", "--methods", "gauss2",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.gp").exists()


def test_cli_exit_codes(capsys):
    assert main(["scenario1", "--m", "8", "--N", "16", "--methods", ""]) == 1
    assert main(["scenario1", "--m", "8", "--N", "24", "--methods", "gauss2"]) == 1
    assert main(["scenario1", "--m", "8", "--N", "16", "--methods", "AP4o43bdf"]) == 3


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m_values": [8], "N_values": [16, 32], "methods": ["gauss2"],
        "scenario": 1}))
    code = main(["scenario1", "--config", str(cfg_path), "--methods", "lobatto3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lobatto3" in out
    assert "gauss2" not in out.replace("# ", "")


def test_cli_rejects_unknown_algorithm_before_any_cell(tmp_path, monkeypatch, capsys):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("heatoc.bench.optimize", no_cell)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m_values": [4], "N_values": [8], "methods": ["gauss2"],
        "scenario": 2, "algorithm": "gd"}))
    assert main(["scenario2", "--config", str(cfg_path)]) == 1
    assert "'gd'" in capsys.readouterr().err
    assert main(["scenario2", "--m", "4", "--N", "8", "--methods", "gauss2",
                 "--algorithm", "gd"]) == 1


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_cli_rejects_bad_optimizer_settings_before_any_work(tmp_path, monkeypatch,
                                                            capsys, verify):
    import heatoc.bench as bench
    import heatoc.cli as cli
    calls = []
    instance = bench.benchmark_instance
    monkeypatch.setattr(bench, "benchmark_instance",
                        lambda *a: calls.append("instance") or instance(*a))
    monkeypatch.setattr(cli, "run_verification", lambda: calls.append("verify") or [])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m_values": [4], "N_values": [8], "methods": ["gauss2"],
        "scenario": 2, "max_iterations": -1}))
    assert main(["scenario2", "--config", str(cfg_path), *verify]) == 1
    assert "max_iterations" in capsys.readouterr().err
    for tol in ("0", "nan"):
        assert main(["scenario2", "--m", "4", "--N", "8", "--methods", "gauss2",
                     "--grad-tol", tol, *verify]) == 1
    assert calls == []


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("argv", [
    ["scenario1", "--m", "4", "--N", "16,x", "--methods", "gauss2"],
    ["scenario2", "--m", "4,y", "--N", "16", "--methods", "gauss2"],
    ["exact", "--deltas", "1:abc"],
    ["exact", "--deltas", "0:0.1"],
    ["exact", "--m", "4", "--deltas", "5:0.1"],
    ["exact", "--deltas", "1:nan"],
    ["exact", "--times", "0,nan"],
    ["exact", "--T", "nan"],
], ids=lambda a: " ".join(a))
def test_cli_rejects_malformed_values_before_any_work(monkeypatch, capsys, argv, verify):
    import heatoc.cli as cli
    calls = []
    monkeypatch.setattr(cli, "run_verification", lambda: calls.append("verify") or [])
    assert main([*argv, *verify]) == 1
    assert "[heatoc] config error:" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("text", ['{"deltas": [[1]]}', '{"m_values": 8}', '{"m_values": [8'])
def test_cli_rejects_malformed_config_file(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["scenario1", "--config", str(cfg_path)]) == 1
    assert "[heatoc] config error: malformed experiment config" in capsys.readouterr().err


def test_cli_scenario2_smoke(capsys):
    code = main(["scenario2", "--m", "4", "--N", "8,16", "--methods", "gauss2",
                 "--grad-tol", "1e-8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "u_nodes_err_inf" in out


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_cli_exact_verify_gate(capsys):
    assert main(["exact", "--m", "3", "--times", "0", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "[verify] all checks passed" in out
    assert "quantity,key,value" in out


def test_cli_verify_failure_maps_to_exit_2(monkeypatch, capsys):
    import heatoc.cli as cli
    from heatoc.oracles import CheckResult
    monkeypatch.setattr(cli, "run_verification",
                        lambda: [CheckResult("synthetic", False, "err=1 tol=0")])
    assert main(["verify"]) == 2
    monkeypatch.setattr(cli, "run_verification",
                        lambda: [CheckResult("synthetic", True, "ok")])
    assert main(["verify"]) == 0
