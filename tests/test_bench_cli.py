import hashlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from heatoc import (
    ConfigError, ConvergenceReport, ExperimentConfig, ReportRow, emit_report,
    get_method, render_csv, render_gnuplot, render_table, run_scenario1, run_scenario2,
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


def test_gnuplot_datablock_names_are_identifiers():
    rows = [ReportRow(method, 4, 16, "p0_err_inf", 0.5)
            for method in ("peer.v2", "a-b", "a_b", "gauss2")]
    lines = render_gnuplot(ConvergenceReport(rows=rows)).splitlines()
    blocks = [ln for ln in lines if ln.startswith("$")]
    assert len(blocks) == 4
    assert all(re.fullmatch(r"\$[A-Za-z0-9_]+ << EOD", ln) for ln in blocks)
    names = [ln.split()[0] for ln in blocks]
    assert len(set(names)) == 4                 # a-b and a_b stay apart
    assert "$p0_err_inf_peer_v2_m4" in names and "$p0_err_inf_gauss2_m4" in names
    plotted = re.findall(r"(\$\S+) using", "\n".join(lines))
    assert sorted(plotted) == sorted(names)


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
    for repeated in (dict(methods=("gauss2", "gauss2")), dict(m_values=(4, 4)),
                     dict(N_values=(4, 4, 8))):
        with pytest.raises(ConfigError):
            small_cfg(**repeated).validate()
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


def test_config_hash_ignores_out_dir_and_jobs():
    # none of out_dir, jobs and verify changes a data row, so one experiment
    # has one hash
    cfg = small_cfg()
    assert cfg.with_overrides(out_dir="a").config_hash() == \
        cfg.with_overrides(out_dir="b").config_hash()
    assert cfg.with_overrides(jobs=1).config_hash() == cfg.with_overrides(jobs=2).config_hash()
    assert cfg.with_overrides(verify=True).config_hash() == cfg.config_hash()
    assert cfg.with_overrides(T=2.0).config_hash() != cfg.config_hash()
    assert '"out_dir": "a"' in cfg.with_overrides(out_dir="a").canonical_json()


def test_integral_json_numbers_hash_like_floats():
    default = ExperimentConfig().config_hash()
    assert ExperimentConfig.from_json({"T": 1}).config_hash() == default
    assert ExperimentConfig.from_json({"T": 1.0}).config_hash() == default
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"T": 10**400})    # no float holds it


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


def test_pool_never_exceeds_the_cell_count(monkeypatch):
    import heatoc.bench as bench
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, argses):
            return map(fn, argses)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    cfg = small_cfg(N_values=(16, 32))
    serial = data_rows(render_csv(run_scenario1(cfg)))
    assert asked == []
    assert data_rows(render_csv(run_scenario1(cfg.with_overrides(jobs=64)))) == serial
    assert asked == [2]


def test_scenario1_cell_holds_no_trajectory():
    # lobatto3, m=500, N=2048: one (N+1) x m trajectory is 8.2 MB, and the
    # sweeps keep only their live states (a 0.7 MB peak)
    import heatoc.bench as bench
    cfg = small_cfg(m_values=(500,), methods=("lobatto3",), N_values=(2048,))
    args = (cfg, get_method("lobatto3"), 500, 2048)
    # the cached instance is not the cell's
    bench.benchmark_instance(500, cfg.beta0, cfg.beta1, cfg.T, cfg.alpha, cfg.deltas)
    tracemalloc.start()
    try:
        bench._scenario1_cell(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2049 * 500 * 8 / 4


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


@pytest.mark.parametrize("runner,scenario", [(run_scenario1, 2), (run_scenario2, 1)],
                         ids=["scenario1", "scenario2"])
def test_each_runner_labels_its_own_study(runner, scenario):
    # the config names the other study; the report must still name the one run
    cfg = small_cfg(scenario=scenario, m_values=(8,), N_values=(4, 8))
    report = runner(cfg)
    run = 3 - scenario
    assert report.metadata["scenario"] == str(run)
    assert f"# scenario={run}\n" in render_csv(report)
    assert report.metadata["config_hash"] == cfg.with_overrides(scenario=run).config_hash()


def test_scenario2_small_run_marks_convergence():
    cfg = small_cfg(scenario=2, N_values=(8, 16), methods=("gauss2",),
                    grad_tol=1e-9, m_values=(4,))
    report = run_scenario2(cfg)
    assert all(r.metric == "u_nodes_err_inf" for r in report.rows)
    assert "non_converged" not in report.metadata
    errs = sorted(report.rows, key=lambda r: r.N)
    assert errs[1].error < errs[0].error


def test_scenario2_data_rows_repeat_and_match_across_jobs():
    kw = dict(scenario=2, m_values=(16,), methods=("gauss2", "lobatto3", "peer_toy2"))
    first = data_rows(render_csv(run_scenario2(small_cfg(**kw))))
    assert len(first) == 1 + 3 * 3          # header, 3 methods x N 16/32/64
    assert data_rows(render_csv(run_scenario2(small_cfg(**kw)))) == first
    assert data_rows(render_csv(run_scenario2(small_cfg(jobs=2, **kw)))) == first


def test_scenario2_nonconverged_excluded_from_orders():
    # no certificate meets 1e-300, so every cell is non-converged
    cfg = small_cfg(scenario=2, N_values=(8, 16), methods=("gauss2",),
                    grad_tol=1e-300, m_values=(4,))
    report = run_scenario2(cfg)
    assert "non_converged" in report.metadata
    assert all(r.observed_order is None for r in report.rows)


def test_missing_peer_fails_fast():
    from heatoc import MissingPeerCoefficientsError
    with pytest.raises(MissingPeerCoefficientsError):
        run_scenario1(small_cfg(methods=("gauss2", "AP4o43bdf")))


def test_scenario1_loads_each_peer_file_once(monkeypatch):
    import heatoc.integrators as integrators
    loads = []
    load = integrators.load_peer_scheme
    monkeypatch.setattr(integrators, "load_peer_scheme",
                        lambda source: loads.append(source) or load(source))
    run_scenario1(small_cfg(methods=("gauss2", "peer_toy2"), N_values=(16, 32, 64)))
    assert len(loads) == 1


def test_scenario2_huge_penalty_drives_controls_to_zero():
    # degenerate sanity cell: with a dominating penalty the optimal control
    # vanishes and all methods agree
    cfg = small_cfg(scenario=2, N_values=(8,), m_values=(4,), alpha=1e9,
                    methods=("gauss2", "lobatto3", "peer_toy2"),
                    grad_tol=1e-12)
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


# sha256 of the `heatoc spectrum --m 250` file, pinned when the command still
# built the whole decomposition
SPECTRUM_M250_SHA256 = {
    (1.0, 0.0): "af63a81dad8a294a7ec482e0bd669b762f1eae6bff3bfa690aaf24175e3e546b",
    (0.0, 1.0): "117b8496b315d6ecde7cdad0dc01bf2efd1d87cc1daca6a592a210e045f083c0",
    (1.0, 1.0): "45b2c7a3d7c35771e72e073e2d43633ccae84cb00df30e4c4f9a2ab4a780fd90",
}


@pytest.mark.parametrize("beta0,beta1", SPECTRUM_M250_SHA256, ids=("dirichlet", "neumann",
                                                                   "robin11"))
def test_cli_spectrum_bytes_are_pinned(tmp_path, beta0, beta1):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--m", "250", "--beta0", str(beta0), "--beta1", str(beta1),
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SPECTRUM_M250_SHA256[beta0, beta1]


def test_cli_spectrum_holds_no_square_array(tmp_path):
    # m = 4000: V would be 128 MB; omega, lambda, nu and the text are O(m)
    tracemalloc.start()
    try:
        assert main(["spectrum", "--m", "4000", "--out", str(tmp_path / "spec.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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
    # the --algorithm flag is gone, so any value is an unknown argument
    for algorithm in ("gd", "cg"):
        assert main(["scenario2", "--m", "4", "--N", "8", "--methods", "gauss2",
                     "--algorithm", algorithm]) == 1


@pytest.fixture
def work_calls(monkeypatch):
    """Records each benchmark instance built and each verify gate run by the CLI."""
    import heatoc.bench as bench
    import heatoc.cli as cli
    calls = []
    instance = bench.benchmark_instance
    for module in (bench, cli):
        monkeypatch.setattr(module, "benchmark_instance",
                            lambda *a: calls.append("instance") or instance(*a))
    monkeypatch.setattr(cli, "run_verification", lambda: calls.append("verify") or [])
    return calls


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_cli_rejects_bad_optimizer_settings_before_any_work(tmp_path, work_calls,
                                                            capsys, verify):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "m_values": [4], "N_values": [8], "methods": ["gauss2"],
        "scenario": 2, "max_iterations": -1}))
    assert main(["scenario2", "--config", str(cfg_path), *verify]) == 1
    assert "max_iterations" in capsys.readouterr().err
    for tol in ("0", "nan"):
        assert main(["scenario2", "--m", "4", "--N", "8", "--methods", "gauss2",
                     "--grad-tol", tol, *verify]) == 1
    assert work_calls == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_spectrum_rejects_nonfinite_robin_coefficients(capsys, value):
    assert main(["spectrum", "--beta0", value]) == 1
    captured = capsys.readouterr()
    assert "Robin coefficients must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_cli_rejects_nonfinite_robin_config_before_any_work(tmp_path, work_calls,
                                                           capsys, verify):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"m_values": [4], "N_values": [8], "methods": ["gauss2"], '
                        '"beta0": NaN}')
    assert main(["scenario1", "--config", str(cfg_path), *verify]) == 1
    assert "finite" in capsys.readouterr().err
    assert work_calls == []


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("argv", [
    ["exact", "--beta0", "nan"],
    ["exact", "--beta1", "inf"],
    ["scenario1", "--m", "4", "--N", "16,x", "--methods", "gauss2"],
    ["scenario2", "--m", "4,y", "--N", "16", "--methods", "gauss2"],
    ["exact", "--deltas", "1:abc"],
    ["exact", "--deltas", "0:0.1"],
    ["exact", "--m", "4", "--deltas", "5:0.1"],
    ["exact", "--deltas", "1:nan"],
    ["exact", "--deltas", ""],
    ["exact", "--deltas", ","],
    ["exact", "--times", "0,nan"],
    ["exact", "--times=-1,0.5"],
    ["exact", "--m", "8", "--times", "0.5,3"],
    ["exact", "--T", "nan"],
    ["exact", "--times", ","],
    ["exact", "--times", ""],
], ids=lambda a: " ".join(a))
def test_cli_rejects_malformed_values_before_any_work(monkeypatch, capsys, argv, verify):
    import heatoc.cli as cli
    calls = []
    monkeypatch.setattr(cli, "run_verification", lambda: calls.append("verify") or [])
    assert main([*argv, *verify]) == 1
    assert "[heatoc] config error:" in capsys.readouterr().err
    assert calls == []


def test_cli_rejects_non_finite_peer_coefficients_before_any_cell(tmp_path, work_calls,
                                                                  capsys):
    from heatoc.integrators import _packaged_peer_dir
    text = (_packaged_peer_dir() / "peer_toy2.json").read_text()
    (tmp_path / "bad.json").write_text(
        text.replace('"peer_toy2"', '"bad"').replace('"7/12"', "NaN"))
    for command in ("scenario1", "scenario2"):
        for verify in ([], ["--verify"]):
            assert main([command, "--m", "4", "--N", "4,8", "--methods", "bad",
                         "--peer-dir", str(tmp_path), *verify]) == 1
            err = capsys.readouterr().err
            assert "[heatoc] config error: Peer scheme bad: R must be finite" in err
    assert work_calls == []


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("command", ["scenario1", "scenario2"])
def test_cli_missing_peer_file_exits_3_before_any_work(work_calls, capsys, command, verify):
    assert main([command, "--m", "4", "--N", "4,8", "--methods", "gauss2,AP4o43bdf",
                 *verify]) == 3
    captured = capsys.readouterr()
    assert "[heatoc] missing Peer coefficients: no coefficient file AP4o43bdf.json" \
        in captured.err
    assert captured.out == ""
    assert work_calls == []


@pytest.mark.parametrize("text", [
    '{"deltas": [[1]]}', '{"m_values": 8}', '{"m_values": [8',
    '{"beta0": "x"}', '{"T": "1"}', '{"jobs": "2"}', '{"alpha": null}',
    '{"m_values": [8.5]}', '{"N_values": ["16"]}',
    '[[1]]', '[{}]', '"abc"', '5', 'null',          # documents that are no JSON object
])
def test_cli_rejects_malformed_config_file(tmp_path, work_calls, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["scenario1", "--config", str(cfg_path), "--verify"]) == 1
    assert "[heatoc] config error: malformed experiment config" in capsys.readouterr().err
    assert work_calls == []


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("argv", [
    ["--m", "4,4", "--N", "4,8", "--methods", "gauss2"],
    ["--m", "4", "--N", "4,4,8", "--methods", "gauss2"],
    ["--m", "4", "--N", "4,8", "--methods", "gauss2,gauss2"],
], ids=lambda a: " ".join(a))
def test_cli_rejects_repeated_grid_entries_before_any_work(work_calls, capsys, argv, verify):
    assert main(["scenario1", *argv, *verify]) == 1
    assert "[heatoc] config error:" in capsys.readouterr().err
    assert work_calls == []


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


def test_cli_verify_prints_the_sampled_psd_ratio(capsys):
    # the detail shows the smallest sampled Rayleigh quotient of Q, which is
    # positive on the verification instance, not a running minimum stuck at 0
    assert main(["verify"]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "Q positive semi-definite" in ln)
    assert float(line.split("min ratio=")[1].rstrip(")")) > 0


def test_cli_verify_failure_maps_to_exit_2(monkeypatch, capsys):
    import heatoc.cli as cli
    from heatoc.oracles import CheckResult
    monkeypatch.setattr(cli, "run_verification",
                        lambda: [CheckResult("synthetic", False, "err=1 tol=0")])
    assert main(["verify"]) == 2
    monkeypatch.setattr(cli, "run_verification",
                        lambda: [CheckResult("synthetic", True, "ok")])
    assert main(["verify"]) == 0


def test_cli_verify_routes_write_one_config_hash(tmp_path, work_calls):
    base = {"m_values": [4], "N_values": [4, 8], "methods": ["gauss2"]}
    hashes, data = set(), set()
    for in_config, flag in ((False, []), (True, []), (False, ["--verify"]),
                            (True, ["--verify"])):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(base, verify=True) if in_config else base))
        out = tmp_path / f"out_{in_config}_{bool(flag)}"
        assert main(["scenario1", "--config", str(cfg_path), "--out", str(out), *flag]) == 0
        text = (out / "report.csv").read_text()
        hashes.add(re.search(r"# config_hash=(\w+)", text).group(1))
        data.add(tuple(data_rows(text)))
    assert len(hashes) == 1 and len(data) == 1
    assert work_calls.count("verify") == 3


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("argv", [
    ["exact", "--m", "4", "--alpha", "1e-320"],
    ["exact", "--m", "4", "--deltas", "1:1e308"],
    ["scenario1", "--config", "{cfg}"],
    ["scenario2", "--config", "{cfg}"],
], ids=lambda a: " ".join(a))
def test_cli_rejects_an_instance_that_overflows_before_the_gate(tmp_path, work_calls,
                                                                capsys, argv, verify):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 1e-320, "m_values": [4], "N_values": [4, 8],
                                    "methods": ["gauss2"]}))
    argv = [a.format(cfg=cfg_path) for a in argv]
    out = tmp_path / "out"
    if argv[0] != "exact":
        argv += ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, *verify]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("[heatoc] config error: the exact solution overflows")
    assert not out.exists()
    assert work_calls == ["instance"]


@pytest.mark.parametrize("command", ["scenario1", "scenario2"])
def test_cli_rejects_a_repeated_config_key(tmp_path, work_calls, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"T": 1, "T": 2, "m_values": [4], "N_values": [4, 8], '
                        '"methods": ["gauss2"]}')
    with pytest.raises(ConfigError, match="repeated key 'T'"):
        ExperimentConfig.from_json(cfg_path)
    assert main([command, "--config", str(cfg_path), "--verify"]) == 1
    assert "repeated key 'T'" in capsys.readouterr().err
    assert work_calls == []


@pytest.mark.parametrize("edit,message", [
    (lambda t: t.replace('"formulation"', '"R": [["1", "0"], ["0", "1"]], "formulation"'),
     "repeated key 'R'"),
    (lambda t: t[:40], "malformed Peer coefficient document"),
    (lambda t: t.replace('"order": 2', '"order": "x"'), "order must be a JSON integer"),
    (lambda t: t.replace('"order": 2', '"order": 2.5'), "order must be a JSON integer"),
    (lambda t: t.replace('"order": 2', '"order": true'), "order must be a JSON integer"),
    (lambda t: t.replace('"s": 2', '"s": 2.7'), "s must be a JSON integer"),
    (lambda t: t.replace('"s": 2', '"s": "2"'), "s must be a JSON integer"),
], ids=["repeated-key", "no-json", "order-str", "order-float", "order-bool", "s-float",
        "s-str"])
def test_cli_rejects_a_malformed_peer_file(tmp_path, work_calls, capsys, edit, message):
    from heatoc.integrators import _packaged_peer_dir
    text = (_packaged_peer_dir() / "peer_toy2.json").read_text()
    (tmp_path / "bad.json").write_text(edit(text.replace('"peer_toy2"', '"bad"')))
    for command in ("scenario1", "scenario2"):
        assert main([command, "--m", "4", "--N", "4,8", "--methods", "bad",
                     "--peer-dir", str(tmp_path), "--verify"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[heatoc] config error:") and message in err
    assert work_calls == []
