"""Command-line harness.

Subcommands: spectrum, exact, scenario1, scenario2, verify.  Exit codes:
0 success, 1 configuration error, 2 numerical failure or failed verification,
3 missing Peer coefficients when a Peer method is requested.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path

import numpy as np

from .heat_mol import ConfigError, RobinBC, build_system, ones_profile
from .spectrum import from_modal, spectral_values
from .exact_oc import adjoint_exact
from .bench import (
    DEFAULT_DELTAS, ExperimentConfig, benchmark_instance, emit_report, render_csv,
    run_scenario1, run_scenario2,
)
from .integrators import MissingPeerCoefficientsError, NumericalError, get_method
from .oracles import run_verification


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_list(text: str, convert, what: str) -> tuple:
    try:
        return tuple(convert(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise ConfigError(f"expected a comma list of {what}, got {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "integers")


def _parse_deltas(text: str) -> tuple[tuple[int, float], ...]:
    def pair(item):
        idx, _, val = item.partition(":")
        return int(idx), float(val)
    return _parse_list(text, pair, "index:value pairs")


def _write_or_print(text: str, out: str | None):
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    else:
        print(text, end="")


def _run_verify_gate() -> int:
    failures = 0
    for check in run_verification():
        status = "PASS" if check.passed else "FAIL"
        print(f"[verify] {status} {check.name} ({check.detail})")
        failures += 0 if check.passed else 1
    if failures:
        print(f"[verify] {failures} check(s) failed")
        return 2
    print("[verify] all checks passed")
    return 0


def _cmd_spectrum(args) -> int:
    sys_ = build_system(RobinBC(args.beta0, args.beta1), args.m, ones_profile)
    omegas, lambdas, nus = spectral_values(sys_)
    lines = ["k,omega,lambda,nu"]
    for k in range(sys_.m):
        lines.append(f"{k + 1},{omegas[k]:.17g},{lambdas[k]:.17g},{nus[k]:.17g}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_exact(args) -> int:
    deltas = DEFAULT_DELTAS if args.deltas is None else _parse_deltas(args.deltas)
    if not deltas:
        raise ConfigError(f"expected at least one index:value pair, got {args.deltas!r}")
    ExperimentConfig(m_values=(args.m,), beta0=args.beta0, beta1=args.beta1, T=args.T,
                     alpha=args.alpha, deltas=deltas).validate()
    times = (np.linspace(0.0, args.T, 11) if args.times is None
             else np.array(_parse_list(args.times, float, "numbers")))
    if times.size == 0:
        raise ConfigError(f"expected at least one control sample time, got {args.times!r}")
    if not np.isfinite(times).all():
        raise ConfigError("control sample times must be finite")
    if ((times < 0.0) | (times > args.T)).any():
        raise ConfigError(f"control sample times must lie in [0, {args.T:g}]")
    prob, sol = benchmark_instance(args.m, args.beta0, args.beta1, args.T, args.alpha,
                                   deltas)
    if args.verify:
        code = _run_verify_gate()
        if code:
            return code
    y_T = from_modal(prob.dec, sol.eta_T)
    p_0 = adjoint_exact(prob.dec, sol.p_T, 0.0, args.T)
    lines = ["quantity,key,value"]
    for j in range(args.m):
        lines.append(f"yT,{j + 1},{y_T[j]:.17g}")
    for j in range(args.m):
        lines.append(f"p0,{j + 1},{p_0[j]:.17g}")
    for t in times:
        lines.append(f"u,{t:.17g},{sol.control.value(float(t)):.17g}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_scenario(args, runner) -> int:
    cfg = (ExperimentConfig.from_json(args.config) if args.config
           else ExperimentConfig())
    overrides = dict(
        methods=tuple(x for x in args.methods.split(",") if x) if args.methods is not None else None,
        N_values=_parse_int_list(args.N) if args.N is not None else None,
        m_values=_parse_int_list(args.m) if args.m is not None else None,
        out_dir=args.out,
        jobs=args.jobs,
        peer_dir=args.peer_dir,
        verify=args.verify or None,
    )
    if getattr(args, "grad_tol", None) is not None:
        overrides["grad_tol"] = args.grad_tol
    cfg = cfg.with_overrides(**overrides).validate()
    # a missing or malformed Peer file, or an instance that overflows, exits
    # before the gate
    for name in cfg.methods:
        get_method(name, cfg.peer_dir)
    for m in cfg.m_values:
        benchmark_instance(m, cfg.beta0, cfg.beta1, cfg.T, cfg.alpha, cfg.deltas)
    if cfg.verify:
        code = _run_verify_gate()
        if code:
            return code

    def flush_partial(partial):
        if cfg.out_dir:
            emit_report(partial, cfg.out_dir, basename="report_partial")
            print(f"[heatoc] partial report flushed to {cfg.out_dir}", file=_sys.stderr)

    report = runner(cfg, on_partial=flush_partial)
    if cfg.out_dir:
        paths = emit_report(report, cfg.out_dir)
        for fmt, path in paths.items():
            print(f"[heatoc] wrote {fmt}: {path}")
    else:
        print(render_csv(report), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="heatoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="dump (k, omega_k, lambda_k, nu_k) as CSV")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--beta0", type=float, default=1.0)
    p.add_argument("--beta1", type=float, default=0.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("exact", help="emit exact y(T), p(0) and control samples as CSV")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--beta0", type=float, default=1.0)
    p.add_argument("--beta1", type=float, default=0.0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--deltas", default=None, help="comma list of index:value pairs, "
                   "1-based mode indices (default: the benchmark's 1:1/75,2:1/75)")
    p.add_argument("--times", default=None, help="comma list of control sample times")
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true")

    for name in ("scenario1", "scenario2"):
        p = sub.add_parser(name, help=f"run {name} convergence study")
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--methods", default=None, help="comma list, e.g. gauss2,lobatto3")
        p.add_argument("--N", default=None, help="comma list of step counts (powers of two)")
        p.add_argument("--m", default=None, help="comma list of space sizes")
        p.add_argument("--out", default=None, help="output directory for report files")
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--peer-dir", default=None, help="directory with Peer coefficient files")
        p.add_argument("--verify", action="store_true")
        if name == "scenario2":
            p.add_argument("--grad-tol", type=float, default=None)

    sub.add_parser("verify", help="run the desk-scale oracle verification suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "exact":
            return _cmd_exact(args)
        if args.command == "scenario1":
            return _cmd_scenario(args, run_scenario1)
        if args.command == "scenario2":
            return _cmd_scenario(args, run_scenario2)
        if args.command == "verify":
            return _run_verify_gate()
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"[heatoc] config error: {exc}", file=_sys.stderr)
        return 1
    except MissingPeerCoefficientsError as exc:
        print(f"[heatoc] missing Peer coefficients: {exc}", file=_sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"[heatoc] numerical failure: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"[heatoc] i/o error: {exc}", file=_sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
