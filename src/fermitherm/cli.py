"""Command-line surface: entropy/linear tables, SCF runs, sweeps, dynamics.

Exit codes: 0 success, 1 usage error, 2 model-regime refusal, 3 converged
with audit failure, 4 convergence failure (including missing, malformed or
unconverged input states).  CSV output is byte-deterministic: header row first,
17-significant-digit floats, LF line endings.  A JSON file with the same
keys as the flags can be passed via --config; its values are converted as
the flags' text would be, and explicit flags win.
FERMITHERM_THREADS caps the fan-out of sweep and stability runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from .dynamics import (
    _check_kick,
    _check_step_controls,
    _step_count,
    evolve,
    stability_experiment,
)
from .entropy import InvalidExponentError, make_power_entropy, validate_a4
from .grid import DensityMatrix, build_grid, density_from_gamma, hartree_potential
from .linear import linear_report
from .scf import ScfConfig, ScfResult, UnboundedRegimeError, charge_sweep, scf_minimize, scf_global

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows, footer=()) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("FERMITHERM_THREADS")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(n_tasks, cap))


def _file_value(action: argparse.Action, value):
    """A --config value converted from its text, as the flag's value would be.

    The file thus accepts exactly what the flag accepts; an appended flag
    (--eta) also takes a JSON list.
    """
    convert = action.type or str
    try:
        if isinstance(action, argparse._AppendAction):
            return [convert(str(v)) for v in (value if isinstance(value, list) else [value])]
        return convert(str(value))
    except ValueError as exc:
        raise ValueError(f"config key {action.dest!r}: {exc}") from exc


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    provided = {
        k: v for k, v in vars(args).items() if k not in ("func", "command", "parser")
    }
    config_path = provided.pop("config", None)
    from_file = {}
    if config_path is not None:
        with open(config_path) as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(from_file) - set(defaults)
        if unknown:
            sys.stderr.write(
                f"error: unknown config key(s): {', '.join(sorted(unknown))}\n"
            )
            raise SystemExit(1)
        actions = {a.dest: a for a in args.parser._actions}
        # null leaves the default in place
        from_file = {
            k: _file_value(actions[k], v) for k, v in from_file.items() if v is not None
        }
    return {**defaults, **from_file, **provided}


def _require(opts: dict, keys) -> None:
    missing = [k for k in keys if opts.get(k) is None]
    if missing:
        sys.stderr.write(f"error: missing required option(s): {', '.join(missing)}\n")
        raise SystemExit(1)


_PHYSICS_DEFAULTS = {"m": None, "Z": None, "T": None}
_SOLVER_DEFAULTS = {
    **_PHYSICS_DEFAULTS,
    "q": None,
    "n": 2000,
    "rmax": None,
    "lmax": 3,
    "alpha": 0.5,
    "tol_gamma": 1e-9,
    "tol_energy": 1e-9,
    "max_iter": 300,
}


def _scf_config(opts: dict, q) -> ScfConfig:
    return ScfConfig(
        spec=make_power_entropy(opts["m"]),
        Z=opts["Z"],
        T=opts["T"],
        q=q,
        n_points=int(opts["n"]),
        r_max=opts["rmax"],
        l_max=int(opts["lmax"]),
        mixing_alpha=opts["alpha"],
        tol_gamma=opts["tol_gamma"],
        tol_energy=opts["tol_energy"],
        max_iter=int(opts["max_iter"]),
    )


def cmd_entropy(args) -> int:
    opts = _merge(args, {**_PHYSICS_DEFAULTS, "lambda_grid": None, "out": None})
    _require(opts, ("m", "Z", "T"))
    try:
        spec = make_power_entropy(opts["m"])
    except InvalidExponentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report = validate_a4(spec, opts["Z"], opts["T"])
    if opts["lambda_grid"] is not None:
        lams = [float(tok) for tok in str(opts["lambda_grid"]).split(",")]
    else:
        lams = list(np.linspace(-spec.m - 1.0, 1.0, 9))
    verdict = (
        f"A4 converges, value ≈ {report.value:.6f}, "
        f"tail_bound {_fmt(report.tail_bound)}"
        if report.converges
        else "A4 diverges"
    )
    rows = [(lam, float(spec.g(lam)), float(spec.beta_star(lam))) for lam in lams]
    text = verdict + "\n" + _csv_text(("lambda", "g", "beta_star"), rows)
    _emit(text, opts["out"])
    return 0 if report.converges else 2


def cmd_linear(args) -> int:
    opts = _merge(args, {**_PHYSICS_DEFAULTS, "out": None})
    _require(opts, ("m", "Z", "T"))
    try:
        spec = make_power_entropy(opts["m"])
    except InvalidExponentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    rep = linear_report(spec, opts["Z"], opts["T"])
    row = (
        opts["m"],
        opts["Z"],
        opts["T"],
        rep.regime.value,
        rep.q_max_lin.value,
        rep.ground_free_energy.value,
        rep.ground_free_energy.tail_bound,
        rep.q_guaranteed,
    )
    _emit(
        _csv_text(
            ("m", "Z", "T", "regime", "q_max_lin", "F_min", "tail", "q_guaranteed"),
            [row],
        ),
        opts["out"],
    )
    return 0


def _save_state(path: str, result: ScfResult, config: ScfConfig) -> None:
    payload = {
        "n_points": config.n_points,
        "r_max": config.resolved_r_max(),
        "l_max": config.l_max,
        "Z": config.Z,
        "T": config.T,
        "m": config.spec.m,
        "q": math.nan if config.q is None else config.q,
        "mu": result.mu,
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": int(result.converged),
    }
    arrays = {f"block_{l}": b for l, b in enumerate(result.gamma.blocks)}
    np.savez(path, **payload, **arrays)


class _StateError(Exception):
    """A stored state is missing, malformed or not a converged minimizer (exit 4)."""


_STATE_SCALARS = (
    "n_points", "r_max", "l_max", "Z", "T", "m", "mu", "residual", "iterations", "converged",
)


def _check_state_scalars(scalars: dict) -> None:
    """Refuse stored scalars no grid, operator or model can be built from.

    ``build_grid`` refuses a nonpositive ``r_max`` or ``n_points`` itself.
    """
    if int(scalars["l_max"]) < 0:
        raise ValueError(f"l_max must be >= 0, got {scalars['l_max']}")
    for key in ("r_max", "Z", "T"):
        if not math.isfinite(float(scalars[key])):
            raise ValueError(f"{key} must be finite, got {scalars[key]}")
    if float(scalars["T"]) <= 0.0:
        raise ValueError(f"T must be positive, got {scalars['T']}")


def _load_state(path: str):
    """Reload a state written by ``_save_state``; only converged minimizers pass.

    The file comes from outside the program, so keys, the grid and model
    scalars, block shapes, Hermiticity and the spectrum in [0, 1] are all
    checked before use.  No energy is computed: ``evolve`` and ``stability``
    never read it.
    """
    if not os.path.exists(path):
        raise _StateError(f"state file not found: {path}")
    try:
        with np.load(path) as data:
            scalars = {k: data[k].item() for k in _STATE_SCALARS}
            _check_state_scalars(scalars)
            blocks = [data[f"block_{l}"] for l in range(int(scalars["l_max"]) + 1)]
        gamma = DensityMatrix(
            grid=build_grid(int(scalars["n_points"]), float(scalars["r_max"])),
            blocks=blocks,
        )
        gamma.validate()
        spec = make_power_entropy(float(scalars["m"]))
        Z, T = float(scalars["Z"]), float(scalars["T"])
        converged = bool(int(scalars["converged"]))
        result = ScfResult(
            gamma=gamma,
            mu=float(scalars["mu"]),
            energy=None,
            residual=float(scalars["residual"]),
            iterations=int(scalars["iterations"]),
            converged=converged,
            status="converged" if converged else "max_iter",
        )
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise _StateError(f"invalid state file {path}: {exc}") from exc
    if not result.converged:
        raise _StateError("input state is not a converged minimizer")
    return result, spec, Z, T


def _result_payload(result: ScfResult, config: ScfConfig) -> dict:
    audit = None
    if result.audit is not None:
        audit = {
            "selfconsistency_residual": result.audit.selfconsistency_residual,
            "lieb_value": result.audit.lieb_value,
            "eigenvalue_bound_ok": result.audit.eigenvalue_bound_ok,
            "qmaxlin_chain_ok": result.audit.qmaxlin_chain_ok,
            "energy_negative_ok": result.audit.energy_negative_ok,
            "passed": result.audit.passed(config.tol_gamma),
            "details": result.audit.details,
        }
    return {
        "config": {
            "m": config.spec.m,
            "Z": config.Z,
            "T": config.T,
            "q": config.q,
            "n_points": config.n_points,
            "r_max": config.resolved_r_max(),
            "l_max": config.l_max,
            "mixing_alpha": config.mixing_alpha,
            "tol_gamma": config.tol_gamma,
            "tol_energy": config.tol_energy,
            "max_iter": config.max_iter,
        },
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "mu": result.mu,
        "residual": result.residual,
        "trace": result.gamma.trace(),
        "energy": asdict(result.energy),
        "audit": audit,
    }


def cmd_minimize(args) -> int:
    opts = _merge(
        args,
        {**_SOLVER_DEFAULTS, "out": None, "density_csv": None, "state": None},
    )
    _require(opts, ("m", "Z", "T"))
    config = _scf_config(opts, opts["q"])
    result = scf_minimize(config) if opts["q"] is not None else scf_global(config)
    payload = _result_payload(result, config)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, opts["out"])

    state_path = opts["state"]
    if state_path is None and opts["out"] is not None:
        state_path = os.path.splitext(opts["out"])[0] + ".npz"
    if state_path is not None:
        _save_state(state_path, result, config)

    if opts["density_csv"] is not None:
        rho = density_from_gamma(result.gamma)
        v_h = hartree_potential(result.gamma.grid, rho)
        rows = list(zip(result.gamma.grid.r, rho.rho_line, v_h))
        _emit(_csv_text(("r", "rho_line", "V_H"), rows), opts["density_csv"])

    if not result.converged:
        return 4
    if result.audit is None or not result.audit.passed(config.tol_gamma):
        return 3
    return 0


def cmd_sweep(args) -> int:
    opts = _merge(
        args,
        {
            **_SOLVER_DEFAULTS,
            "q_from": None,
            "q_to": None,
            "q_steps": None,
            "out": None,
        },
    )
    _require(opts, ("m", "Z", "T", "q_from", "q_to", "q_steps"))
    steps = int(opts["q_steps"])
    if steps < 1 or opts["q_to"] < opts["q_from"]:
        sys.stderr.write("error: bad sweep range\n")
        return 1
    if steps == 1:
        q_list = [float(opts["q_from"])]
    else:
        q_list = list(np.linspace(opts["q_from"], opts["q_to"], steps))
    config = _scf_config(opts, None)
    sweep = charge_sweep(config, q_list, workers=_worker_count(len(q_list)))
    rows = [
        (r.q, r.free_energy, r.mu, r.converged, r.binding_flag) for r in sweep.rows
    ]
    footer = [
        f"# q_max_lin = {_fmt(sweep.ceiling_q_max_lin)}",
        f"# 2Z+1 = {_fmt(sweep.ceiling_ionization)}",
        f"# ceiling = {_fmt(sweep.ceiling)}",
        f"# largest_strict_q = {_fmt(sweep.largest_strict_q)}",
        f"# monotone_ok = {sweep.monotone_ok}",
    ]
    _emit(
        _csv_text(("q", "I", "mu", "converged", "binding_flag"), rows, footer),
        opts["out"],
    )
    return 0 if all(r.converged for r in sweep.rows) else 4


def _trajectory_rows(samples):
    return [
        (s.t, s.trace, s.hf_energy, s.entropy_trace, s.dist_to_reference)
        for s in samples
    ]


_TRAJ_HEADER = ("t", "trace", "E_hf", "entropy_trace", "dist")


_DYNAMICS_DEFAULTS = {
    "state": None,
    "dt": None,
    "horizon": None,
    "stride": 10,
    "inner": 3,
    "propagator": "cayley",
}


def cmd_evolve(args) -> int:
    opts = _merge(args, {**_DYNAMICS_DEFAULTS, "out": None})
    _require(opts, ("state", "dt", "horizon"))
    _check_step_controls(
        opts["dt"], int(opts["inner"]), int(opts["stride"]), opts["propagator"]
    )
    n_steps = _step_count(opts["horizon"], opts["dt"])
    result, spec, Z, _ = _load_state(opts["state"])
    samples = evolve(
        result.gamma,
        spec,
        Z,
        dt=opts["dt"],
        n_steps=n_steps,
        reference=result.gamma,
        sample_stride=int(opts["stride"]),
        inner_iterations=int(opts["inner"]),
        propagator=opts["propagator"],
    )
    _emit(_csv_text(_TRAJ_HEADER, _trajectory_rows(samples)), opts["out"])
    return 0


def cmd_stability(args) -> int:
    opts = _merge(
        args,
        {**_DYNAMICS_DEFAULTS, "eta": None, "seed": 0, "out_prefix": "stability_"},
    )
    _require(opts, ("state", "dt", "horizon", "eta"))
    _check_step_controls(
        opts["dt"], int(opts["inner"]), int(opts["stride"]), opts["propagator"]
    )
    _step_count(opts["horizon"], opts["dt"])
    etas = opts["eta"]
    for eta in etas:
        _check_kick(eta)
    result, spec, Z, _ = _load_state(opts["state"])

    def run(eta):
        return stability_experiment(
            result,
            spec,
            Z,
            eta=eta,
            horizon=opts["horizon"],
            dt=opts["dt"],
            seed=int(opts["seed"]),
            sample_stride=int(opts["stride"]),
            inner_iterations=int(opts["inner"]),
            propagator=opts["propagator"],
        )

    workers = _worker_count(len(etas))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, etas))
    else:
        outcomes = [run(eta) for eta in etas]

    prefix = opts["out_prefix"]
    for eta, outcome in zip(etas, outcomes):
        _emit(
            _csv_text(_TRAJ_HEADER, _trajectory_rows(outcome.samples)),
            f"{prefix}eta_{_fmt(eta)}.csv",
        )
    summary_rows = [(eta, o.sup_dist) for eta, o in zip(etas, outcomes)]
    _emit(_csv_text(("eta", "sup_dist"), summary_rows), f"{prefix}summary.csv")
    sys.stdout.write(_csv_text(("eta", "sup_dist"), summary_rows))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fermitherm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--m", type=float, default=argparse.SUPPRESS)
        p.add_argument("--Z", type=float, default=argparse.SUPPRESS)
        p.add_argument("--T", type=float, default=argparse.SUPPRESS)
        p.add_argument("--config", default=argparse.SUPPRESS)
        p.add_argument("--out", default=argparse.SUPPRESS)

    p_entropy = sub.add_parser("entropy", help="A4 verdict and g/beta* table")
    add_common(p_entropy)
    p_entropy.add_argument("--lambda-grid", dest="lambda_grid", default=argparse.SUPPRESS)
    p_entropy.set_defaults(func=cmd_entropy, parser=p_entropy)

    p_linear = sub.add_parser("linear", help="linear-model thresholds")
    add_common(p_linear)
    p_linear.set_defaults(func=cmd_linear, parser=p_linear)

    def add_solver(p):
        add_common(p)
        p.add_argument("--n", type=int, default=argparse.SUPPRESS)
        p.add_argument("--rmax", type=float, default=argparse.SUPPRESS)
        p.add_argument("--lmax", type=int, default=argparse.SUPPRESS)
        p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
        p.add_argument("--tol-gamma", dest="tol_gamma", type=float, default=argparse.SUPPRESS)
        p.add_argument("--tol-energy", dest="tol_energy", type=float, default=argparse.SUPPRESS)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=argparse.SUPPRESS)

    p_min = sub.add_parser("minimize", help="SCF minimization (fixed q or global)")
    add_solver(p_min)
    p_min.add_argument("--q", type=float, default=argparse.SUPPRESS)
    p_min.add_argument("--density-csv", dest="density_csv", default=argparse.SUPPRESS)
    p_min.add_argument("--state", default=argparse.SUPPRESS)
    p_min.set_defaults(func=cmd_minimize, parser=p_min)

    p_sweep = sub.add_parser("sweep", help="I(q) over a charge list")
    add_solver(p_sweep)
    p_sweep.add_argument("--q-from", dest="q_from", type=float, default=argparse.SUPPRESS)
    p_sweep.add_argument("--q-to", dest="q_to", type=float, default=argparse.SUPPRESS)
    p_sweep.add_argument("--q-steps", dest="q_steps", type=int, default=argparse.SUPPRESS)
    p_sweep.set_defaults(func=cmd_sweep, parser=p_sweep)

    def add_dynamics(p):
        p.add_argument("--state", default=argparse.SUPPRESS)
        p.add_argument("--dt", type=float, default=argparse.SUPPRESS)
        p.add_argument("--horizon", type=float, default=argparse.SUPPRESS)
        p.add_argument("--stride", type=int, default=argparse.SUPPRESS)
        p.add_argument("--inner", type=int, default=argparse.SUPPRESS)
        p.add_argument("--propagator", choices=("cayley", "expm"), default=argparse.SUPPRESS)
        p.add_argument("--config", default=argparse.SUPPRESS)

    p_evolve = sub.add_parser("evolve", help="propagate a stored minimizer")
    add_dynamics(p_evolve)
    p_evolve.add_argument("--out", default=argparse.SUPPRESS)
    p_evolve.set_defaults(func=cmd_evolve, parser=p_evolve)

    p_stab = sub.add_parser("stability", help="perturb-and-track experiments")
    add_dynamics(p_stab)
    p_stab.add_argument("--eta", type=float, action="append", default=argparse.SUPPRESS)
    p_stab.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_stab.add_argument("--out-prefix", dest="out_prefix", default=argparse.SUPPRESS)
    p_stab.set_defaults(func=cmd_stability, parser=p_stab)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except UnboundedRegimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except _StateError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
