"""Command-line surface: entropy/linear tables, SCF runs, sweeps, dynamics.

Exit codes: 0 success, 1 usage error (also an input out of range, one whose
hydrogen series overflows, or a worker process of sweep or stability that
died), 2 model-regime refusal, 3 converged with a
failed check of the minimizer audit (its inequality pairs included), 4
convergence failure (including an eigensolve that fails its checks, a
diverging midpoint iteration of evolve or stability, and missing, malformed
or unconverged input states).  CSV output is
byte-deterministic: header row first, 17-significant-digit floats, LF line
endings.  A JSON file with the same keys as the flags can be passed via
--config; its values are converted as the flags' text would be, and
explicit flags win.  evolve and stability step with the library's one
Cayley propagator; --stride and --inner are positive integers.
FERMITHERM_THREADS, a positive integer, caps the worker processes of sweep and
stability.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields

import numpy as np

from .dynamics import (
    StepSizeError,
    _check_kick,
    _check_step_controls,
    _step_count,
    evolve,
    stability_experiment,
)
from .entropy import make_power_entropy, validate_a4
from .grid import DensityMatrix, density_from_gamma, hartree_potential
from .linear import UnboundedModelError, linear_report, q_max_lin
from .scf import (
    EigensolveError, ScfConfig, ScfResult, _fan_out, charge_sweep, scf_minimize, scf_global,
)

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


def _worker_count() -> int:
    """The cap on worker processes: FERMITHERM_THREADS, a positive integer,
    else the CPUs this process may run on (each worker costs about 60 MB)."""
    env = os.environ.get("FERMITHERM_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"FERMITHERM_THREADS must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"FERMITHERM_THREADS must be a positive integer, got {env!r}")
    return cap


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


def _merge(args: argparse.Namespace, defaults: dict | None = None) -> dict:
    """The command's own ``defaults``, then the --config file, then the flags given.

    An option none of them sets is absent, and ``_library_args`` leaves it
    out, so the library function it feeds applies its own default.
    """
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
        actions = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
        unknown = set(from_file) - set(actions)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        # null leaves the default in place
        from_file = {
            k: _file_value(actions[k], v) for k, v in from_file.items() if v is not None
        }
    return {**(defaults or {}), **from_file, **provided}


def _require(opts: dict, keys) -> None:
    missing = [k for k in keys if opts.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")


def _library_args(opts: dict, names: dict) -> dict:
    """Keyword arguments from the options ``names`` maps to them.

    An option not given is left out, so the library applies its own default
    and no default of the library is restated here.
    """
    return {arg: opts[key] for key, arg in names.items() if key in opts}


_SOLVER_ARGS = {
    "q": "q",
    "n": "n_points",
    "rmax": "r_max",
    "lmax": "l_max",
    "tol_gamma": "tol_gamma",
    "tol_energy": "tol_energy",
    "max_iter": "max_iter",
}


def _scf_config(opts: dict) -> ScfConfig:
    return ScfConfig(
        spec=make_power_entropy(opts["m"]),
        Z=opts["Z"],
        T=opts["T"],
        **_library_args(opts, _SOLVER_ARGS),
    )


def _hydrogen_series(fn, opts: dict):
    """(spec, fn(spec, Z, T)) at the command's m, Z and T; a closed form of
    the hydrogen series that leaves the float range is an input error naming them."""
    _require(opts, ("m", "Z", "T"))
    m, Z, T = opts["m"], opts["Z"], opts["T"]
    spec = make_power_entropy(m)
    try:
        return spec, fn(spec, Z, T)
    except OverflowError:
        raise ValueError(
            f"the hydrogen series leave the floating-point range at m = {m}, Z = {Z}, T = {T}"
        ) from None


def cmd_entropy(args) -> int:
    opts = _merge(args)
    spec, a4 = _hydrogen_series(validate_a4, opts)
    if "lambda_grid" in opts:
        lams = [float(tok) for tok in str(opts["lambda_grid"]).split(",")]
    else:
        lams = list(np.linspace(-spec.m - 1.0, 1.0, 9))
    # the tail is summed exactly, so a finite sum carries no truncation error
    verdict = f"A4 converges, value ≈ {a4:.6f}, tail_bound 0" if a4 < math.inf else "A4 diverges"
    # one array call: a scalar call may round the last bit differently
    rows = zip(lams, spec.g(lams).tolist(), spec.beta_star(lams).tolist())
    text = verdict + "\n" + _csv_text(("lambda", "g", "beta_star"), rows)
    _emit(text, opts.get("out"))
    return 0 if a4 < math.inf else 2


def cmd_linear(args) -> int:
    opts = _merge(args)
    _, rep = _hydrogen_series(linear_report, opts)
    row = (
        opts["m"],
        opts["Z"],
        opts["T"],
        rep.regime.value,
        rep.q_max_lin,
        rep.ground_free_energy,
        0.0 if math.isfinite(rep.ground_free_energy) else math.inf,
        rep.q_guaranteed,
    )
    _emit(
        _csv_text(
            ("m", "Z", "T", "regime", "q_max_lin", "F_min", "tail", "q_guaranteed"),
            [row],
        ),
        opts.get("out"),
    )
    return 0


def _config_record(config: ScfConfig) -> dict:
    """Every config field as a plain value: the entropy by its exponent m, r_max resolved."""
    record = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "spec"}
    return {**record, "m": config.spec.m, "r_max": config.resolved_r_max()}


def _save_state(path: str, result: ScfResult, config: ScfConfig) -> None:
    """The minimizer as the solver holds it, orbitals W_l and weights nu_l per channel."""
    orbitals, weights = result.gamma.factors
    # an open file: given a path, np.savez would add ".npz" to one that lacks it
    with open(path, "wb") as fh:
        np.savez(
            fh,
            config=json.dumps(_config_record(config)),
            mu=result.mu,
            residual=result.residual,
            iterations=result.iterations,
            status=result.status,
            **{f"orbitals_{l}": w for l, w in enumerate(orbitals)},
            **{f"weights_{l}": nu for l, nu in enumerate(weights)},
        )


class _StateError(Exception):
    """A stored state is missing, malformed or not a converged minimizer (exit 4)."""


def _load_state(path: str) -> tuple:
    """(result, config) from a file ``_save_state`` wrote; only converged minimizers pass.

    The file comes from outside the program.  ``ScfConfig``, the entropy and
    the grid check the stored config, and ``DensityMatrix.validate`` the
    factors, before use.  No energy is computed: ``evolve`` and ``stability``
    never read it.
    """
    if not os.path.exists(path):
        raise _StateError(f"state file not found: {path}")
    try:
        with np.load(path) as data:
            record = json.loads(data["config"].item())
            spec = make_power_entropy(record["m"])
            config = ScfConfig(spec=spec, **{k: v for k, v in record.items() if k != "m"})
            channels = range(config.l_max + 1)
            gamma = DensityMatrix.from_factors(
                config.make_grid(),
                [data[f"orbitals_{l}"] for l in channels],
                [data[f"weights_{l}"] for l in channels],
            )
            gamma.validate()
            status = str(data["status"])
            result = ScfResult(
                gamma=gamma,
                mu=float(data["mu"]),
                energy=None,
                residual=float(data["residual"]),
                iterations=int(data["iterations"]),
                converged=status == "converged",
                status=status,
            )
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise _StateError(f"invalid state file {path}: {exc}") from exc
    if not result.converged:
        raise _StateError("input state is not a converged minimizer")
    return result, config


def _result_payload(result: ScfResult, config: ScfConfig) -> dict:
    audit = None
    if result.audit is not None:
        audit = {**asdict(result.audit), "passed": result.audit.passed(config.tol_gamma)}
    return {
        "config": _config_record(config),
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
    opts = _merge(args)
    _require(opts, ("m", "Z", "T"))
    config = _scf_config(opts)
    result = scf_minimize(config) if config.q is not None else scf_global(config)
    payload = _result_payload(result, config)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, opts.get("out"))

    state_path = opts.get("state")
    if state_path is None and "out" in opts:
        state_path = os.path.splitext(opts["out"])[0] + ".npz"
    if state_path is not None:
        _save_state(state_path, result, config)

    if "density_csv" in opts:
        rho = density_from_gamma(result.gamma)
        v_h = hartree_potential(rho)
        rows = list(zip(result.gamma.grid.r, rho.rho_line, v_h))
        _emit(_csv_text(("r", "rho_line", "V_H"), rows), opts["density_csv"])

    if not result.converged:
        return 4
    if result.audit is None or not result.audit.passed(config.tol_gamma):
        return 3
    return 0


def cmd_sweep(args) -> int:
    opts = _merge(args)
    _require(opts, ("m", "Z", "T", "q_from", "q_to", "q_steps"))
    steps = opts["q_steps"]
    if steps < 1 or not opts["q_from"] <= opts["q_to"] < math.inf:
        raise ValueError("bad sweep range")
    q_list = list(np.linspace(opts["q_from"], opts["q_to"], steps))
    config = _scf_config(opts)
    _hydrogen_series(q_max_lin, opts)  # the sweep's ceiling, checked before any solve
    sweep = charge_sweep(config, q_list, workers=_worker_count())
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
        opts.get("out"),
    )
    return 0 if all(r.converged for r in sweep.rows) else 4


def _trajectory_rows(samples):
    return [
        (s.t, s.trace, s.hf_energy, s.entropy_trace, s.dist_to_reference)
        for s in samples
    ]


_TRAJ_HEADER = ("t", "trace", "E_hf", "entropy_trace", "dist")


_STEP_ARGS = {"inner": "inner_iterations", "stride": "sample_stride"}


def _dynamics_input(opts: dict, *required) -> tuple:
    """(result, config, controls, n_steps) of an evolve or stability run.

    The options, the step controls given and the step count are checked
    before the state is read; a control not given is left to the library.
    """
    _require(opts, ("state", "dt", "horizon", *required))
    controls = _library_args(opts, _STEP_ARGS)
    _check_step_controls(opts["dt"], **controls)
    n_steps = _step_count(opts["horizon"], opts["dt"])
    return (*_load_state(opts["state"]), controls, n_steps)


def cmd_evolve(args) -> int:
    opts = _merge(args, {"stride": 10})
    result, config, controls, n_steps = _dynamics_input(opts)
    samples = evolve(
        result.gamma,
        config.spec,
        config.Z,
        dt=opts["dt"],
        n_steps=n_steps,
        reference=result.gamma,
        **controls,
    )
    _emit(_csv_text(_TRAJ_HEADER, _trajectory_rows(samples)), opts.get("out"))
    return 0


def cmd_stability(args) -> int:
    opts = _merge(args, {"out_prefix": "stability_"})
    for eta in opts.get("eta", ()):
        _check_kick(eta)
    workers = _worker_count()
    result, config, controls, _ = _dynamics_input(opts, "eta")
    kick = functools.partial(
        stability_experiment, result, config.spec, config.Z,
        horizon=opts["horizon"], dt=opts["dt"], **controls,
        **_library_args(opts, {"seed": "seed"}),
    )
    etas = opts["eta"]
    outcomes = _fan_out(kick, etas, workers)

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
    except UnboundedModelError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (_StateError, EigensolveError, StepSizeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except OverflowError as exc:  # a closed form of the hydrogen series left the float range
        sys.stderr.write(f"error: input out of floating-point range ({exc})\n")
        return 1
    except BrokenProcessPool as exc:  # a worker of sweep or stability died
        sys.stderr.write(f"error: a worker process died ({exc})\n")
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
