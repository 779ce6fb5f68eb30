import json
import math
import warnings

import numpy as np
import pytest

from fermitherm import scf
from fermitherm.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MINIMIZE_SMALL = [
    "minimize",
    "--m", "2", "--Z", "1", "--T", "1", "--q", "0.1",
    "--n", "150", "--rmax", "30", "--lmax", "1",
]


def test_entropy_converges(capsys):
    code, out, _ = run(capsys, ["entropy", "--m", "2", "--Z", "2", "--T", "1"])
    assert code == 0
    assert "A4 converges" in out
    assert "0.411234" in out
    assert out.splitlines()[1] == "lambda,g,beta_star"


def test_entropy_near_m_one_raises_no_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["entropy", "--m", "1.0000001", "--Z", "1", "--T", "1"])
    assert code == 0 and caught == [] and err == ""
    assert out.splitlines()[1] == "lambda,g,beta_star"


def test_entropy_diverges_exit2(capsys):
    code, out, _ = run(capsys, ["entropy", "--m", "3", "--Z", "1", "--T", "1"])
    assert code == 2
    assert out.splitlines()[0] == "A4 diverges"


def test_entropy_missing_flag_exit1(capsys):
    code, _, err = run(capsys, ["entropy", "--Z", "1", "--T", "1"])
    assert code == 1
    assert "missing" in err


def test_entropy_bad_exponent_exit1(capsys):
    code, _, err = run(capsys, ["entropy", "--m", "1", "--Z", "1", "--T", "1"])
    assert code == 1
    assert "m > 1" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["entropy", "--m", "2", "--Z", "inf", "--T", "1"], ""),
        (["entropy", "--m", "2", "--Z", "nan", "--T", "1"], ""),
        (["entropy", "--m", "2", "--Z", "1", "--T", "1e-200"], "m = 2.0, Z = 1.0, T = 1e-200"),
        (["entropy", "--m", "2", "--Z", "1e200", "--T", "1"], ""),
        (["entropy", "--m", "2.999", "--Z", "1", "--T", "1e-205"],
         "m = 2.999, Z = 1.0, T = 1e-205"),
        (["entropy", "--m", "inf", "--Z", "1", "--T", "1"], ""),
        (["linear", "--m", "2", "--Z", "1", "--T", "1e-300"], "m = 2.0, Z = 1.0, T = 1e-300"),
        (["linear", "--m", "2", "--Z", "1", "--T", "nan"], ""),
        (["linear", "--m", "inf", "--Z", "1", "--T", "1"], ""),
        (MINIMIZE_SMALL + ["--max-iter", "-3"], ""),
        (["minimize", "--m", "2", "--Z", "1e155", "--T", "1", "--q", "0.1", "--n", "40",
          "--rmax", "10", "--lmax", "0"], "Z^2/(4T) overflows at Z = 1e+155, T = 1.0"),
        (["sweep", "--m", "2", "--Z", "1e155", "--T", "1", "--q-from", "0.1", "--q-to", "0.2",
          "--q-steps", "2", "--n", "40", "--rmax", "10", "--lmax", "0"],
         "Z^2/(4T) overflows at Z = 1e+155, T = 1.0"),
    ],
    ids=["Z-inf", "Z-nan", "T-tiny", "Z-huge", "sum-overflows", "m-inf", "linear-T-tiny",
         "linear-T-nan", "linear-m-inf", "minimize-negative-max-iter", "minimize-Z-overflows",
         "sweep-Z-overflows"],
)
def test_bad_or_overflowing_input_exit1(capsys, argv, names):
    # a closed form that overflows is reported with the input that made it
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "Traceback" not in err
    assert names in line


def test_sweep_overflow_fails_before_any_solve(capsys, monkeypatch):
    # the q_max_lin ceiling overflows at T = 1e-300: the sweep exits 1 naming
    # m, Z and T, and solves none of its charges first
    solved = []
    monkeypatch.setattr(scf, "scf_minimize", lambda config: solved.append(config.q))
    argv = ["sweep", "--m", "2", "--Z", "1", "--T", "1e-300", "--q-from", "0.1",
            "--q-to", "0.2", "--q-steps", "2", "--n", "40", "--rmax", "20", "--lmax", "0"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == "" and solved == []
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "m = 2.0, Z = 1.0, T = 1e-300" in line


@pytest.mark.parametrize("threads", ["abc", "1e9"])
def test_sweep_names_a_thread_count_that_is_not_an_integer(capsys, monkeypatch, threads):
    # the cap is read before any solve, and the error names the variable and its value
    solved = []
    monkeypatch.setattr(scf, "scf_minimize", lambda config: solved.append(config.q))
    monkeypatch.setenv("FERMITHERM_THREADS", threads)
    argv = ["sweep", "--m", "2", "--Z", "1", "--T", "1", "--q-from", "0.1",
            "--q-to", "0.2", "--q-steps", "2", "--n", "40", "--rmax", "20", "--lmax", "0"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == "" and solved == []
    (line,) = err.splitlines()
    assert line == f"error: FERMITHERM_THREADS must be an integer, got {threads!r}"


def test_failed_eigensolve_exits_4(capsys, monkeypatch):
    # an eigensolve whose count fails its check is a convergence failure, not a traceback
    message = "channel l=0: 0 negative Ritz levels, but H_l has 1 (block of 1)"

    def failing(channels):
        raise scf.EigensolveError(message)

    monkeypatch.setattr(scf, "_diagonalize_blocks", failing)
    code, out, err = run(capsys, MINIMIZE_SMALL)
    assert code == 4 and out == ""
    assert err == f"error: {message}\n"


def test_entropy_lambda_grid(capsys):
    code, out, _ = run(
        capsys,
        ["entropy", "--m", "2", "--Z", "1", "--T", "1", "--lambda-grid=-1,0.5"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2].startswith("-1,0.5,")  # g(-1) = 0.5
    assert lines[3].startswith("0.5,0,0")


def test_unknown_command_exit1(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 1


def test_linear_finite_regime(capsys):
    code, out, _ = run(capsys, ["linear", "--m", "1.5", "--Z", "1", "--T", "1"])
    assert code == 0
    header, row = out.splitlines()
    assert header == "m,Z,T,regime,q_max_lin,F_min,tail,q_guaranteed"
    fields = row.split(",")
    assert fields[3] == "FiniteQmax"
    assert float(fields[4]) == pytest.approx(0.0456926, abs=1e-6)


def test_linear_bad_exponent_exit1(capsys):
    code, out, err = run(capsys, ["linear", "--m", "1", "--Z", "1", "--T", "1"])
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "m > 1" in line


def test_linear_infinite_regime(capsys):
    code, out, _ = run(capsys, ["linear", "--m", "2", "--Z", "1", "--T", "1"])
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[3] == "InfiniteQmax"
    assert fields[4] == "inf"
    assert float(fields[7]) == pytest.approx(0.148932, abs=5e-6)


def test_minimize_roundtrip(tmp_path, capsys):
    out_json = tmp_path / "res.json"
    dens_csv = tmp_path / "dens.csv"
    code, _, _ = run(
        capsys,
        MINIMIZE_SMALL + ["--out", str(out_json), "--density-csv", str(dens_csv)],
    )
    payload = json.loads(out_json.read_text())
    assert payload["converged"]
    assert payload["energy"]["total_free"] < 0.0
    assert payload["mu"] < 0.0
    assert code == (0 if payload["audit"]["passed"] else 3)
    # state companion written next to the json
    assert (tmp_path / "res.npz").exists()
    header = dens_csv.read_text().splitlines()[0]
    assert header == "r,rho_line,V_H"


def test_minimize_stops_on_the_audited_norm(tmp_path, capsys):
    # a loop stopping on the largest entry of the defect converged here with a
    # Frobenius residual above the audit's 10 tol_gamma bound, and exited 3
    out_json = tmp_path / "res.json"
    argv = ["minimize", "--m", "2", "--Z", "6", "--T", "0.01", "--q", "5",
            "--n", "300", "--rmax", "16.33", "--lmax", "3", "--out", str(out_json)]
    code, _, _ = run(capsys, argv)
    payload = json.loads(out_json.read_text())
    assert payload["converged"] and payload["audit"]["passed"]
    assert payload["residual"] <= payload["config"]["tol_gamma"]
    assert code == 0


# a run whose audit passes: the 80-bohr box holds the 3s comparison level
MINIMIZE_PASSING = [
    "minimize",
    "--m", "2", "--Z", "1", "--T", "1", "--q", "0.1",
    "--n", "150", "--rmax", "80", "--lmax", "0",
]
INEQUALITIES = {
    "exchange_le_direct", "coercivity",
    "brown_kosaki_R=10", "brown_kosaki_R=20", "brown_kosaki_R=40",
}


def test_minimize_audits_every_inequality(tmp_path, capsys, monkeypatch):
    out_json = tmp_path / "res.json"
    argv = MINIMIZE_PASSING + ["--out", str(out_json)]
    code, _, _ = run(capsys, argv)
    audit = json.loads(out_json.read_text())["audit"]
    assert code == 0 and audit["passed"] and audit["inequalities_ok"]
    pairs = {name: pair for name, pair in audit["details"].items() if name in INEQUALITIES}
    assert set(pairs) == INEQUALITIES
    assert all(len(pair) == 2 and pair[0] <= pair[1] for pair in pairs.values())
    # one failing inequality alone fails the audit, and the run exits 3
    monkeypatch.setattr(scf, "inequality_audit", lambda *args: {"coercivity": (1.0, 0.0)})
    code, _, _ = run(capsys, argv)
    audit = json.loads(out_json.read_text())["audit"]
    assert code == 3 and not audit["passed"] and not audit["inequalities_ok"]
    assert audit["details"]["coercivity"] == [1.0, 0.0]
    assert audit["eigenvalue_bound_ok"] and audit["qmaxlin_chain_ok"]
    assert audit["energy_negative_ok"]


def test_minimize_unbounded_exit2(capsys):
    code, _, err = run(
        capsys, ["minimize", "--m", "3", "--Z", "1", "--T", "1", "--q", "0.1"]
    )
    assert code == 2
    assert "unbounded" in err


def test_sweep_unbounded_exit2(capsys):
    code, _, err = run(
        capsys,
        [
            "sweep", "--m", "3", "--Z", "1", "--T", "1",
            "--q-from", "0", "--q-to", "0.1", "--q-steps", "2",
        ],
    )
    assert code == 2
    assert "unbounded" in err


def test_minimize_global_reports_zero_mu(capsys):
    code, out, _ = run(
        capsys,
        [
            "minimize", "--m", "2", "--Z", "1", "--T", "1",
            "--n", "120", "--rmax", "25", "--lmax", "1",
        ],
    )
    payload = json.loads(out)
    assert payload["converged"]
    assert payload["mu"] == 0.0
    assert code in (0, 3)


def test_minimize_global_passes_its_audit_at_default_tolerance(capsys):
    # the documented global command: its first charge link is an equality at
    # the minimizer, held to the run's proven trace bound, not a fixed 1e-9
    code, out, _ = run(
        capsys,
        ["minimize", "--m", "2", "--Z", "1", "--T", "1", "--n", "900", "--rmax", "90",
         "--lmax", "2"],
    )
    audit = json.loads(out)["audit"]
    assert code == 0 and audit["passed"] and audit["qmaxlin_chain_ok"]
    assert audit["details"]["charge_slack"] > 0.0


def test_minimize_unreachable_exit4(capsys):
    code, out, _ = run(
        capsys,
        [
            "minimize", "--m", "2", "--Z", "1", "--T", "1", "--q", "5.0",
            "--n", "100", "--rmax", "25", "--lmax", "1", "--max-iter", "40",
        ],
    )
    payload = json.loads(out)
    assert code == 4
    assert payload["status"] == "unreachable-charge"


def test_sweep_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FERMITHERM_THREADS", "2")
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        [
            "sweep", "--m", "2", "--Z", "1", "--T", "1",
            "--q-from", "0", "--q-to", "0.1", "--q-steps", "3",
            "--n", "120", "--rmax", "25", "--lmax", "1",
            "--out", str(out_csv),
        ],
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "q,I,mu,converged,binding_flag"
    data = [line.split(",") for line in lines[1:4]]
    q_vals = [float(r[0]) for r in data]
    i_vals = [float(r[1]) for r in data]
    assert q_vals == pytest.approx([0.0, 0.05, 0.1])
    assert i_vals[0] == 0.0
    assert i_vals[2] < i_vals[1] < i_vals[0]
    footers = [line for line in lines if line.startswith("#")]
    assert "# 2Z+1 = 3" in footers
    assert "# ceiling = 3" in footers
    assert any("q_max_lin = inf" in f for f in footers)


def test_sweep_one_step_runs_q_from(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        [
            "sweep", "--m", "2", "--Z", "1", "--T", "1",
            "--q-from", "0.05", "--q-to", "0.1", "--q-steps", "1",
            "--n", "120", "--rmax", "25", "--lmax", "1",
            "--out", str(out_csv),
        ],
    )
    assert code == 0
    rows = [line for line in out_csv.read_text().splitlines()[1:] if not line.startswith("#")]
    (row,) = rows
    assert row.split(",")[0] == "0.050000000000000003"  # 0.05 to 17 digits


def test_sweep_bad_range_exit1(capsys):
    code, _, _ = run(
        capsys,
        [
            "sweep", "--m", "2", "--Z", "1", "--T", "1",
            "--q-from", "0.2", "--q-to", "0.1", "--q-steps", "3",
        ],
    )
    assert code == 1


@pytest.mark.parametrize("q_from, q_to", [("0.05", "inf"), ("nan", "0.1")])
def test_sweep_non_finite_range_exit1(capsys, q_from, q_to):
    # refused as a range, not as a linspace of nan charges
    code, out, err = run(
        capsys,
        [
            "sweep", "--m", "2", "--Z", "1", "--T", "1",
            "--q-from", q_from, "--q-to", q_to, "--q-steps", "1",
        ],
    )
    assert code == 1 and out == ""
    assert err == "error: bad sweep range\n"


@pytest.fixture()
def stored_state(tmp_path, capsys):
    out_json = tmp_path / "min.json"
    code, _, _ = run(capsys, MINIMIZE_SMALL + ["--out", str(out_json)])
    assert code in (0, 3)
    return tmp_path / "min.npz"


def test_evolve_conservation_columns(stored_state, tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys,
        [
            "evolve", "--state", str(stored_state),
            "--dt", "0.02", "--horizon", "0.5", "--stride", "5",
            "--out", str(traj),
        ],
    )
    assert code == 0
    lines = traj.read_text().splitlines()
    assert lines[0] == "t,trace,E_hf,entropy_trace,dist"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    traces = [r[1] for r in rows]
    entropies = [r[3] for r in rows]
    dists = [r[4] for r in rows]
    assert max(traces) - min(traces) < 1e-11
    assert max(entropies) - min(entropies) < 1e-11
    assert max(dists) <= 1e-8  # unperturbed minimizer stays put


def test_load_state_builds_no_operator_cache(stored_state, monkeypatch):
    # evolve and stability never read the energy, so loading must not build
    # the pair kernels to compute one
    import fermitherm.energy
    from fermitherm.cli import _load_state

    def refuse(*args, **kwargs):
        raise AssertionError("OperatorCache built while loading a state")

    monkeypatch.setattr(fermitherm.energy, "OperatorCache", refuse)
    result, config = _load_state(str(stored_state))
    assert result.converged and result.energy is None
    assert (config.spec.m, config.Z, config.T) == (2.0, 1.0, 1.0)


def test_evolve_factors_stored_state_once(stored_state, tmp_path, capsys, monkeypatch):
    # the file holds the factors themselves: loading, validation and evolve
    # factor no block
    import fermitherm.grid

    calls = []
    factor_blocks = fermitherm.grid._factor_blocks

    def counting(blocks):
        calls.append(len(blocks))
        return factor_blocks(blocks)

    monkeypatch.setattr(fermitherm.grid, "_factor_blocks", counting)
    argv = ["evolve", "--state", str(stored_state), "--dt", "0.02", "--horizon", "0.04"]
    code, _, _ = run(capsys, argv + ["--out", str(tmp_path / "traj.csv")])
    assert code == 0
    assert calls == []


def test_evolve_missing_state_exit4(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["evolve", "--state", str(tmp_path / "nope.npz"), "--dt", "0.1", "--horizon", "1"],
    )
    assert code == 4
    assert "not found" in err


@pytest.mark.parametrize("command", ["evolve", "stability"])
@pytest.mark.parametrize(
    "flag",
    [["--dt", "0"], ["--stride", "0"], ["--horizon", "-5"], ["--horizon", "0"]],
    ids=["dt0", "stride0", "horizon-5", "horizon0"],
)
def test_dynamics_bad_step_controls_exit1(stored_state, tmp_path, capsys, command, flag):
    argv = [command, "--state", str(stored_state), "--dt", "0.02", "--horizon", "0.1"]
    if command == "stability":
        argv += ["--eta", "1e-3", "--out-prefix", str(tmp_path / "s_")]
    code, _, err = run(capsys, argv + flag)
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def _with_config(arrays, **changes):
    record = json.loads(arrays["config"].item())
    arrays["config"] = np.array(json.dumps({**record, **changes}))


@pytest.mark.parametrize(
    "tamper",
    [
        "nonorthonormal", "shape", "spectrum", "missing", "lmax_negative", "rmax_nan", "Z_nan",
        "Z_overflowing", "nan", "weights_2d", "complex_weights", "old_format",
    ],
)
def test_evolve_rejects_tampered_state_exit4(stored_state, tmp_path, capsys, tamper):
    with np.load(stored_state) as data:
        arrays = dict(data)
    orbitals = arrays["orbitals_0"]
    if tamper == "lmax_negative":
        _with_config(arrays, l_max=-1)
    elif tamper == "rmax_nan":
        _with_config(arrays, r_max=math.nan)
    elif tamper == "Z_nan":
        _with_config(arrays, Z=math.nan)
    elif tamper == "Z_overflowing":
        _with_config(arrays, Z=1e155)
    elif tamper == "nonorthonormal":
        orbitals[:, 0] *= 1.001
    elif tamper == "shape":
        arrays["orbitals_0"] = orbitals[:-1]
    elif tamper == "spectrum":
        arrays["weights_0"] = 2.0 * np.ones_like(arrays["weights_0"])
    elif tamper == "nan":
        orbitals[0, 0] = np.nan
    elif tamper == "weights_2d":
        arrays["weights_0"] = arrays["weights_0"][:, None]
    elif tamper == "complex_weights":
        arrays["weights_0"] = arrays["weights_0"] + 0.2j
    elif tamper == "missing":
        del arrays["orbitals_1"]
    else:  # the dense block_<l> layout is not read
        arrays = {"block_0": orbitals @ orbitals.T, "l_max": np.array(0)}
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    code, _, err = run(
        capsys, ["evolve", "--state", str(bad), "--dt", "0.02", "--horizon", "0.1"]
    )
    assert code == 4
    assert "error:" in err and "Traceback" not in err
    if tamper in ("missing", "old_format"):
        assert ("orbitals_1" if tamper == "missing" else "config") in err
    if tamper == "Z_overflowing":
        assert "Z^2/(4T) overflows at Z = 1e+155, T = 1.0" in err


@pytest.mark.parametrize("command", ["evolve", "stability"])
def test_dynamics_refuse_unconverged_state_exit4(tmp_path, capsys, command):
    state = tmp_path / "early.npz"
    code, _, _ = run(capsys, MINIMIZE_SMALL + ["--max-iter", "1", "--state", str(state)])
    assert code == 4 and state.exists()
    argv = [command, "--state", str(state), "--dt", "0.02", "--horizon", "0.1"]
    if command == "stability":
        argv += ["--eta", "1e-3", "--out-prefix", str(tmp_path / "s_")]
    code, _, err = run(capsys, argv)
    assert code == 4
    assert "not a converged minimizer" in err and "Traceback" not in err


@pytest.mark.parametrize("command, library", [("evolve", "evolve"),
                                              ("stability", "stability_experiment")])
def test_dynamics_step_size_error_exits_4(stored_state, tmp_path, capsys, monkeypatch,
                                          command, library):
    # a diverging midpoint iteration is a convergence failure, not a traceback
    import functools

    from fermitherm import cli
    from fermitherm.dynamics import StepSizeError

    message = "midpoint iteration diverging (dW 1.000e-03 -> 2.000e-01); reduce dt"

    @functools.wraps(getattr(cli, library))  # the CLI reads the library's defaults
    def diverging(*args, **kwargs):
        raise StepSizeError(message)

    monkeypatch.setattr(cli, library, diverging)
    argv = [command, "--state", str(stored_state), "--dt", "0.02", "--horizon", "0.1"]
    if command == "stability":
        argv += ["--eta", "1e-3", "--out-prefix", str(tmp_path / "s_")]
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert err == f"error: {message}\n"


def test_state_file_roundtrips_an_empty_channel(tmp_path):
    # a channel with no occupied orbital is stored as an (n, 0) block of factors
    from fermitherm.cli import _load_state, _save_state
    from fermitherm.entropy import make_power_entropy
    from fermitherm.grid import DensityMatrix
    from fermitherm.scf import ScfConfig, ScfResult

    config = ScfConfig(spec=make_power_entropy(2.0), Z=1.0, T=1.0, q=0.5, n_points=40,
                       r_max=20.0, l_max=2)
    rng = np.random.default_rng(5)
    orbitals = [np.linalg.qr(rng.standard_normal((40, 2)))[0], np.zeros((40, 0)),
                np.linalg.qr(rng.standard_normal((40, 1)))[0]]
    weights = [np.array([0.9, 0.2]), np.zeros(0), np.array([0.1])]
    gamma = DensityMatrix.from_factors(config.make_grid(), orbitals, weights)
    result = ScfResult(gamma=gamma, mu=-0.1, energy=None, residual=1e-12, iterations=3,
                       converged=True, status="converged")
    path = tmp_path / "state.npz"
    _save_state(str(path), result, config)
    loaded, loaded_config = _load_state(str(path))
    assert loaded_config == config
    assert (loaded.mu, loaded.residual, loaded.iterations) == (-0.1, 1e-12, 3)
    for got, want in zip(loaded.gamma.factors, (orbitals, weights)):
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))


def test_evolve_from_file_matches_library_bit_for_bit(stored_state, tmp_path, capsys):
    from fermitherm.cli import _TRAJ_HEADER, _csv_text, _trajectory_rows
    from fermitherm.dynamics import evolve
    from fermitherm.entropy import make_power_entropy
    from fermitherm.scf import ScfConfig, scf_minimize

    traj = tmp_path / "traj.csv"
    argv = ["evolve", "--state", str(stored_state), "--dt", "0.02", "--horizon", "0.4"]
    code, _, _ = run(capsys, argv + ["--out", str(traj)])
    assert code == 0
    spec = make_power_entropy(2.0)
    config = ScfConfig(spec=spec, Z=1.0, T=1.0, q=0.1, n_points=150, r_max=30.0, l_max=1)
    result = scf_minimize(config)
    samples = evolve(result.gamma, spec, 1.0, dt=0.02, n_steps=20, reference=result.gamma,
                     sample_stride=10)
    assert traj.read_text() == _csv_text(_TRAJ_HEADER, _trajectory_rows(samples))


def test_minimize_evolve_stability_stay_factored(tmp_path, capsys, monkeypatch):
    # the state goes from the solver to the file to the dynamics as factors
    import fermitherm.grid

    def refuse(*args):
        raise AssertionError("a state was turned dense or factored again")

    monkeypatch.setattr(fermitherm.grid, "_materialize", refuse)
    monkeypatch.setattr(fermitherm.grid, "_factor_blocks", refuse)
    code, _, _ = run(capsys, MINIMIZE_SMALL + ["--out", str(tmp_path / "min.json")])
    assert code in (0, 3)
    state = ["--state", str(tmp_path / "min.npz"), "--dt", "0.02", "--horizon", "0.1"]
    code, _, _ = run(capsys, ["evolve", *state, "--out", str(tmp_path / "traj.csv")])
    assert code == 0
    argv = ["stability", *state, "--eta", "1e-3", "--out-prefix", str(tmp_path / "s_")]
    code, _, _ = run(capsys, argv)
    assert code == 0


@pytest.mark.parametrize(
    "flag",
    [["--lmax", "-1"], ["--T", "nan"], ["--Z", "nan"], ["--q", "inf"], ["--rmax", "nan"]],
    ids=["lmax-1", "Tnan", "Znan", "qinf", "rmaxnan"],
)
def test_minimize_bad_numbers_exit1(capsys, flag):
    # refused by ScfConfig before any solve, not a traceback or a NaN result
    argv = ["minimize", "--m", "2", "--Z", "1", "--T", "1", "--q", "0.1",
            "--n", "50", "--rmax", "20", "--lmax", "1"]
    code, out, err = run(capsys, argv + flag)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_stability_non_finite_eta_exit1(stored_state, tmp_path, capsys, eta):
    argv = ["stability", "--dt", "0.02", "--horizon", "0.1", "--eta", "1e-3", "--eta", eta,
            "--out-prefix", str(tmp_path / "s_")]
    code, out, err = run(capsys, argv + ["--state", str(stored_state)])
    assert code == 1
    assert "eta" in err and "Traceback" not in err
    assert out == "" and not list(tmp_path.glob("s_*"))
    # refused before the state is read, as the step controls are
    code, _, err = run(capsys, argv + ["--state", str(tmp_path / "nope.npz")])
    assert code == 1 and "eta" in err


def test_stability_files_and_ratio(stored_state, tmp_path, capsys):
    prefix = str(tmp_path / "stab_")
    code, out, _ = run(
        capsys,
        [
            "stability", "--state", str(stored_state),
            "--dt", "0.02", "--horizon", "0.4",
            "--eta", "1e-3", "--eta", "1e-2",
            "--out-prefix", prefix,
        ],
    )
    assert code == 0
    summary = (tmp_path / "stab_summary.csv").read_text().splitlines()
    assert summary[0] == "eta,sup_dist"
    sup = {float(r.split(",")[0]): float(r.split(",")[1]) for r in summary[1:]}
    assert 5.0 <= sup[0.01] / sup[0.001] <= 20.0
    assert (tmp_path / "stab_eta_0.001.csv").exists()
    assert (tmp_path / "stab_eta_0.01.csv").exists()


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2.0, "Z": 2.0, "T": 1.0}))
    code, out, _ = run(capsys, ["entropy", "--config", str(cfg)])
    assert code == 0
    assert "A4 converges" in out


def test_config_flags_override_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3.0, "Z": 1.0, "T": 1.0}))
    code, out, _ = run(capsys, ["entropy", "--config", str(cfg), "--m", "2"])
    assert code == 0
    assert "A4 converges" in out


def test_config_unknown_key_exit1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2.0, "Z": 1.0, "T": 1.0, "bogus": 1}))
    code, _, _ = run(capsys, ["entropy", "--config", str(cfg)])
    assert code == 1


def test_config_not_an_object_exit1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"m": 2.0, "Z": 1.0, "T": 1.0}]))
    code, _, err = run(capsys, ["entropy", "--config", str(cfg)])
    assert code == 1
    assert "JSON object" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["file", "flag"])
def test_alpha_is_unknown_exit1(tmp_path, capsys, where):
    # the SCF has no mixing step any more; a file or a flag naming one is refused
    if where == "file":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "Z": 1, "T": 1, "q": 0.1, "alpha": 0.5}))
        argv = ["minimize", "--config", str(cfg)]
    else:
        argv = MINIMIZE_SMALL + ["--alpha", "0.5"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "alpha" in err and "Traceback" not in err


BAD_CONFIGS = {
    "entropy": {"m": "two", "Z": 1, "T": 1},
    "linear": {"m": 2, "Z": [1], "T": 1},
    "minimize": {"m": 2, "Z": 1, "T": 1, "n": 2.5},
    "sweep": {"m": 2, "Z": 1, "T": 1, "q_from": 0, "q_to": 0.1, "q_steps": "many"},
    "evolve": {"state": "min.npz", "dt": 0.1, "horizon": {"t": 1}},
    "stability": {"state": "min.npz", "dt": 0.1, "horizon": 1, "eta": [[1e-3]]},
}


@pytest.mark.parametrize("command", BAD_CONFIGS)
def test_config_bad_value_exit1(tmp_path, capsys, command):
    # a file value must pass the converter of its flag, checked before any work
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BAD_CONFIGS[command]))
    code, _, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 1
    assert err.startswith("error: config key")
    assert "Traceback" not in err


def test_config_values_read_like_flags(tmp_path, capsys):
    # strings are read like flag text, a scalar --eta like a one-item list,
    # and null leaves the default in place
    from fermitherm.cli import _merge, build_parser

    flags = dict(zip(MINIMIZE_SMALL[1::2], MINIMIZE_SMALL[2::2]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k.lstrip("-"): v for k, v in flags.items()} | {"max_iter": None}))
    _, from_flags, _ = run(capsys, MINIMIZE_SMALL)
    _, from_file, _ = run(capsys, ["minimize", "--config", str(cfg)])
    assert from_file == from_flags
    for eta, expected in ((1e-3, [1e-3]), ([1e-3, "0.01"], [1e-3, 0.01])):
        cfg.write_text(json.dumps({"eta": eta, "horizon": "1"}))
        args = build_parser().parse_args(["stability", "--config", str(cfg)])
        opts = _merge(args, {"eta": None, "horizon": None})
        assert opts == {"eta": expected, "horizon": 1.0}


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, ["linear", "--m", "1.5", "--Z", "1", "--T", "1", "--out", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_minimize_json_deterministic(tmp_path, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, MINIMIZE_SMALL + ["--out", str(path)])
        assert code in (0, 3)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_readme_commands_parse(capsys):
    # every fenced `fermitherm ...` command in the README names only flags and
    # values the parser accepts; nothing is run
    import re
    import shlex
    from pathlib import Path

    from fermitherm.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fenced = "\n".join(re.findall(r"```[a-z]*\n(.*?)```", readme, re.S))
    lines = fenced.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("fermitherm ")]
    assert {argv[0] for argv in commands} == {
        "entropy", "linear", "minimize", "sweep", "evolve", "stability",
    }
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: fermitherm {' '.join(argv)}\n"
                        + capsys.readouterr().err)
