import json

import numpy as np
import pytest

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


def test_sweep_bad_range_exit1(capsys):
    code, _, _ = run(
        capsys,
        [
            "sweep", "--m", "2", "--Z", "1", "--T", "1",
            "--q-from", "0.2", "--q-to", "0.1", "--q-steps", "3",
        ],
    )
    assert code == 1


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
    result, spec, Z, T = _load_state(str(stored_state))
    assert result.converged and result.energy is None
    assert (spec.m, Z, T) == (2.0, 1.0, 1.0)


def test_evolve_factors_stored_state_once(stored_state, tmp_path, capsys, monkeypatch):
    # validation factors the loaded blocks; evolve reads the same factors for
    # the initial state and the reference
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
    assert calls == [2]


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


@pytest.mark.parametrize(
    "tamper",
    ["asymmetric", "shape", "spectrum", "missing", "lmax_negative", "rmax_nan", "Z_nan"],
)
def test_evolve_rejects_tampered_state_exit4(stored_state, tmp_path, capsys, tamper):
    with np.load(stored_state) as data:
        arrays = dict(data)
    block = arrays["block_1"]
    if tamper == "lmax_negative":
        arrays["l_max"] = np.array(-1)
    elif tamper == "rmax_nan":
        arrays["r_max"] = np.array(np.nan)
    elif tamper == "Z_nan":
        arrays["Z"] = np.array(np.nan)
    elif tamper == "asymmetric":
        block[0, 1] += 1e-3
    elif tamper == "shape":
        arrays["block_1"] = block[:-1, :-1]
    elif tamper == "spectrum":
        arrays["block_1"] = 2.0 * np.eye(block.shape[0])
    else:
        del arrays["block_1"]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    code, _, err = run(
        capsys, ["evolve", "--state", str(bad), "--dt", "0.02", "--horizon", "0.1"]
    )
    assert code == 4
    assert "error:" in err


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
