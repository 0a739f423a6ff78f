"""Command-line interface: runs, validation failures, w2 and ot commands."""

import json
import os

import numpy as np
import pytest

from wgflow.cli import main

REPULSIVE_DIRAC_RUN = {
    "potential": {"eta": -1.0, "beta": 0.0, "terms": []},
    "initial": {"atoms": [[0.0, 1.0]], "pieces": []},
    "method": "jko",
    "tau": 2e-3,
    "n": 100,
    "t_end": 1.0,
    "diagnostics": {"energy_identity": True, "metric_derivative": True},
}


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _read_summary_final_energy(out_dir):
    lines = (out_dir / "summary.csv").read_text().strip().splitlines()
    return float(lines[-1].split(",")[1])


def test_run_jko_outputs(tmp_path):
    cfg = dict(REPULSIVE_DIRAC_RUN)
    config_path = _write(tmp_path / "config.json", cfg)
    out = tmp_path / "out"
    code = main(["run", "--config", config_path, "--out", str(out), "--quiet"])
    assert code == 0
    for name in ("trajectory.csv", "summary.csv", "manifest.json", "diagnostics.json"):
        assert (out / name).exists()
    assert _read_summary_final_energy(out) == pytest.approx(-1.0 / 3.0, abs=0.01)
    manifest = json.loads((out / "manifest.json").read_text())
    resolved = manifest["config"]
    for key in ("tau", "n", "dt", "t_end", "method", "diagnostics"):
        assert key in resolved
    assert resolved["dt"] == 1e-4  # defaulted parameter appears resolved
    # the config still carries the unused metric_derivative toggle; it runs,
    # and the manifest does not echo it
    assert "metric_derivative" not in resolved["diagnostics"]


def test_run_determinism(tmp_path):
    config_path = _write(tmp_path / "config.json", dict(REPULSIVE_DIRAC_RUN))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config_path, "--out", str(out1), "--seed", "7", "--quiet"]) == 0
    assert main(["run", "--config", config_path, "--out", str(out2), "--seed", "7", "--quiet"]) == 0
    for name in ("trajectory.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_rejects_step_bound_violation(tmp_path, capsys):
    cfg = dict(REPULSIVE_DIRAC_RUN)
    cfg["tau"] = 0.5  # 12 * 0.5 * 1 > 1
    config_path = _write(tmp_path / "config.json", cfg)
    code = main(["run", "--config", config_path, "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert "12" in record["message"]


def test_run_refuses_uncertifiable_potential(tmp_path, capsys):
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.01)
    cfg["potential"] = {"eta": 0.0, "beta": 0.5, "terms": [[-0.1, 1.5]]}
    config_path = _write(tmp_path / "config.json", cfg)
    code = main(["run", "--config", config_path, "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["field"] == "potential"


@pytest.mark.parametrize(
    "method, key, value",
    [
        ("jko", "n", 0),
        ("jko", "n", 2.7),
        ("jko", "n", "many"),
        ("exact", "n", -3),
        ("particles", "n", 0),
        ("jko", "inner_tol", -1.0),
        ("jko", "inner_max_iters", 0),
        ("jko", "inner_max_iters", 1.5),
        ("jko", "tau", float("nan")),
    ],
)
def test_run_names_the_bad_field(tmp_path, capsys, method, key, value):
    cfg = dict(REPULSIVE_DIRAC_RUN, method=method, t_end=0.1, dt=1e-2)
    cfg[key] = value
    out = tmp_path / "o"
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["field"] == key
    assert not out.exists()  # refused before any work


def test_run_rejects_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert main(["run", "--config", str(p)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_run_particles_method(tmp_path):
    cfg = {
        "potential": {"eta": 1.0},
        "initial": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        "method": "particles",
        "dt": 1e-3,
        "t_end": 2.5,
        "n": 50,
    }
    out = tmp_path / "out"
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out), "--quiet"])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(2.5, abs=1e-9)
    assert float(last[2]) == pytest.approx(0.0, abs=1e-9)  # merged at the center
    assert float(last[3]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "atoms, first, last",
    [
        # listed out of order: the run starts from the sorted atoms
        ([[1.0, 0.5], [0.0, 0.5]], [[0.0, 0.5], [1.0, 0.5]], [[0.5, 1.0]]),
        # a repeated position is one atom, so the pair collapses to one
        ([[0.0, 0.25], [0.0, 0.25], [1.0, 0.5]], [[0.0, 0.5], [1.0, 0.5]], [[0.5, 1.0]]),
    ],
)
def test_run_particles_starts_from_sorted_merged_atoms(tmp_path, atoms, first, last):
    cfg = {
        "potential": {"eta": 1.0},
        "initial": {"atoms": atoms},
        "method": "particles",
        "dt": 1e-3,
        "t_end": 3.0,
        "n": 20,
    }
    out = tmp_path / "out"
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out), "--quiet"])
    assert code == 0
    rows = np.array(
        [[float(v) for v in row.split(",")] for row in (out / "trajectory.csv").read_text().splitlines()[1:]]
    )
    assert np.array_equal(rows[rows[:, 0] == 0.0][:, 2:], first)
    assert rows[-1, 0] == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(rows[rows[:, 0] == rows[-1, 0]][:, 2:], last, atol=1e-9)


def test_run_exact_method_matches_oracle(tmp_path):
    cfg = {
        "potential": {"eta": -1.0},
        "initial": {"atoms": [[0.0, 1.0]]},
        "method": "exact",
        "tau": 0.25,
        "n": 8,
        "t_end": 1.0,
    }
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out), "--quiet"]) == 0
    from wgflow import ExactSolution, KIND_REPULSIVE, Measure1D, exact_quantile

    sol = ExactSolution(KIND_REPULSIVE, Measure1D.dirac(0.0), 1.0)
    rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        t, _, s, x = row.split(",")
        assert float(x) == pytest.approx(
            exact_quantile(sol, float(t), float(s)), abs=1e-12
        )


def test_run_particles_requires_atoms(tmp_path, capsys):
    cfg = {
        "potential": {"eta": 1.0},
        "initial": {"pieces": [[-1.0, 1.0, 1.0]]},
        "method": "particles",
    }
    assert main(["run", "--config", _write(tmp_path / "c.json", cfg)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["field"] == "initial"


def test_w2_command(tmp_path, capsys):
    a = _write(tmp_path / "a.json", {"atoms": [[0.0, 1.0]]})
    b = _write(tmp_path / "b.json", {"atoms": [[1.0, 1.0]]})
    u = _write(tmp_path / "u.json", {"pieces": [[-1.0, 1.0, 1.0]]})
    assert main(["w2", a, b]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)
    assert main(["w2", a, a]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0
    assert main(["w2", a, u]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("0.577350269190")
    assert main(["w2", a, str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_ot_command(tmp_path, capsys):
    identity = {
        "sources": [[[0.0], 0.5], [[1.0], 0.5]],
        "sinks": [[[0.0], 0.5], [[1.0], 0.5]],
    }
    assert main(["ot", _write(tmp_path / "i.json", identity)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[0].split()[1]) == 0.0
    assert float(out[1].split()[1]) == 0.0
    assert float(out[2].split()[1]) == 0.0

    crossed = {
        "sources": [[[0.0], 0.5], [[1.0], 0.5]],
        "sinks": [[[0.0], 0.5], [[1.0], 0.5]],
        "cost": [[1.0, 0.0], [0.0, 1.0]],
    }
    assert main(["ot", _write(tmp_path / "x.json", crossed)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[0].split()[1]) == 0.0

    rng = np.random.default_rng(101)
    p = rng.random(4) + 0.1
    p /= p.sum()
    q = rng.random(4) + 0.1
    q /= q.sum()
    payload = {
        "sources": [[[float(rng.uniform(-2, 2))], float(p[i])] for i in range(4)],
        "sinks": [[[float(rng.uniform(-2, 2))], float(q[j])] for j in range(4)],
    }
    assert main(["ot", _write(tmp_path / "r.json", payload)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[2].split()[1]) <= 1e-7


def test_ot_plan_dump(tmp_path, capsys):
    payload = {
        "sources": [[[0.0], 0.5], [[1.0], 0.5]],
        "sinks": [[[0.0], 0.5], [[1.0], 0.5]],
    }
    plan_path = tmp_path / "plan.csv"
    code = main(
        ["ot", _write(tmp_path / "i.json", payload), "--plan-out", str(plan_path)]
    )
    capsys.readouterr()
    assert code == 0
    rows = [
        [float(v) for v in line.split(",")]
        for line in plan_path.read_text().strip().splitlines()
    ]
    assert np.allclose(rows, [[0.5, 0.0], [0.0, 0.5]])


def test_run_solver_failure_exit_code(tmp_path, capsys):
    cfg = {
        "potential": {"beta": 1.0},
        "initial": {"pieces": [[-1.0, 1.0, 1.0]]},
        "method": "jko",
        "tau": 1e-2,
        "n": 30,
        "t_end": 0.1,
        "inner_max_iters": 1,
        "inner_tol": 1e-15,
    }
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "convergence"
    assert record["step"] == 0
    assert record["residual"] > 0
    assert record["residuals"] == [pytest.approx(record["residual"])]


def test_run_backtracking_failure_record_is_json(tmp_path, capsys, monkeypatch):
    import itertools

    import wgflow.jko as jko

    calls = itertools.count()
    monkeypatch.setattr(jko, "pair_energy", lambda W, x, m: float(next(calls)))
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.004)
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.strip()
    record = json.loads(err, parse_constant=lambda name: pytest.fail(f"{name} in {err}"))
    assert record["error"] == "convergence"
    assert record["step"] == 0
    assert record["residual"] is None
    # one residual per inner iteration: the check at the Dirac, then refusal
    assert len(record["residuals"]) == 1
    assert record["residuals"][0] > 0


def test_run_failure_record_writes_nonfinite_residuals_as_null(tmp_path, capsys, monkeypatch):
    import wgflow.jko as jko

    # a NaN force makes every residual NaN and every trial fail
    monkeypatch.setattr(jko, "pair_force", lambda W, x, m, cone: np.full(x.size, np.nan))
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.004)
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.strip()
    record = json.loads(err, parse_constant=lambda name: pytest.fail(f"{name} in {err}"))
    assert record["residual"] is None
    assert record["residuals"] == [None]


def test_run_near_linear_power_from_dirac(tmp_path):
    # a positive power with p near 1 has curvature unbounded at ties
    cfg = dict(REPULSIVE_DIRAC_RUN, tau=0.025, n=2, t_end=0.1)
    cfg["potential"] = {"eta": -1.0, "beta": 0.0, "terms": [[2.0, 1.125]]}
    out = tmp_path / "o"
    assert main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "trajectory.csv").exists()


def test_ot_unbalanced_rejected(tmp_path, capsys):
    payload = {
        "sources": [[[0.0], 0.7], [[1.0], 0.5]],
        "sinks": [[[0.0], 0.5], [[1.0], 0.5]],
    }
    assert main(["ot", _write(tmp_path / "u.json", payload)]) == 2
    capsys.readouterr()

