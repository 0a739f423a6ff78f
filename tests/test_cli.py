"""Command-line interface: runs, validation failures, w2 and ot commands."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

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
        ("jko", "t_end", True),
        ("jko", "inner_tol", True),
        ("particles", "dt", True),
        ("jko", "tau", "0.01"),
        ("jko", "n", "10"),
        ("jko", "n", 10**400),
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


@pytest.mark.parametrize(
    "method, potential",
    [
        ("jko", {"eta": -1.0, "beta": float("inf")}),
        ("jko", {"eta": float("nan")}),
        ("particles", {"eta": float("nan")}),
        ("jko", {"eta": -1.0, "terms": [[float("nan"), 1.5]]}),
        ("particles", {"eta": -1.0, "terms": [[float("nan"), 1.5]]}),
        ("particles", {"eta": -1.0, "terms": [[1.0, float("inf")]]}),
        ("jko", {"eta": -1.0, "terms": [[True, 1.5]]}),
        ("jko", {"eta": -1.0, "terms": [["1", 1.5]]}),
    ],
)
def test_run_refuses_a_potential_value_that_is_not_a_finite_number(tmp_path, capsys, method, potential):
    # the number rule of every other number field: no bool, no string, finite
    cfg = dict(REPULSIVE_DIRAC_RUN, method=method, t_end=0.1, dt=1e-2, potential=potential)
    out = tmp_path / "o"
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["field"] == "potential"
    assert not out.exists()


@pytest.mark.parametrize(
    "patch, field, named",
    [
        ({"potential": "x"}, "potential", ""),
        ({"initial": ["x"]}, "initial", ""),
        ({"diagnostics": [1]}, "diagnostics", ""),
        ({"diagnostics": {"evi_sigma": "x"}}, "diagnostics.evi_sigma", ""),
        ({"t_ned": 0.01}, "config", "t_ned"),
        ({"diagnostics": {"weak_residul": True}}, "diagnostics", "weak_residul"),
        ({"potential": {"eta": -1.0, "gamma": 1.0}}, "potential", "gamma"),
        ({"initial": {"atoms": [[0.0, 1.0]], "piece": []}}, "initial", "piece"),
        (
            {"diagnostics": {"evi_sigma": {"pieces": [[-1.0, 1.0, 1.0]], "atom": []}}},
            "diagnostics.evi_sigma",
            "atom",
        ),
    ],
)
def test_run_refuses_malformed_objects(tmp_path, capsys, patch, field, named):
    """A non-object where an object belongs, or an unknown key, is refused
    under the field that holds it, the message naming the key."""
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.01, **patch)
    out = tmp_path / "o"
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["field"] == field
    if named:
        assert repr(named) in record["message"]
    assert not out.exists()


def test_run_refuses_a_non_string_out_dir(tmp_path, capsys, monkeypatch):
    # used as-is, null and ["a"] would name the directories "None" and "['a']"
    monkeypatch.chdir(tmp_path)
    for value in (None, ["a"], 7):
        cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.01, out_dir=value)
        assert main(["run", "--config", _write(tmp_path / "c.json", cfg), "--quiet"]) == 2
        assert json.loads(capsys.readouterr().err.strip())["field"] == "out_dir"
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


@pytest.mark.parametrize("via", ["--out", "out_dir"])
@pytest.mark.parametrize("below", [False, True])
def test_run_refuses_an_output_directory_at_a_file(tmp_path, capsys, via, below):
    """An output directory that is a file, or lies under one, is refused as
    ``out_dir`` with exit 2 before the run, whether ``--out`` or the config
    names it."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    target = str(blocker / "out" if below else blocker)
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.01)
    override = ["--out", target] if via == "--out" else []
    if via == "out_dir":
        cfg["out_dir"] = target
    assert main(["run", "--config", _write(tmp_path / "c.json", cfg), *override]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert (record["error"], record["exit_code"], record["field"]) == ("output", 2, "out_dir")
    assert captured.out == ""
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("method", ["jko", "particles"])
@pytest.mark.parametrize("name", ["trajectory.csv", "summary.csv", "diagnostics.json", "manifest.json"])
def test_run_refuses_an_output_file_it_cannot_write(tmp_path, capsys, method, name):
    """An output file that cannot be opened, here a directory, is refused
    with exit 2 and an ``"output"`` record naming it, not a traceback."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    config_path = _write(tmp_path / "c.json", GOLDEN_RUNS[method])
    assert main(["run", "--config", config_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert (record["error"], record["exit_code"], record["file"]) == ("output", 2, str(out / name))
    assert captured.out == ""


@pytest.mark.parametrize("method", ["jko", "exact"])
def test_run_refuses_a_temporary_directory_it_cannot_write(tmp_path, capsys, monkeypatch, method):
    # implicit and exact runs spill their states to the temporary directory
    import tempfile

    missing = str(tmp_path / "missing")
    monkeypatch.setattr(tempfile, "tempdir", missing)
    out = tmp_path / "out"
    config_path = _write(tmp_path / "c.json", GOLDEN_RUNS[method])
    assert main(["run", "--config", config_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert (record["error"], record["exit_code"], record["file"]) == ("output", 2, missing)
    assert captured.out == "" and os.listdir(out) == []


@pytest.mark.parametrize("method, code", [("jko", 2), ("exact", 2), ("particles", 0)])
def test_run_refuses_an_unusable_tmpdir(tmp_path, method, code):
    """A ``TMPDIR`` that is set but is not a directory is refused by the runs
    that spill their states, before their first step, not passed over for
    /tmp; a particle run spills nothing and goes on."""
    missing = str(tmp_path / "missing")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, TMPDIR=missing, PYTHONPATH=src)
    out = tmp_path / "out"
    argv = ["run", "--config", _write(tmp_path / "c.json", GOLDEN_RUNS[method]), "--out", str(out), "--quiet"]
    proc = subprocess.run([sys.executable, "-m", "wgflow.cli", *argv], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")
    if code:
        record = json.loads(proc.stderr)
        assert (record["error"], record["exit_code"], record["file"]) == ("output", 2, missing)
        assert os.listdir(out) == []


def test_run_and_w2_refuse_non_object_files(tmp_path, capsys):
    assert main(["run", "--config", _write(tmp_path / "c.json", [REPULSIVE_DIRAC_RUN])]) == 2
    assert json.loads(capsys.readouterr().err.strip())["field"] == "config"
    a = _write(tmp_path / "a.json", {"atoms": [[0.0, 1.0]]})
    for payload in ([1], {"atoms": [[1.0, 1.0]], "piece": []}):
        assert main(["w2", a, _write(tmp_path / "b.json", payload)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"


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


def test_w2_command_on_a_steep_piece_that_starts_late(tmp_path, capsys):
    """An atom of 0.75 at 0 plus a uniform [0, 1000] of mass 0.25, against the
    same measure shifted by 1e-3.  The rising quantile piece starts at level
    0.75 with slope 4000, so its line meets level 0 near -3000; a distance
    formed from values there keeps only about ten digits of the shift."""
    a = _write(tmp_path / "a.json", {"atoms": [[0.0, 0.75]], "pieces": [[0.0, 1000.0, 0.25]]})
    b = _write(tmp_path / "b.json", {"atoms": [[1e-3, 0.75]], "pieces": [[1e-3, 1000.001, 0.25]]})
    assert main(["w2", a, b]) == 0
    assert capsys.readouterr().out.strip() == "0.00100000000000"
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


def test_ot_refuses_a_plan_path_it_cannot_write(tmp_path, capsys):
    """A ``--plan-out`` that is a directory, or lies under a file, is refused
    as ``plan_out`` with exit 2, and nothing is printed."""
    payload = {
        "sources": [[[0.0], 0.5], [[1.0], 0.5]],
        "sinks": [[[0.0], 0.5], [[1.0], 0.5]],
    }
    instance = _write(tmp_path / "i.json", payload)
    (tmp_path / "file").write_text("kept")
    for target in (tmp_path, tmp_path / "file" / "plan.csv"):
        assert main(["ot", instance, "--plan-out", str(target)]) == 2
        captured = capsys.readouterr()
        record = json.loads(captured.err.strip())
        assert (record["error"], record["exit_code"], record["field"]) == ("output", 2, "plan_out")
        assert captured.out == ""
    assert (tmp_path / "file").read_text() == "kept"


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
    from wgflow.potential import pair_force

    # every energy after the first, at the starting grid, is larger, so no
    # backtracking trial passes; each trial takes energy and force together
    calls = itertools.count()
    monkeypatch.setattr(
        jko, "pair_energy_force", lambda W, x, m, cone: (float(next(calls)), pair_force(W, x, m, cone))
    )
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
    from wgflow.potential import pair_energy

    # a NaN force makes every residual NaN and every trial fail
    monkeypatch.setattr(
        jko, "pair_energy_force", lambda W, x, m, cone: (pair_energy(W, x, m), np.full(x.size, np.nan))
    )
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.004)
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.strip()
    record = json.loads(err, parse_constant=lambda name: pytest.fail(f"{name} in {err}"))
    assert record["residual"] is None
    assert record["residuals"] == [None]


def test_ot_simplex_cap_record(tmp_path, capsys, monkeypatch):
    from wgflow import PivotCapReached

    def capped(inst):
        raise PivotCapReached(1000)

    monkeypatch.setattr("wgflow.transport.solve_primal", capped)
    payload = {"sources": [[[0.0], 1.0]], "sinks": [[[1.0], 1.0]]}
    assert main(["ot", _write(tmp_path / "i.json", payload)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "simplex",
        "exit_code": 3,
        "pivots": 1000,
        "message": "transportation simplex did not terminate",
    }


def test_ot_near_tied_costs_solve(tmp_path, capsys):
    # costs near 1e6 tied to within 0.1 leave about 1e-10 of rounding in the
    # potentials; under a threshold of -1e-12 not scaled to the costs this
    # instance pivoted until the cap and exited 3
    from oracles import linprog_transport_minimum

    e = 1e6
    cost = [
        [0.1, 3 * e + 0.1, 2 * e + 0.2, e + 0.1, e + 0.1],
        [3 * e + 0.1, 0.0, 2 * e, 0.1, 0.2],
        [2 * e, 3 * e + 0.2, 2 * e + 0.2, 3 * e, 2 * e + 0.1],
        [3 * e, 2 * e + 0.2, 0.2, 3 * e + 0.1, e],
        [2 * e + 0.2, e + 0.1, 0.2, 3 * e + 0.2, 3 * e + 0.2],
    ]
    atoms = [[[0.0], 0.2]] * 5
    payload = {"sources": atoms, "sinks": atoms, "cost": cost}
    assert main(["ot", _write(tmp_path / "t.json", payload)]) == 0
    values = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(values["gap"]) <= 1e-7
    optimum = linprog_transport_minimum(np.full(5, 0.2), np.full(5, 0.2), cost)
    assert float(values["primal"]) == pytest.approx(optimum, rel=1e-9, abs=0.0)


def test_ot_forbidden_cells_solve(tmp_path, capsys):
    # cells of cost 1e10 beside costs of 1e-3: a threshold scaled to the
    # largest cost stopped at a plan of cost 8e-4, which the certificate
    # refused with exit code 2
    cost = [[1e-3, 0.0, 1e10], [0.0, 1e-3, 1e10], [1e10, 1e10, 0.0]]
    atoms = [[[0.0], 0.4], [[0.0], 0.4], [[0.0], 0.2]]
    payload = {"sources": atoms, "sinks": atoms, "cost": cost}
    assert main(["ot", _write(tmp_path / "t.json", payload)]) == 0
    values = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(values["primal"]) == 0.0
    assert float(values["gap"]) <= 1e-7


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


def test_ot_reads_only_the_instance_keys(tmp_path, capsys):
    base = {"sources": [[[0.0], 0.5], [[1.0], 0.5]], "sinks": [[[0.0], 0.5], [[1.0], 0.5]]}
    cost = [[1.0, 5.0], [5.0, 1.0]]
    assert main(["ot", _write(tmp_path / "c.json", dict(base, cost=cost))]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "primal 1"
    # a misspelled cost must not be solved with the default squared distance
    for payload in (dict(base, cots=cost), {"sources": base["sources"]}):
        assert main(["ot", _write(tmp_path / "i.json", payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip())["error"] == "parse"


@pytest.mark.parametrize(
    "field, text",
    [
        ("source_masses", '{"sources": [[0, NaN], [1, 1]], "sinks": [[0, 1]]}'),
        ("sink_points", '{"sources": [[0, 1]], "sinks": [[-Infinity, 1]]}'),
        ("cost", '{"sources": [[0, 0.5], [1, 0.5]], "sinks": [[0, 1]], "cost": [[NaN], [1]]}'),
        (
            "cost",
            '{"sources": [[0, 0.5], [1, 0.5]], "sinks": [[0, 0.5], [1, 0.5]],'
            ' "cost": [[Infinity, 1], [1, 1]]}',
        ),
        ("source_points have dimension 1, sink_points 2", '{"sources": [[1, 1]], "sinks": [[[0, 5], 1]]}'),
    ],
)
def test_ot_refuses_non_finite_and_mixed_dimensions(tmp_path, capsys, field, text):
    path = tmp_path / "i.json"
    path.write_text(text)
    assert main(["ot", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["error"] == "parse"
    assert field in record["message"]


@pytest.mark.parametrize("key", ["energy_identity", "weak_residual", "metric_derivative"])
@pytest.mark.parametrize("value", ["no", 1, None])
def test_run_refuses_non_boolean_toggles(tmp_path, capsys, key, value):
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.01, diagnostics={key: value})
    out = tmp_path / "o"
    code = main(["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["field"] == f"diagnostics.{key}"
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, field",
    [
        ("config", "config"),
        ("diagnostics", "diagnostics"),
        ("potential", "potential"),
        ("initial", "initial"),
        ("evi_sigma", "diagnostics.evi_sigma"),
        ("w2", None),
        ("ot", None),
    ],
)
def test_every_json_entry_point_refuses_an_unknown_key(tmp_path, capsys, entry, field):
    measure = {"atoms": [[0.0, 1.0]], "pieces": []}
    instance = {"sources": [[[0.0], 1.0]], "sinks": [[[1.0], 1.0]]}
    cfg = dict(REPULSIVE_DIRAC_RUN, t_end=0.01)
    cfg["diagnostics"] = dict(cfg["diagnostics"], evi_sigma=measure)
    if entry == "config":
        cfg["bogus"] = 1
    elif entry == "evi_sigma":
        cfg["diagnostics"]["evi_sigma"] = dict(measure, bogus=1)
    elif entry in cfg:
        cfg[entry] = dict(cfg[entry], bogus=1)
    out = tmp_path / "o"
    argv = {
        "w2": ["w2", _write(tmp_path / "a.json", measure), _write(tmp_path / "b.json", dict(measure, bogus=1))],
        "ot": ["ot", _write(tmp_path / "i.json", dict(instance, bogus=1))],
    }.get(entry, ["run", "--config", _write(tmp_path / "c.json", cfg), "--out", str(out)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["error"] == ("parse" if field is None else "config")
    assert record.get("field") == field
    assert "'bogus'" in record["message"]
    assert not out.exists()



GOLDEN_DIAGNOSTICS = {
    "energy_identity": True,
    "evi_sigma": {"pieces": [[-1.6875, 1.6875, 1.0]]},
    "weak_residual": True,
}
GOLDEN_RUNS = {
    "jko": {
        "potential": {"eta": -1.0, "terms": [[0.5, 1.5]]},
        "initial": {"atoms": [[-0.5, 0.5], [0.5, 0.5]]},
        "method": "jko",
        "tau": 0.01,
        "n": 16,
        "t_end": 0.2,
        "diagnostics": GOLDEN_DIAGNOSTICS,
    },
    "particles": {
        "potential": {"eta": 1.0},
        "initial": {"atoms": [[-1.0, 0.25], [0.0, 0.25], [1.0, 0.5]]},
        "method": "particles",
        "dt": 0.05,
        "t_end": 2.0,
        "n": 16,
        "diagnostics": GOLDEN_DIAGNOSTICS,
    },
    # 303 records in three segments of masses (merges at records 134 and
    # 168) and row blocks of 40 records: blocks end inside segments
    "particles_blocks": {
        "potential": {"eta": 1.0},
        "initial": {"atoms": [[-1.0, 0.25], [0.0, 0.25], [1.0, 0.5]]},
        "method": "particles",
        "dt": 0.01,
        "t_end": 3.0,
        "n": 100,
        "diagnostics": GOLDEN_DIAGNOSTICS,
    },
    "exact": {
        "potential": {"eta": 1.0},
        "initial": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        "method": "exact",
        "tau": 0.05,
        "n": 16,
        "t_end": 2.5,
        "diagnostics": GOLDEN_DIAGNOSTICS,
    },
}
# sha256 of trajectory.csv, summary.csv and diagnostics.json.  The summaries
# and diagnostics of the jko and particle runs take their squared distances as
# row-wise mean squares (``measures._row_w2sq``), not as squared square roots:
# each squared distance is within 1 ulp of the old, each step cost within 2.
GOLDEN_SHA256 = {
    "jko": (
        "0690421aea337d79f9c7fe4f52bdbb504b90b2f6c417cceeed82917a17c8d2f9",
        "f23692ebea707f1e3f45b297836fc0e2554fd86949c6021dbd7708c0a5c13e9d",
        "0b72a21a10e7714f3f9f71f1b3be4a45aa7565dc8e2da3e326a81c1e72df949b",
    ),
    "particles": (
        "368ee867ece4c15da9e552aaef49ee08a89d365f8e138968944ec4b8f9dcd90d",
        "33b1b5d6327b2b30e803587a43e98c2dd67b140d75742f03d97f16de708e54a8",
        "65938ee1ced3c53dd7be87c0b648dacce389f423d9bc7ba95a66bbf07c1fde2d",
    ),
    "particles_blocks": (
        "6b1e8a4f6c855fcb4ad37e6dbe054e3a6118ee6820e3def71dbc485342a4ffe8",
        "9bbfaf00c99073ca23e4fcf7cef0682350dc7142adf5602362f12dff2791c42d",
        "3cfcff8e563f962e9fc6d4c47f791c023a793238fc7fa956c94b98772339caab",
    ),
    "exact": (
        "ff5b80dab42439d08d4546ede8b92556957a7343884bcb4d7c099d1f7e599a4a",
        "3b903395c362c013199805d89ddbaf7e06409a003c106a355ebddea248bb4fa0",
        "4d1fb8c0a267fdf7412f28aab0b89ebfb9cc6e6c9ea1f873c886dafa7b7a1f9d",
    ),
}


@pytest.mark.parametrize("method", sorted(GOLDEN_RUNS))
def test_run_outputs_are_golden(tmp_path, method):
    config_path = _write(tmp_path / "config.json", GOLDEN_RUNS[method])
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out), "--quiet"]) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trajectory.csv", "summary.csv", "diagnostics.json")
    )
    assert digests == GOLDEN_SHA256[method]


# five particles, 20,001 records at dt = 1e-4 on 400 nodes: the quantile
# grids as one (records, n) array would take 64 MB
MEMORY_RUN = {
    "potential": {"eta": 1.0},
    "initial": {"atoms": [[-2.7, 0.2], [-1.0, 0.2], [0.0, 0.2], [1.0, 0.2], [2.7, 0.2]]},
    "method": "particles",
    "dt": 1e-4,
    "t_end": 2.0,
    "n": 400,
    "diagnostics": GOLDEN_DIAGNOSTICS,
}
MEMORY_BOUND_MB = 8.0


def _memory_run():
    """``MEMORY_RUN``'s resolved config and its particle history."""
    from wgflow import cli
    from wgflow.particles import ParticleState, integrate

    cfg = cli.ExperimentConfig.from_json_dict(MEMORY_RUN)
    atoms = cfg.initial.atoms
    history = integrate(cfg.potential, ParticleState([x for x, _ in atoms], [m for _, m in atoms]), cfg.t_end, cfg.dt)
    assert len(history) > 20_000
    return cfg, history


def _traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_particle_run_memory_stays_far_below_its_grids(tmp_path):
    from wgflow import cli
    from wgflow.particles import quantile_trajectory

    cfg, history = _memory_run()
    tracemalloc.start()
    try:
        traj = quantile_trajectory(cfg.potential, history, cfg.n)
        cli._write_summary(str(tmp_path / "summary.csv"), traj)
        diagnostics = cli._run_diagnostics(cfg, traj)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert sorted(diagnostics) == ["energy_identity_residual", "evi_max_residual", "weak_residual"]
    assert peak < MEMORY_BOUND_MB


# An implicit and an exact run of 301 records on 4000 nodes: their grids as
# one (records, n) array would take 9.6 MB, more than MEMORY_BOUND_MB
GRID_MEMORY_RUNS = {
    "jko": {
        "potential": {"eta": -1.0},
        "initial": {"atoms": [[0.0, 1.0]]},
        "method": "jko",
        "tau": 0.01,
        "n": 4000,
        "t_end": 3.0,
    },
    "exact": {
        "potential": {"eta": 1.0},
        "initial": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        "method": "exact",
        "tau": 0.01,
        "n": 4000,
        "t_end": 3.0,
    },
}


@pytest.mark.parametrize("method", sorted(GRID_MEMORY_RUNS))
def test_grid_run_memory_stays_below_its_grids(tmp_path, method):
    """The run, its summary, diagnostics and grid CSV together: the states
    are spilled to a file and read back in row blocks."""
    from wgflow import cli
    from wgflow.jko import run_flow

    cfg = cli.ExperimentConfig.from_json_dict(dict(GRID_MEMORY_RUNS[method], diagnostics=GOLDEN_DIAGNOSTICS))
    records = round(cfg.t_end / cfg.tau) + 1
    assert records * cfg.n * 8 > MEMORY_BOUND_MB * 2**20

    def run():
        traj = run_flow(cfg.potential, cfg.initial, cfg.jko_config()) if method == "jko" else cli._exact_trajectory(cfg)
        assert traj.times.size == records
        cli._write_summary(str(tmp_path / "summary.csv"), traj)
        assert sorted(cli._run_diagnostics(cfg, traj)) == ["energy_identity_residual", "evi_max_residual", "weak_residual"]
        cli._write_grid_trajectory(str(tmp_path / "trajectory.csv"), traj)

    assert _traced_peak_mb(run) < MEMORY_BOUND_MB


def test_particle_run_never_forms_its_grids(tmp_path, monkeypatch):
    from wgflow.jko import FlowTrajectory

    reads = []
    grids = FlowTrajectory.grids
    monkeypatch.setattr(FlowTrajectory, "grids", property(lambda traj: reads.append(traj) or grids.fget(traj)))
    config_path = _write(tmp_path / "config.json", GOLDEN_RUNS["particles_blocks"])
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert reads == []
    # nor does a run that writes its grids: the grid CSV reads them in row
    # blocks through ``rows``
    for method in ("exact", "jko"):
        config_path = _write(tmp_path / "config.json", GOLDEN_RUNS[method])
        assert main(["run", "--config", config_path, "--out", str(tmp_path / method), "--quiet"]) == 0
        assert (tmp_path / method / "trajectory.csv").stat().st_size > 0
    assert reads == []


@pytest.mark.parametrize("n", [1, 200, 600])
def test_grid_trajectory_csv_matches_the_per_value_writer(tmp_path, n):
    # n = 600 spans three row templates of the writer
    from oracles import per_value_grid_csv
    from wgflow.cli import _write_grid_trajectory
    from wgflow.jko import FlowTrajectory
    from wgflow.measures import midpoint_nodes

    first = np.sort(np.resize([-0.0, 5e-324, 1e-5, 1e17, 1.0 / 3.0], n))
    grids = np.array([first, -first[::-1]])
    times = [0.0, 0.1]
    _write_grid_trajectory(str(tmp_path / "fast.csv"), FlowTrajectory(times, grids, [0.0, 0.0], [0.0]))
    per_value_grid_csv(tmp_path / "oracle.csv", times, grids, midpoint_nodes(n))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# The CSV writers format a block of records at a time.  At MEMORY_RUN's
# 20,001 records, formatting the whole time axis and a whole segment at once
# peaked at 3.69 MB traced in the particle writer and 2.68 MB in the summary's.
def test_particle_trajectory_writer_memory_stays_bounded(tmp_path):
    from wgflow import cli

    _, history = _memory_run()
    path = str(tmp_path / "trajectory.csv")
    assert _traced_peak_mb(lambda: cli._write_particle_trajectory(path, history)) < 0.5


def test_summary_writer_memory_stays_bounded(tmp_path):
    from wgflow import cli
    from wgflow.particles import quantile_trajectory

    cfg, history = _memory_run()
    traj = quantile_trajectory(cfg.potential, history, cfg.n)
    path = str(tmp_path / "summary.csv")
    assert _traced_peak_mb(lambda: cli._write_summary(path, traj)) < 1.5


CSV_VALUES = [-0.0, 5e-324, 1e-5, 1e17, 1.0 / 3.0, -2.5]


@pytest.mark.parametrize(
    "segments",
    [
        [(1, 1)],
        # several segments, one of more records than a block of times
        [(3, 5), (2, 300), (1, 4)],
        # more particles than one row template
        [(300, 3)],
    ],
)
def test_particle_trajectory_csv_matches_the_per_value_writer(tmp_path, segments):
    """``segments`` lists ``(particles, records)`` per segment."""
    from oracles import per_value_particle_csv
    from wgflow.cli import _write_particle_trajectory
    from wgflow.particles import ParticleHistory

    parts = [
        (np.resize(CSV_VALUES[::-1], size), np.resize(CSV_VALUES, (records, size)))
        for size, records in segments
    ]
    times = np.arange(sum(records for _, records in segments)) / 3.0
    times[0] = -0.0
    _write_particle_trajectory(str(tmp_path / "fast.csv"), ParticleHistory(times, parts))
    per_value_particle_csv(tmp_path / "oracle.csv", times, parts)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("records", [1, 2, 300])
def test_summary_csv_matches_the_per_value_writer(tmp_path, records):
    # one record writes only the first row, with no speed or cost; 300
    # records span two blocks of times
    from oracles import per_value_summary_csv
    from wgflow.analytic import metric_derivative_estimate
    from wgflow.cli import _write_summary
    from wgflow.jko import FlowTrajectory

    times = np.arange(records) / 3.0
    times[0] = -0.0
    grids = np.sort(np.resize(CSV_VALUES, (records, 7)), axis=1)
    energies = np.resize(np.roll(CSV_VALUES, 2), records)
    traj = FlowTrajectory(times, grids, energies, np.resize(CSV_VALUES[::-1], records - 1))
    speeds = metric_derivative_estimate(traj) if records > 1 else []
    _write_summary(str(tmp_path / "fast.csv"), traj)
    per_value_summary_csv(tmp_path / "oracle.csv", times, traj.energies, speeds, traj.step_costs)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    if records == 1:
        assert (tmp_path / "fast.csv").read_text().splitlines()[1:] == ["-0,0.33333333333333331,,"]


def test_summary_speeds_are_the_metric_derivative_estimate_bit_for_bit(tmp_path):
    """The summary takes its speeds off the squared step distances the
    trajectory holds; they equal ``metric_derivative_estimate``'s, and the
    row-wise W2 of all the rows at once over the time steps, for the
    trajectory of each method and for one built from arrays."""
    from wgflow.analytic import metric_derivative_estimate
    from wgflow.cli import ExperimentConfig, _exact_trajectory, _write_summary
    from wgflow.jko import FlowTrajectory, run_flow
    from wgflow.measures import _row_w2sq
    from wgflow.particles import ParticleState, integrate, quantile_trajectory

    jko, parts, exact = (ExperimentConfig.from_json_dict(GOLDEN_RUNS[m]) for m in ("jko", "particles_blocks", "exact"))
    history = integrate(parts.potential, ParticleState(*zip(*parts.initial.atoms)), parts.t_end, parts.dt)
    # 300 records of 50 values: four row blocks
    grids = np.sort(np.random.default_rng(5).normal(size=(300, 50)), axis=1)
    trajectories = {
        "jko": run_flow(jko.potential, jko.initial, jko.jko_config()),
        "particles": quantile_trajectory(parts.potential, history, parts.n),
        "exact": _exact_trajectory(exact),
        "arrays": FlowTrajectory(np.arange(300) / 7.0, grids, np.zeros(300), np.zeros(299)),
    }
    for name, traj in trajectories.items():
        path = tmp_path / f"{name}.csv"
        _write_summary(str(path), traj)
        speeds = [float(line.split(",")[2]).hex() for line in path.read_text().splitlines()[2:]]
        assert speeds == [v.hex() for v in metric_derivative_estimate(traj).tolist()], name
        g = traj.grids
        whole = np.sqrt(_row_w2sq(g[:-1], g[1:])) / np.diff(traj.times)
        assert speeds == [v.hex() for v in whole.tolist()], name
