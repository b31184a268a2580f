import json
import math
import re
import shlex
import time
from pathlib import Path

import pytest

from porodim.cli import _fmt, _simulate_one_path, build_parser, main
from porodim.dimension import sampled_trajectory
from porodim.measure import (
    _PATH_STREAM,
    CascadeDirichlet,
    GeneratorSpec,
    build_tree_measure,
    derived_rng,
    spec_from_json,
)
from porodim.porosity import TranslationTrial, porous_retree


#: Runs rejected for their dimension d > 8, k*d > 16, or k(alpha)*d = 32 > 16.
REJECTED_BEFORE_ANY_NODE = [
    ["simulate", "--gen", "uniform", "--d", "30", "--depth", "2", "--paths", "1"],
    ["simulate", "--gen", "bernoulli", "--weights", "0.5,0.5", "--k", "40",
     "--depth", "5", "--paths", "1"],
    ["translate", "--gen", "cantor_middle_half", "--alpha", "1e-9", "--depth", "50",
     "--trials", "1"],
]

#: Runs past simulate's depth x paths cap or translate's trial cap
OVER_SIZE_CAP = [
    ["simulate", "--gen", "uniform", "--depth", "100000000", "--paths", "1"],
    ["simulate", "--gen", "uniform", "--depth", "100001", "--paths", "1"],
    ["simulate", "--gen", "uniform", "--depth", "1000", "--paths", "101"],
    ["translate", "--gen", "cantor_middle_half", "--trials", "100000000"],
    ["translate", "--gen", "cantor_middle_half", "--trials", "10001"],
]


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def body(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


def rows_of(text: str) -> list[dict]:
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSolve:
    def test_default_curve_pair(self, tmp_path):
        code, text = run(tmp_path, "solve")
        assert code == 0
        assert text.startswith("# command=solve")
        rows = rows_of(text)
        assert len(rows) == 202  # two curves, 101 points each
        k1 = [r for r in rows if r["k"] == "1"]
        assert float(k1[0]["t"]) == pytest.approx(2 - math.log2(3), abs=1e-9)
        assert float(k1[-1]["t"]) == pytest.approx(0.0, abs=1e-9)

    def test_single_curve(self, tmp_path):
        code, text = run(tmp_path, "solve", "--d", "1", "--k", "1", "--points", "11")
        assert code == 0
        assert len(rows_of(text)) == 11

    def test_rerun_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "solve", "--points", "21")
        _, b = run(tmp_path, "solve", "--points", "21")
        assert a == b


class TestSimulate:
    def test_uniform_passes_trivially(self, tmp_path):
        code, text = run(
            tmp_path, "simulate", "--gen", "uniform", "--d", "2",
            "--k", "1", "--eps", "0.2", "--depth", "60", "--paths", "4",
            "--seed", "1",
        )
        assert code == 0
        summary = rows_of(text)[-1]
        assert summary["path"] == "summary"
        assert float(summary["Dn"]) == 2.0
        assert float(summary["eta_hat"]) == 0.0
        assert float(summary["bound"]) == 2.0
        assert summary["pass"] == "1"

    def test_bernoulli_bound_check(self, tmp_path):
        code, text = run(
            tmp_path, "simulate", "--gen", "bernoulli", "--d", "1",
            "--weights", "0.25,0.75", "--k", "1", "--eps", "0.3",
            "--depth", "2000", "--paths", "8", "--seed", "5", "--strict",
        )
        assert code == 0
        summary = rows_of(text)[-1]
        assert float(summary["eta_hat"]) == pytest.approx(1.0)
        assert float(summary["Dn"]) == pytest.approx(0.811278, abs=1e-4)
        assert float(summary["bound"]) == pytest.approx(0.881291, abs=1e-5)
        assert summary["pass"] == "1"

    def test_strict_failure_exit_code(self, tmp_path):
        code, _ = run(
            tmp_path, "simulate", "--gen", "uniform", "--d", "1",
            "--k", "1", "--eps", "0.5", "--depth", "40", "--paths", "2",
            "--seed", "1", "--slack", "-0.5", "--strict",
        )
        assert code == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(
            json.dumps(
                {
                    "d": 1,
                    "seed": 9,
                    "depth": 300,
                    "generator": {
                        "type": "mixture",
                        "mixture": [
                            {"weights": [0.5, 0.5], "prob": 0.5},
                            {"weights": [0.1, 0.9], "prob": 0.5},
                        ],
                    },
                }
            )
        )
        code, text = run(
            tmp_path, "simulate", "--config", str(cfg), "--k", "1",
            "--eps", "0.1", "--paths", "4",
        )
        assert code == 0
        assert "# depth=300" in text  # depth picked up from the config file
        summary = rows_of(text)[-1]
        assert 0.0 < float(summary["Dn"]) <= 1.0

    def test_jobs_parallel_matches_serial(self, tmp_path):
        args = [
            "simulate", "--gen", "bernoulli", "--d", "1", "--weights",
            "0.3,0.7", "--k", "1", "--eps", "0.3", "--depth", "200",
            "--paths", "6", "--seed", "3",
        ]
        _, serial = run(tmp_path, *args, "--jobs", "1")
        _, parallel = run(tmp_path, *args, "--jobs", "2")
        assert body(serial) == body(parallel)

    def test_trajectory_file(self, tmp_path):
        traj = tmp_path / "traj.csv"
        code, _ = run(
            tmp_path, "simulate", "--gen", "bernoulli", "--d", "1",
            "--weights", "0.25,0.75", "--k", "1", "--eps", "0.3",
            "--depth", "50", "--paths", "2", "--seed", "7",
            "--trajectories", str(traj),
        )
        assert code == 0
        lines = rows_of(traj.read_text())
        assert len(lines) == 100
        assert set(lines[0]) == {
            "path", "n", "I", "L", "H", "lambda", "Mbar", "Dn", "resH", "resL", "porous",
        }
        assert all(row["Mbar"] == row["L"] for row in lines)

    def test_trajectory_rows_match_sampled_trajectory(self, tmp_path):
        # the rows come from the simulated walks; an independent single-pass
        # trajectory of the same re-tree and path seeds must reproduce them
        cfg = tmp_path / "dirichlet.json"
        cfg.write_text(json.dumps(
            {"d": 2, "generator": {"type": "dirichlet", "concentration": [2.0] * 4}}
        ))
        traj = tmp_path / "traj.csv"
        depth, paths, k, eps, seed = 40, 3, 2, 0.0125, 13
        code, _ = run(
            tmp_path, "simulate", "--config", str(cfg), "--k", str(k),
            "--eps", str(eps), "--depth", str(depth), "--paths", str(paths),
            "--seed", str(seed), "--trajectories", str(traj),
        )
        assert code == 0
        spec, _ = spec_from_json(cfg.read_text())
        spec = GeneratorSpec(spec.d, spec.model, seed)
        base = build_tree_measure(spec, "uniform", depth * k + k,
                                  max_level=depth * k + k)
        view = porous_retree(base, k, eps)
        expected = []
        for i in range(paths):
            t = sampled_trajectory(view, depth, derived_rng(seed, _PATH_STREAM, i))
            assert 0 < t.porous.sum() < depth  # both kinds of step occur
            expected.extend(",".join(_fmt(x) for x in (i, *row)) for row in t.csv_rows())
        assert body(traj.read_text()).splitlines()[1:] == expected

    def test_each_node_realized_once(self, monkeypatch):
        import porodim.measure

        calls = {}
        real = porodim.measure.node_weights

        def counting(spec, q):
            calls[q] = calls.get(q, 0) + 1
            return real(spec, q)

        monkeypatch.setattr(porodim.measure, "node_weights", counting)
        spec = GeneratorSpec(2, CascadeDirichlet((2.0,) * 4), 106)
        for k, eps in ((1, 0.05), (2, 0.0125), (3, 0.00078)):
            calls.clear()
            row, _ = _simulate_one_path(spec, k, eps, 60, 106, 0)
            porous_steps, level = row[6], row[7]
            assert 0 < porous_steps < 60
            assert len(calls) >= level
            assert set(calls.values()) == {1}

    def test_jobs_clamped_to_tasks_and_cpus(self, tmp_path, monkeypatch):
        workers = []

        class RecordingPool:
            """Records the requested worker count and maps in-process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("porodim.cli.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("porodim.cli.os.cpu_count", lambda: 4)
        sim = ["simulate", "--gen", "bernoulli", "--d", "1", "--weights",
               "0.3,0.7", "--k", "1", "--eps", "0.3", "--depth", "20", "--seed", "3"]
        tr = ["translate", "--gen", "cantor_middle_half", "--alpha", "0.25",
              "--eps", "0", "--depth", "10", "--seed", "4"]
        for argv, expected in (
            ([*sim, "--paths", "3", "--jobs", "10000"], [3]),
            ([*sim, "--paths", "6", "--jobs", "10000"], [4]),
            ([*sim, "--paths", "6", "--jobs", "2"], [2]),
            ([*sim, "--paths", "6", "--jobs", "1"], []),
            ([*tr, "--trials", "2", "--jobs", "10000"], [2]),
            ([*tr, "--trials", "7", "--jobs", "10000"], [4]),
        ):
            workers.clear()
            code, _ = run(tmp_path, *argv)
            assert code == 0
            assert workers == expected


class TestOracle:
    def test_battery(self, tmp_path):
        code, text = run(tmp_path, "oracle", "--grid", "300")
        assert code == 0
        rows = rows_of(text)
        assert len(rows) == 12
        assert all(float(r["gap"]) < 2e-3 for r in rows)

    def test_single_case(self, tmp_path):
        code, text = run(
            tmp_path, "oracle", "--d", "1", "--k", "1", "--eps", "0.3",
            "--grid", "500",
        )
        assert code == 0
        row = rows_of(text)[0]
        assert float(row["value_solver"]) == pytest.approx(0.881291, abs=1e-6)


class TestTranslate:
    def test_cantor_run(self, tmp_path):
        code, text = run(
            tmp_path, "translate", "--gen", "cantor_middle_half",
            "--alpha", "0.25", "--eps", "0", "--trials", "10",
            "--depth", "12", "--seed", "2", "--eta", "1.0",
        )
        assert code == 0
        rows = rows_of(text)
        assert len(rows) == 10
        assert all(r["k"] == "4" for r in rows)
        assert all(float(r["fraction"]) >= 0.25 for r in rows)
        assert "# mean_fraction=" in text

    def test_rerun_identical(self, tmp_path):
        args = [
            "translate", "--gen", "cantor_middle_half", "--alpha", "0.25",
            "--eps", "0", "--trials", "5", "--depth", "10", "--seed", "11",
        ]
        _, a = run(tmp_path, *args)
        _, b = run(tmp_path, *args)
        assert a == b

    def test_jobs_parallel_matches_serial(self, tmp_path):
        args = [
            "translate", "--gen", "cantor_middle_half", "--alpha", "0.25",
            "--eps", "0", "--trials", "7", "--depth", "10", "--seed", "4",
        ]
        _, serial = run(tmp_path, *args, "--jobs", "1")
        _, parallel = run(tmp_path, *args, "--jobs", "3")
        assert body(serial) == body(parallel)


class TestHmin:
    def test_table(self, tmp_path):
        code, text = run(tmp_path, "hmin", "--d", "1", "--eta", "0.5", "--points", "5")
        assert code == 0
        rows = rows_of(text)
        assert len(rows) == 5
        assert float(rows[-1]["hmin"]) == pytest.approx(math.log(2), abs=1e-12)

    def test_single_eps(self, tmp_path):
        code, text = run(tmp_path, "hmin", "--d", "1", "--eta", "0.5", "--eps", "0.25")
        assert code == 0
        row = rows_of(text)[0]
        assert float(row["hmin"]) == pytest.approx(0.562335, abs=1e-6)
        assert float(row["lower_bound"]) == pytest.approx(0.405639, abs=1e-6)


class TestErrors:
    def test_parameter_error_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "solve", "--d", "2", "--k", "0")
        assert code == 1

    def test_missing_generator_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--k", "1", "--eps", "0.1")
        assert code == 1

    def test_bad_flag_exit_1(self, capsys):
        assert main(["simulate", "--nonsense"]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--d", "1"],
            ["solve", "--k", "2"],
            ["oracle", "--d", "1"],
            ["simulate", "--config", "{cfg}", "--gen", "uniform"],
            ["simulate", "--config", "{cfg}", "--d", "2"],
            ["translate", "--config", "{cfg}", "--weights", "0.5,0.5"],
            ["simulate", "--gen", "uniform", "--weights", "0.5,0.5"],
            ["simulate", "--gen", "bernoulli"],
            ["simulate", "--gen", "cantor_middle_half", "--d", "2"],
            ["simulate", "--gen", "uniform", "--alpha", "0.1"],
            ["translate", "--gen", "cantor_middle_half", "--k", "5"],
            ["solve", "--paths", "3"],
            ["oracle", "--seed", "1"],
            ["hmin", "--strict"],
            ["simulate", "--gen", "uniform", "--jobs", "0"],
            ["translate", "--gen", "cantor_middle_half", "--jobs", "-1"],
            ["solve", "--jobs", "0"],
        ],
    )
    def test_ignored_or_conflicting_flag_exit_1(self, tmp_path, capsys, argv):
        cfg = tmp_path / "gen.json"
        cfg.write_text('{"d": 1, "generator": {"type": "uniform"}}')
        argv = [str(cfg) if a == "{cfg}" else a for a in argv]
        code = main([*argv, "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert not (tmp_path / "out.csv").exists()

    def test_bad_config_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"generator": {"type": "uniform"}}')
        code, _ = run(tmp_path, "simulate", "--config", str(cfg), "--k", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "generator, extra",
        [
            ({"type": "bernoulli"}, {}),
            ({"type": "mixture", "mixture": [{"weights": [0.5, 0.5]}]}, {}),
            ({"type": "dirichlet"}, {}),
            ({"type": "bernoulli", "weights": 0.5}, {}),
            ({"type": "uniform"}, {"depth": [3]}),
        ],
    )
    def test_malformed_generator_config_one_line(
        self, tmp_path, capsys, generator, extra
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"d": 1, "generator": generator, **extra}))
        code, _ = run(tmp_path, "simulate", "--config", str(cfg), "--k", "1")
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "malformed generator config" in err and generator["type"] in err
        assert "Traceback" not in err

    def test_oracle_beyond_brute_force_states_limit(self, tmp_path, capsys):
        code, _ = run(tmp_path, "oracle", "--d", "3", "--k", "1")
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: grid^k enumeration for d=3, k=1 is expensive; "
            "the brute force covers d <= 2 and k <= 3\n"
        )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--gen", "uniform", "--depth", "0", "--paths", "2"], "--depth"),
            (["simulate", "--gen", "uniform", "--depth", "5", "--paths", "0"], "--paths"),
            (["translate", "--gen", "cantor_middle_half", "--trials", "0"], "--trials"),
            (["hmin", "--points", "1"], "--points"),
        ],
    )
    def test_empty_size_exit_1_one_line(self, tmp_path, capsys, argv, flag):
        code = main([*argv, "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert flag.lstrip("-") in err
        assert "Traceback" not in err

    def test_bad_ratio_reports_given_value(self, tmp_path, capsys):
        code = main(["translate", "--gen", "cantor_middle_half", "--ratio", "0.3",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ratio must be a power of two in (0, 1), got 0.3\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["hmin", "--d", "1024"],
            ["hmin", "--d", "2000"],
            # k(1/4, 1/4) = 4 at d = 1, so eps must lie in [0, 2^-4]
            ["translate", "--gen", "cantor_middle_half", "--eps", "nan"],
            ["translate", "--gen", "cantor_middle_half", "--eps", "-1"],
            ["translate", "--gen", "cantor_middle_half", "--eps", "0.125"],
            ["solve", "--d", "1024", "--k", "1"],
            ["solve", "--d", "2000", "--k", "1"],
            *REJECTED_BEFORE_ANY_NODE,
            ["oracle", "--d", "1", "--k", "3", "--grid", "100000000"],
            ["solve", "--d", "2", "--k", "1", "--points", "100000000"],
            ["simulate", "--gen", "uniform", "--slack", "nan", "--strict"],
            ["translate", "--gen", "cantor_middle_half", "--eta", "nan", "--strict"],
            ["hmin", "--points", "100000000"],
            *OVER_SIZE_CAP,
        ],
    )
    def test_out_of_range_value_exit_1_one_line(self, tmp_path, capsys, argv):
        start = time.perf_counter()
        code = main([*argv, "--out", str(tmp_path / "out.csv")])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [*REJECTED_BEFORE_ANY_NODE, *OVER_SIZE_CAP])
    def test_rejected_size_realizes_no_node(self, tmp_path, monkeypatch, argv):
        import porodim.measure

        calls = []
        real = porodim.measure.node_weights

        def counting(spec, q):
            calls.append(q)
            return real(spec, q)

        monkeypatch.setattr(porodim.measure, "node_weights", counting)
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--gen", "uniform", "--depth", "100000", "--paths", "1"],
            ["simulate", "--gen", "uniform", "--depth", "1000", "--paths", "100"],
            ["translate", "--gen", "cantor_middle_half", "--trials", "10000"],
        ],
    )
    def test_size_caps_admit_their_limit(self, tmp_path, monkeypatch, argv):
        # the paths and trials are stubbed: only the size checks run for real
        import porodim.cli

        def one_path(spec, k, eps, depth, seed, index):
            return (index, depth, 0.0, 0.0, 0.0, 0.0, 0, depth, "", "", ""), None

        def chunk(spec, r, alpha, eps, depth, seed, indices):
            return [TranslationTrial(i, (0.0,), 1.0) for i in indices]

        monkeypatch.setattr(porodim.cli, "_simulate_one_path", one_path)
        monkeypatch.setattr(porodim.cli, "_translate_chunk", chunk)
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0

    def test_hmin_largest_d(self, tmp_path):
        code, text = run(tmp_path, "hmin", "--d", "1023")
        assert code == 0
        assert len(rows_of(text)) == 33

    def test_solve_largest_d(self, tmp_path):
        code, text = run(tmp_path, "solve", "--d", "1023", "--k", "1")
        assert code == 0
        assert len(rows_of(text)) == 101

    def test_inadmissible_eps_exit_1(self, tmp_path):
        # t_dk undefined for eps > 2^-kd: reported as a parameter error
        code, _ = run(
            tmp_path, "simulate", "--gen", "uniform", "--d", "2",
            "--k", "1", "--eps", "0.4", "--depth", "30", "--paths", "2",
        )
        assert code == 1

    def test_memory_error_exit_1_one_line(self, tmp_path, capsys, monkeypatch):
        import porodim.cli

        def one_path(*task):
            raise MemoryError

        monkeypatch.setattr(porodim.cli, "_simulate_one_path", one_path)
        code = main(["simulate", "--gen", "uniform", "--depth", "5", "--paths", "1",
                     "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "memory" in err
        assert not (tmp_path / "out.csv").exists()


def readme_commands() -> list[str]:
    """Every ``porodim ...`` command in README's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("porodim "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 6
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])  # raises on a bad flag
