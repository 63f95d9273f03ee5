"""Command-line surface: subcommands, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import monalg
from monalg.catalog import builtin_algebra
from monalg.cli import ExperimentConfig, main
from monalg.errors import SpecFormatError
from monalg.io import save_algebra
from monalg.algebra import AlgebraSpec


QUICK = ["--points", "50", "--triangles", "10"]


def test_list_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "example2", "example3", "example4", "semisimple:m=K"):
        assert name in out


_FREEZES_AT_EXIT = """
import gc, sys
from monalg.cli import main
freeze = gc.freeze
def counted():
    sys.stderr.write("freeze at exit\\n")
    freeze()
gc.freeze = counted
frozen = gc.get_freeze_count()
assert main(["list"]) == 0 and main(["list"]) == 0
assert gc.get_freeze_count() == frozen and gc.isenabled()
"""


def test_main_freezes_the_collector_once_at_exit():
    # two calls register one hook, which spares the interpreter's shutdown
    # collections; until exit the collector is untouched
    src = str(Path(monalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FREEZES_AT_EXIT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "freeze at exit\n"


def test_validate_builtin(capsys):
    assert main(["validate", "--algebra", "example2"]) == 0
    out = capsys.readouterr().out
    assert "nilpotency_index" in out


def test_validate_bad_algebra_file(tmp_path, capsys):
    # associativity violated: hand expansion gives residual 1 at (2, 2, 3)
    bad = AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 3, 4): 1, (3, 3, 5): 1, (2, 4, 5): 2})
    path = tmp_path / "bad.json"
    save_algebra(bad, path)
    assert main(["validate", "--algebra", str(path)]) == 1
    out = capsys.readouterr().out
    assert "assoc_A1_max_residual    1.000e+00" in out


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--algebra", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--seed", "--frame", "--nodes-cap"])
def test_validate_refuses_flags_it_does_not_read(tmp_path, capsys, flag):
    # validate checks the axioms only: these flags would be accepted and do nothing
    value = {"--out": str(tmp_path / "x"), "--seed": "3", "--frame": "in-s",
             "--nodes-cap": "5"}[flag]
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--algebra", "example1", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_validate_reads_its_tolerance(capsys):
    assert main(["validate", "--algebra", "example1", "--tol", "1e-10"]) == 0


# The settings each subcommand reads: its flags, its config-file keys and,
# but for algebra, frame and out, the settings its report's config block records.
_RUN = {"algebra", "frame", "tol", "out", "nodes_cap"}
SETTINGS = {"validate": {"algebra", "tol"}, "lambda": _RUN, "predicates": _RUN,
            "verify": _RUN | {"suites", "seed", "triangles", "points"}}
# one well-typed config-file value of every setting
_VALUES = {"algebra": "example1", "frame": "in-s", "suites": ["axioms"], "tol": 1e-9,
           "seed": 3, "out": "report", "nodes_cap": 64, "triangles": 30, "points": 50}


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_each_subcommand_takes_reads_and_records_its_settings(tmp_path, capsys, command):
    from monalg.cli import build_parser

    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in subcommands.choices[command]._actions}
    assert dests - {"help", "config", "timings"} == SETTINGS[command]
    assert {f.name for f in fields(ExperimentConfig)} == set(_VALUES)
    for key, value in _VALUES.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: value}))
        if key in SETTINGS[command]:
            assert getattr(ExperimentConfig.from_file(path, command), key) == value
        else:
            with pytest.raises(SpecFormatError, match="unknown fields") as exc:
                ExperimentConfig.from_file(path, command)
            assert repr(key) in str(exc.value)
    if command == "validate":  # it writes no report
        return
    args = [command, "--algebra", "example1", "--out", str(tmp_path / "report")]
    assert main(args + (["--suite", "axioms"] if command == "verify" else [])) == 0
    recorded = json.loads((tmp_path / "report.json").read_text())["config"]
    assert set(recorded) == {"algebra", "frames"} | SETTINGS[command] - {"algebra", "frame", "out"}
    assert recorded["algebra"] == "example1" and recorded["frames"] == ["default", "in-s"]


@pytest.mark.parametrize("key", ["out", "seed", "frame", "nodes_cap", "suites"])
def test_validate_config_refuses_keys_it_does_not_read(tmp_path, capsys, key):
    path = tmp_path / "experiment.json"
    value = str(tmp_path / "x") if key == "out" else _VALUES[key]
    path.write_text(json.dumps({"algebra": "example1", key: value}))
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and repr(key) in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["lambda", "predicates"])
def test_only_verify_takes_a_seed(capsys, command):
    # no check of lambda or predicates is sampled
    with pytest.raises(SystemExit) as exc:
        main([command, "--algebra", "example1", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_records_its_counts(tmp_path, capsys):
    prefix = tmp_path / "report"
    assert main(["verify", "--algebra", "example1", "--suite", "axioms",
                 "--triangles", "30", "--points", "50", "--out", str(prefix)]) == 0
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config["triangles"] == 30 and config["points"] == 50


def test_predicates_records_its_cap_and_tolerance(tmp_path, capsys):
    prefix = tmp_path / "report"
    assert main(["predicates", "--algebra", "example1", "--nodes-cap", "64", "--tol", "1e-9",
                 "--out", str(prefix)]) in (0, 1)
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert config["nodes_cap"] == 64 and config["tol"] == 1e-9


def test_config_file_sets_the_triangle_count(tmp_path, capsys):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"algebra": "example1", "suites": ["morera"], "triangles": 30,
                                "out": str(tmp_path / "report")}))
    assert main(["verify", "--config", str(path)]) == 0
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    counts = {c["diagnostics"]["triangles"] for c in checks if "triangles" in c["diagnostics"]}
    assert counts == {30}


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1"])
def test_tol_flag_must_be_finite_and_positive(capsys, tol):
    # at tol=inf the standing cr/residual[zeta^3] failure of semisimple:m=8 would pass
    assert main(["verify", "--algebra", "semisimple:m=8", "--suite", "cr", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err and "finite number greater than 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0, -1e-8])
def test_config_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"algebra": "semisimple:m=8", "suites": ["cr"], "tol": tol}))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'tol'" in err and "finite number greater than 0" in err


def test_verify_lambda_suite(tmp_path, capsys):
    out_prefix = tmp_path / "report"
    rc = main(
        ["verify", "--algebra", "example1", "--suite", "lambda",
         "--seed", "7", "--out", str(out_prefix)]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["all_passed"] is True
    assert payload["config"]["seed"] == 7
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.csv").read_text().startswith("check,nodes,delta")


@pytest.mark.parametrize("suites", ["all,cauchy", "lambda,all"])
def test_verify_refuses_all_beside_other_suites(capsys, suites):
    assert main(["verify", "--algebra", "example1", "--suite", suites]) == 2
    assert "suite 'all' runs every suite and stands alone" in capsys.readouterr().err


def test_verify_refuses_a_repeated_suite(capsys):
    # a suite run twice would report each of its check names twice
    assert main(["verify", "--algebra", "example1", "--suite", "cauchy,cauchy"]) == 2
    assert "each suite may be named once" in capsys.readouterr().err


def test_verify_refuses_a_config_with_no_suites(tmp_path, capsys):
    # "suites": [] printed 0/0 checks passed and exited 0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"algebra": "example1", "suites": []}))
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "name at least one suite" in captured.err and "checks passed" not in captured.out


def test_run_experiment_refuses_no_suites():
    from monalg.cli import run_experiment

    with pytest.raises(ValueError, match="name at least one suite"):
        run_experiment(ExperimentConfig(algebra="example1", suites=[]))


BENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


@pytest.mark.parametrize("algebra, names", [
    (["--algebra", "example1"],
     ["lambda/deviation[default]", "lambda/deviation[in-s]",
      "predicates/lambda-consistency[default]", "predicates/lambda-consistency[in-s]"]),
    (["--algebra", str(BENCH_DATA / "chain12.json"),
      "--frame", str(BENCH_DATA / "chain12_frame.json")],
     ["lambda/deviation[default]", "predicates/lambda-measured[default]"]),
], ids=["example1", "chain12"])
@pytest.mark.parametrize("cap, converged", [(["--nodes-cap", "64"], False), ([], True)],
                         ids=["cap64", "default-cap"])
def test_lambda_checks_report_convergence(tmp_path, capsys, algebra, names, cap, converged):
    # an unconverged check fails, so a starved cap exits 1
    prefix = tmp_path / "report"
    assert main(["verify", *algebra, "--suite", "lambda,predicates", *cap,
                 "--out", str(prefix)]) == (0 if converged else 1)
    checks = {c["name"]: c for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    for name in names:
        assert checks[name]["diagnostics"]["converged"] is converged
        assert checks[name]["passed"] is converged


def _checks(tmp_path, args) -> dict:
    """The checks of one ``verify --out`` run, by name."""
    prefix = tmp_path / "report"
    assert main(["verify", *args, "--out", str(prefix)]) in (0, 1)
    return {c["name"]: c["diagnostics"]
            for c in json.loads((tmp_path / "report.json").read_text())["checks"]}


def test_nodes_cap_caps_polyline_segments_and_morera_edges(tmp_path):
    # a cap of 30 nodes leaves each segment two K15 levels, of 15 and 30 nodes
    capped = _checks(tmp_path, ["--algebra", "example1", "--suite", "formula",
                                "--nodes-cap", "30"])
    full = _checks(tmp_path, ["--algebra", "example1", "--suite", "formula"])
    for name in ("formula/square[one]", "formula/square[zeta]", "formula/square[zeta^2]"):
        assert capped[name]["converged"] is False and capped[name]["nodes"] <= 4 * 30
        assert full[name]["converged"] is True and full[name]["nodes"] > 4 * 30
    # a cap of 15 leaves each of the 3 x 20 triangle edges one K15 panel
    morera = ["--algebra", "semisimple:m=8", "--suite", "morera", "--triangles", "20"]
    capped = _checks(tmp_path, [*morera, "--nodes-cap", "15"])["morera/kernel"]
    full = _checks(tmp_path, morera)["morera/kernel"]
    assert capped["converged"] is False and capped["nodes"] == 20 * 3 * 15
    assert full["converged"] is True and full["nodes"] > 20 * 3 * 15


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--nodes-cap", "--triangles", "--points"])
def test_count_flags_must_be_positive(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--algebra", "example1", "--suite", "lambda", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "positive integer" in err


def test_verify_semisimple_all(capsys):
    rc = main(
        ["verify", "--algebra", "semisimple:m=3", "--suite", "all", "--seed", "3"]
        + QUICK
    )
    assert rc == 0


def test_verify_exit_nonzero_on_failure(tmp_path, capsys):
    # associativity failure surfaces through the axioms suite
    bad = AlgebraSpec(5, 1, {(2, 2, 3): 1, (2, 3, 4): 1, (3, 3, 5): 1, (2, 4, 5): 2})
    path = tmp_path / "bad.json"
    save_algebra(bad, path)
    rc = main(
        ["verify", "--algebra", str(path), "--frame", "default", "--suite", "axioms"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_unknown_algebra(capsys):
    assert main(["verify", "--algebra", "example9", "--suite", "axioms"]) == 2
    assert "unknown built-in" in capsys.readouterr().err


def test_report_determinism(tmp_path, capsys):
    args = [
        "verify", "--algebra", "example3", "--suite", "oracle,lambda,predicates",
        "--seed", "11",
    ] + QUICK
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()


def test_timings_go_to_stderr_and_leave_the_reports_alone(tmp_path, capsys):
    args = ["verify", "--algebra", "example1", "--suite", "lambda,formula,predicates",
            "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "timed"), "--timings"]) == 0
    timed = capsys.readouterr()
    for suffix in (".json", ".csv", ".txt"):
        assert ((tmp_path / f"plain{suffix}").read_bytes()
                == (tmp_path / f"timed{suffix}").read_bytes())
    assert timed.out == plain.out and plain.err == ""
    header, *rows = timed.err.splitlines()
    assert header.split() == ["suite", "wall_s", "lambdas"]
    assert [row.split()[0] for row in rows] == ["lambda", "formula", "predicates"]
    # the formula and predicates suites read the lambda suite's integrals
    assert [int(row.split()[2]) for row in rows] == [2, 0, 0]
    assert all(float(row.split()[1]) >= 0.0 for row in rows)


def test_timings_count_one_lambda_per_frame_not_per_name(tmp_path, capsys):
    # a semisimple algebra's default and in-s frames are one frame, so the
    # lambda suite integrates one standard-circle lambda for both names, and
    # the formula suite reads it back
    args = ["verify", "--algebra", "semisimple:m=3", "--suite", "lambda,formula,predicates",
            "--seed", "3", "--out", str(tmp_path / "m3"), "--timings"]
    assert main(args) == 0
    _, *rows = capsys.readouterr().err.splitlines()
    assert [row.split()[0] for row in rows] == ["lambda", "formula", "predicates"]
    assert [int(row.split()[2]) for row in rows] == [1, 0, 0]
    names = [check["name"] for check in json.loads((tmp_path / "m3.json").read_text())["checks"]]
    assert "lambda/deviation[default]" in names and "lambda/deviation[in-s]" in names


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(monalg.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        prefix = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "monalg.cli", "verify", "--algebra", "semisimple:m=12",
             "--suite", "formula", "--seed", "5", "--out", str(prefix)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode in (0, 1), proc.stderr
        reports.append((tmp_path / f"threads{threads}.json").read_bytes())
    assert reports[0] == reports[1]


def test_seed_changes_sampled_reports(tmp_path, capsys):
    base = ["verify", "--algebra", "example1", "--suite", "oracle"] + QUICK
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    ja = json.loads((tmp_path / "a.json").read_text())
    jb = json.loads((tmp_path / "b.json").read_text())
    residual_a = ja["checks"][0]["residual"]
    residual_b = jb["checks"][0]["residual"]
    assert residual_a != residual_b


def test_config_file_with_flag_override(tmp_path, capsys):
    config = {
        "algebra": "example2",
        "suites": ["lambda"],
        "seed": 5,
    }
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["verify", "--config", str(cfg_path), "--suite", "axioms"])
    assert rc == 0
    out = capsys.readouterr().out
    # the flag replaced the file's suite list
    assert "axioms/" in out and "lambda/" not in out


def test_config_rejects_unknown_fields(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"algebra": "example1", "worker_count": 4}))
    assert main(["verify", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("field, value", [
    ("algebra", 5),
    ("frame", ["in-s"]),
    ("suites", "lambda"),
    ("suites", ["lambda", 3]),
    ("tol", "1e-8"),
    ("seed", True),
    ("seed", 1.5),
    ("out", 7),
    ("nodes_cap", "64"),
    ("nodes_cap", 0),
])
def test_config_rejects_mistyped_fields(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"algebra": "example1", "suites": ["lambda"],
                                    field: value}))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err


def test_config_must_be_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps([1, 2]))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("cap, converged", [(["--nodes-cap", "64"], False), ([], True)],
                         ids=["cap64", "default-cap"])
def test_lambda_command_reports_convergence(tmp_path, capsys, cap, converged):
    prefix = tmp_path / "lambda"
    assert main(["lambda", "--algebra", "example1", *cap,
                 "--out", str(prefix)]) == (0 if converged else 1)
    checks = json.loads((tmp_path / "lambda.json").read_text())["checks"]
    circles = [c for c in checks if "plane-radius-variation" not in c["name"]]
    assert circles
    assert all(c["diagnostics"]["converged"] is converged for c in circles)
    assert all(c["passed"] is converged for c in circles)


def test_lambda_command_circles_are_not_homothetic(tmp_path):
    # centred circles of radius 0.5, 1 and 2 would give the same bits; the
    # off-centre ones give distinct integrals of the same lambda
    prefix = tmp_path / "lambda"
    assert main(["lambda", "--algebra", "example1", "--out", str(prefix)]) == 0
    checks = {c["name"]: c for c in json.loads((tmp_path / "lambda.json").read_text())["checks"]}
    variation = checks["lambda[in-s][plane-radius-variation]"]
    assert 0.0 < variation["residual"] <= 1e-12
    assert all(c["diagnostics"]["converged"] for name, c in checks.items()
               if "variation" not in name)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4",
                                  "semisimple:m=1", "semisimple:m=2", "semisimple:m=8"])
def test_lambda_command_circles_wind_once_on_every_builtin_frame(name):
    from monalg.catalog import builtin_frames
    from monalg.cli import _lambda_circles
    from monalg.integrals import winding_certificate

    spec = builtin_algebra(name)
    for frame in builtin_frames(spec).values():
        for label, circle, _ in _lambda_circles(frame, spec):
            cert = winding_certificate(circle, frame, np.zeros(frame.k), spec)
            assert cert.windings == (1,) * spec.m, (label, cert.windings)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4",
                                  "semisimple:m=3", "semisimple:m=8", "semisimple:m=20",
                                  "chain12"])
def test_lambda_command_circles_match_the_closed_form(name):
    # lambda = 2 pi i sum_u w_u I_u on every closed curve (see
    # test_integrals.py::test_lambda_is_two_pi_i_times_the_windings), so
    # also on the off-centre and tilted circles that monalg lambda integrates
    from monalg.cli import _inputs, _lambda_circles
    from monalg.integrals import compute_lambda

    config = (ExperimentConfig(algebra=str(BENCH_DATA / "chain12.json"),
                               frame=str(BENCH_DATA / "chain12_frame.json"))
              if name == "chain12" else ExperimentConfig(algebra=name))
    spec, _, frames, _ = _inputs(config)
    for frame in dict.fromkeys(frames.values()):  # a frame may have two names
        for label, circle, _ in _lambda_circles(frame, spec):
            lam = compute_lambda(spec, frame, circle)
            assert lam.converged, label
            exact = np.zeros(spec.n, dtype=np.complex128)
            exact[: spec.m] = 2j * np.pi * np.array(lam.windings)
            assert np.linalg.norm(lam.value.coords - exact) <= 1e-11, label


@pytest.mark.parametrize("name, calls", [("semisimple:m=8", 5), ("example4", 7)],
                         ids=["semisimple:m=8", "example4"])  # ids that a new pin does not rename
def test_lambda_command_integrates_each_frame_once(tmp_path, monkeypatch, name, calls):
    # a semisimple algebra's default and in-s names are one frame, whose
    # five circles are integrated once; example4's two frames are distinct
    # (four circles at k=3, whose widest plane is plane (1,2), three at k=2)
    import monalg.cli
    from monalg.integrals import compute_lambda

    made = []

    def counted(*args, **kwargs):
        made.append(args[1])
        return compute_lambda(*args, **kwargs)

    monkeypatch.setattr(monalg.cli, "compute_lambda", counted)
    prefix = tmp_path / "lambda"
    assert main(["lambda", "--algebra", name, "--out", str(prefix)]) in (0, 1)
    assert len(made) == calls
    checks = json.loads((tmp_path / "lambda.json").read_text())["checks"]
    by_frame = {fname: [dict(c, name=c["name"].replace(f"[{fname}]", "", 1))
                        for c in checks if c["name"].startswith(f"lambda[{fname}]")]
                for fname in ("default", "in-s")}
    assert len(by_frame["default"]) + len(by_frame["in-s"]) == len(checks)
    if name.startswith("semisimple"):
        assert by_frame["default"] == by_frame["in-s"] and len(by_frame["in-s"]) == 6


@pytest.mark.parametrize("algebra", [
    ["--algebra", "example1"],
    ["--algebra", "semisimple:m=3"],
    ["--algebra", str(BENCH_DATA / "chain12.json"),
     "--frame", str(BENCH_DATA / "chain12_frame.json")],
], ids=["example1", "semisimple:m=3", "chain12"])
def test_lambda_command_and_suite_report_the_standard_circle_alike(tmp_path, capsys, algebra):
    # both integrate lambda on the unit circle in the widest plane, and
    # report its margin; the command adds the nilpotent residuals to the
    # diagnostics.  Where the widest plane is plane (1,2) (example1 and
    # chain12), the command's centred unit circle there is that circle
    records = {}
    for command in (["lambda"], ["verify", "--suite", "lambda"]):
        prefix = tmp_path / command[0]
        assert main([*command, *algebra, "--out", str(prefix)]) in (0, 1)
        records.update((c["name"], c) for c in
                       json.loads(prefix.with_suffix(".json").read_text())["checks"])
    [command] = [c for name, c in records.items()
                 if name.startswith("lambda[default][") and "margin" in c["diagnostics"]]
    widest = "widest plane r=1.0" if algebra[1] == "semisimple:m=3" else "plane(1,2) r=1.0"
    assert command["name"] == f"lambda[default][{widest}]"
    suite = records["lambda/deviation[default]"]
    for key in ("residual", "tolerance", "value", "reference", "passed"):
        assert command[key] == suite[key], key
    del command["diagnostics"]["nilpotent_residuals"]
    assert command["diagnostics"] == suite["diagnostics"]
    assert suite["diagnostics"]["history"] and suite["diagnostics"]["margin"] > 0


@pytest.mark.parametrize("algebra", [
    ["--algebra", "example1"],
    ["--algebra", "example4"],
    ["--algebra", "semisimple:m=3"],
    ["--algebra", str(BENCH_DATA / "chain12.json"),
     "--frame", str(BENCH_DATA / "chain12_frame.json")],
], ids=["example1", "example4", "semisimple:m=3", "chain12"])
def test_lambda_command_reports_each_circle_once(tmp_path, monkeypatch, algebra):
    # a frame whose widest plane is plane (1,2) has its unit circle there
    # once, not a second time as the widest plane's
    import monalg.cli
    from monalg.integrals import compute_lambda

    circles = {}  # a frame -> the geometry of each circle integrated on it

    def recorded(spec, frame, circle, **kwargs):
        circles.setdefault(frame, []).append((circle.center.tobytes(), circle.radius,
                                              circle.plane.tobytes(), circle.orientation))
        return compute_lambda(spec, frame, circle, **kwargs)

    monkeypatch.setattr(monalg.cli, "compute_lambda", recorded)
    prefix = tmp_path / "lambda"
    assert main(["lambda", *algebra, "--out", str(prefix)]) in (0, 1)
    for made in circles.values():
        assert len(set(made)) == len(made)
    checks = json.loads(prefix.with_suffix(".json").read_text())["checks"]
    for fname in {c["name"].split("]")[0] + "]" for c in checks}:
        mine = [c for c in checks if c["name"].startswith(fname)
                and not c["name"].endswith("[plane-radius-variation]")]
        assert len({json.dumps(c["value"]) for c in mine}) == len(mine), fname


def test_lambda_command(capsys):
    assert main(["lambda", "--algebra", "example3"]) == 0
    out = capsys.readouterr().out
    assert "plane-radius-variation" in out


def test_predicates_command(capsys):
    assert main(["predicates", "--algebra", "example4"]) == 0
    out = capsys.readouterr().out
    assert "condition=4" in out


def test_theorem5_expectation_only_for_builtins(tmp_path, monkeypatch, capsys):
    # a user file whose name starts like a built-in is not held to its condition
    monkeypatch.chdir(tmp_path)
    save_algebra(builtin_algebra("example1"), tmp_path / "example_mine.json")
    tolerances = {}
    for algebra in ("example_mine.json", "example1"):
        assert main(["verify", "--algebra", algebra, "--suite", "predicates",
                     "--out", "report"]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        (check,) = [c for c in payload["checks"]
                    if c["name"] == "predicates/structure-constants"]
        tolerances[algebra] = check["tolerance"]
    assert tolerances == {"example_mine.json": None, "example1": 0.0}


def test_frame_file_flag(tmp_path, capsys):
    from monalg.catalog import builtin_algebra, builtin_frames
    from monalg.io import save_frame

    spec = builtin_algebra("example1")
    path = tmp_path / "frame.json"
    save_frame(builtin_frames(spec)["default"], path)
    rc = main(["verify", "--algebra", "example1", "--frame", str(path),
               "--suite", "lambda"])
    assert rc == 0


def test_experiment_config_defaults():
    config = ExperimentConfig()
    assert config.suites == ["all"]
    assert config.seed == 0 and config.nodes_cap == 2**16


def test_run_experiment_library_level(tmp_path, capsys):
    from monalg.cli import run_experiment

    config = ExperimentConfig(algebra="example1", suites=["lambda"], seed=3,
                              out=str(tmp_path / "exp"))
    assert run_experiment(config) == 0
    assert (tmp_path / "exp.json").exists()


def test_run_experiment_checks_a_library_config():
    # a config built in code skips from_file and merge_flags; it is checked
    # when it is built
    from monalg.cli import run_experiment

    with pytest.raises(SpecFormatError, match="'tol'"):
        run_experiment(ExperimentConfig(algebra="semisimple:m=8", suites=["cr"],
                                        tol=float("inf")))


@pytest.mark.parametrize("suite", ["morera", "axioms"])
def test_seed_is_an_integer_of_at_least_zero(tmp_path, capsys, suite):
    # numpy refuses a negative seed only in a suite that draws, and with a
    # message that names no setting; the flag, the file and the library
    # path all refuse it by name, whatever the suites
    from monalg.cli import run_experiment

    assert main(["verify", "--algebra", "example1", "--suite", suite, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be an integer of at least 0")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"algebra": "example1", "suites": [suite], "seed": -1}))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "field 'seed' must be an integer of at least 0" in err
    for seed in (-1, 1.5, True):
        with pytest.raises(SpecFormatError, match="field 'seed' must be an integer of at least 0"):
            run_experiment(ExperimentConfig(algebra="example1", suites=[suite], seed=seed))
    assert main(["verify", "--algebra", "example1", "--suite", suite, "--seed", "0",
                 *QUICK]) == 0


# Malformed files: a scalar where a list belongs, a bool index, a string
# number, and mistyped config fields.
_MALFORMED_ALGEBRAS = {
    "u_map-not-a-list": {"n": 5, "m": 1, "u_map": 5},
    "products-not-a-list": {"n": 5, "m": 1, "products": 5},
    "bool-index": {"n": 5, "m": 1, "products": [{"left": 2, "right": True, "target": 3}]},
    "string-number": {"n": 5, "m": 1,
                      "products": [{"left": 2, "right": 2, "target": 3, "value_re": "1.5"}]},
}
_MALFORMED_FRAMES = {
    "rows-not-a-list": {"k": 2, "rows": 5},
    "bool-k": {"k": True, "rows": [[[1, 0]] * 5]},
    "string-coefficient": {"k": 1, "rows": [["1", [0, 0], [0, 0], [0, 0], [0, 0]]]},
}
_MALFORMED_CONFIGS = {
    "seed-string": {"algebra": "example1", "seed": "1"},
    "nodes_cap-bool": {"algebra": "example1", "nodes_cap": True},
    "tol-bool": {"algebra": "example1", "tol": False},
}


@pytest.mark.parametrize("command, record", [
    *((["validate", "--algebra"], record) for record in _MALFORMED_ALGEBRAS.values()),
    *((["verify", "--algebra", "example1", "--suite", "axioms", "--frame"], record)
      for record in _MALFORMED_FRAMES.values()),
    *((["verify", "--config"], record) for record in _MALFORMED_CONFIGS.values()),
], ids=[*_MALFORMED_ALGEBRAS, *_MALFORMED_FRAMES, *_MALFORMED_CONFIGS])
def test_malformed_files_exit_2_without_a_traceback(tmp_path, capsys, command, record):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(record))
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and str(path) in err


# The checks whose tolerance --tol replaces; every other check keeps its own.
_TOL_OVERRIDES = ("axioms/associativity-", "oracle/", "cr/residual[", "lambda/deviation[",
                  "lambda/idempotent-projection[", "lambda/nilpotent-residuals[",
                  "predicates/lambda-consistency[", "morera/", "formula/")


def test_tol_flag_overrides_exactly_the_documented_checks(tmp_path):
    # 1e-6 is also cr/residual's default, so 1e-7 shows that it is overridden
    tolerances = {}
    for tol in (None, 1e-6, 1e-7):
        prefix = tmp_path / f"tol-{tol}"
        flag = [] if tol is None else ["--tol", str(tol)]
        assert main(["verify", "--algebra", "example1", "--suite", "all", *QUICK, *flag,
                     "--out", str(prefix)]) in (0, 1)
        checks = json.loads(Path(f"{prefix}.json").read_text())["checks"]
        tolerances[tol] = {c["name"]: c["tolerance"] for c in checks}
    default = tolerances.pop(None)
    overridden = {name for name in default if name.startswith(_TOL_OVERRIDES)
                  and name != "morera/necessity-control"}
    assert all(any(name.startswith(p) for name in overridden) for p in _TOL_OVERRIDES)
    for tol, override in tolerances.items():
        assert override == {name: tol if name in overridden else default[name]
                            for name in default}
    assert default["lambda/idempotent-projection[default]"] == 1e-10
    assert default["lambda/nilpotent-residuals[in-s]"] == 1e-12
    assert default["cr/ratio[zeta]"] == 0.5
    assert default["cauchy/necessity-control"] == default["morera/necessity-control"] == 0.0


def test_tol_reaches_the_lambda_literals(tmp_path):
    # lambda/idempotent-projection and lambda/nilpotent-residuals read --tol
    # as every other check does, from the command line and from run_suites
    from monalg.catalog import builtin_frames
    from monalg.suites import run_suites

    spec = builtin_algebra("example1")
    names = ("lambda/idempotent-projection[", "lambda/nilpotent-residuals[")
    reports = run_suites(["lambda"], spec, builtin_frames(spec), 1, {"tol": 1e-6})
    assert {rep.tolerance for rep in reports if rep.name.startswith(names)} == {1e-6}
    assert main(["verify", "--algebra", "example1", "--suite", "lambda", "--tol", "1e-6",
                 "--out", str(tmp_path / "r")]) == 0
    checks = json.loads((tmp_path / "r.json").read_text())["checks"]
    chosen = [c for c in checks if c["name"].startswith(names)]
    # nilpotent-residuals runs on the frames where theorem 6's condition holds
    assert {c["name"] for c in chosen} >= {f"{name}in-s]" for name in names}
    assert {c["tolerance"] for c in chosen} == {1e-6}
