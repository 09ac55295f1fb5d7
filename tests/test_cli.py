import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from novikov import cli, hodge
from novikov.bounds import small_b_limit
from novikov.serialization import file_digest
from test_twisted import count_reductions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "novikov.cli", *argv], capture_output=True)


def report_of(proc):
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode())


def test_betti_exact_torus():
    proc = run_cli(
        "betti", "--complex", str(FIXTURES / "torus2.json"), "--lambda", "2",
        "--backend", "exact",
    )
    report = report_of(proc)
    profile = report["results"]["profiles"][0]
    assert profile["dims"] == [0, 0, 0]
    assert profile["euler"] == 0
    assert profile["backend"] == "exact"
    assert "timing_seconds" not in report
    assert report["schema"] == "v1"
    assert len(report["inputs"]["complex"]["sha256"]) == 64
    assert "dims" in proc.stderr.decode()


def test_exact_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ("betti", "--complex", str(FIXTURES / "torus2.json"), "--lambda", "5/7")
    assert run_cli(*args, "--output", str(out1)).returncode == 0
    assert run_cli(*args, "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_wang_number_field_eigenvalue():
    proc = run_cli(
        "wang", "--action", str(FIXTURES / "exm13.json"),
        "--lambda", "nf:x^2-3*x+1:x",
    )
    profile = report_of(proc)["results"]["profiles"][0]
    assert profile["dims"] == [0, 0, 0, 1, 1, 0, 0, 0]
    assert profile["euler"] == 0


def write_action(path, blocks):
    path.write_text(json.dumps({"format": "novikov/action", "schema": "v1", "blocks": blocks}))
    return str(path)


def test_wang_float_blocks_at_an_exact_lambda_run_in_float(tmp_path):
    action = write_action(tmp_path / "a.json", {"0": [["1", "0"], ["0", "0.5"]]})
    at_exact, at_float = (
        report_of(run_cli("wang", "--action", action, "--lambda", lit, "--tolerance", "0.5"))
        for lit in ("3/5", "0.6")
    )
    profile = at_exact["results"]["profiles"][0]
    assert profile["backend"] == "float"
    assert profile["tolerance"] == 0.5
    assert "timing_seconds" in at_exact
    assert profile["dims"] == at_float["results"]["profiles"][0]["dims"] == [1, 1]


def test_wang_number_field_blocks_at_an_exact_lambda_report_nf(tmp_path):
    action = write_action(tmp_path / "a.json", {"0": [["nf:x^2-3*x+1:x"]]})
    report = report_of(run_cli("wang", "--action", action, "--lambda", "2"))
    profile = report["results"]["profiles"][0]
    assert profile["backend"] == "nf"
    assert profile["tolerance"] is None
    assert profile["dims"] == [0, 0]
    assert "timing_seconds" not in report


def test_lambda_grid_sweep_reports_timing():
    proc = run_cli(
        "betti", "--complex", str(FIXTURES / "torus2.json"),
        "--lambda-grid", "0.5,1.0,2.0",
    )
    report = report_of(proc)
    dims = [p["dims"] for p in report["results"]["profiles"]]
    assert dims == [[0, 0, 0], [1, 2, 1], [0, 0, 0]]
    assert all(p["backend"] == "float" for p in report["results"]["profiles"])
    assert "timing_seconds" in report


def test_backend_float_runs_an_exact_literal_in_float():
    proc = run_cli(
        "betti", "--complex", str(FIXTURES / "torus2.json"), "--lambda", "2",
        "--backend", "float",
    )
    profile = report_of(proc)["results"]["profiles"][0]
    assert profile["lambda"] == "2.0"
    assert profile["backend"] == "float"
    assert profile["dims"] == [0, 0, 0]


def test_product_command_checks_convolution():
    proc = run_cli(
        "product", "--left", str(FIXTURES / "torus2.json"),
        "--right", str(FIXTURES / "circle3.json"), "--lambda", "2",
    )
    results = report_of(proc)["results"]
    assert results["convolution_ok"] is True
    assert results["counts"] == [27, 189, 324, 162]


def test_mapping_torus_command():
    proc = run_cli(
        "mapping-torus", "--complex", str(FIXTURES / "torus2.json"),
        "--map", str(FIXTURES / "torus2_flip_map.json"),
        "--lambda", "1", "--lambda", "2",
    )
    results = report_of(proc)["results"]
    assert results["holonomy_period"] == 3
    dims = {p["lambda"]: p["dims"] for p in results["profiles"]}
    assert dims["1"] == [1, 1, 1, 1]
    assert dims["2"] == [0, 0, 0, 0]


def test_cover_command_strict_case():
    proc = run_cli(
        "cover", "--complex", str(FIXTURES / "circle3.json"),
        "--sheets", "2", "--lambda", "-1",
    )
    results = report_of(proc)["results"]
    assert results["monotone_ok"] is True
    assert results["profiles"][0]["base"]["dims"] == [0, 0]
    assert results["profiles"][0]["cover"]["dims"] == [1, 1]


def test_hodge_command_and_threshold_env():
    proc = run_cli(
        "hodge", "--complex", str(FIXTURES / "torus2.json"),
        "--lambda", "1.0", "--lambda", "2.0", "--threshold", "1e-7",
    )
    report = report_of(proc)
    assert report["results"]["threshold"] == 1e-7
    entries = {e["lambda"]: e["harmonic_dims"] for e in report["results"]["entries"]}
    assert entries["1.0"] == [1, 2, 1]
    assert entries["2.0"] == [0, 0, 0]


def test_bounds_command_table():
    proc = run_cli("bounds", "--n", "2", "--b", "1", "--x", "0")
    assert proc.returncode == 2  # x needs n >= 3 for the product
    proc = run_cli("bounds", "--n", "3", "--b", "1", "--x", "1", "--grid", "1,0.5")
    results = report_of(proc)["results"]
    assert abs(results["omega"] - 1.5707963267948966) < 1e-15
    assert results["bc_table"]["upper_bound_ok"] is True
    assert results["b_n"]["value"] > 1


def test_bounds_roots_with_a_huge_integral():
    for n, b in [("30", "20"), ("5", "100")]:
        proc = run_cli("bounds", "--n", n, "--b", b)
        assert b"Traceback" not in proc.stderr
        root = report_of(proc)["results"]["c_of_b"]["root"]
        assert 0 < root < 1e-170


def test_bounds_root_near_the_largest_double():
    # C(2e-308) is about 6.18e307, C(7e-309) about 1.77e308: finite doubles
    for b, rel in (("1e-300", 1e-15), ("2e-308", 2e-15), ("1e-308", 2e-15), ("7e-309", 2e-15)):
        proc = run_cli("bounds", "--n", "2", "--b", b)
        root = report_of(proc)["results"]["c_of_b"]["root"]
        assert abs(root - small_b_limit(2) / float(b)) <= rel * root, b


def test_bounds_refuses_a_root_past_the_panel_cap():
    # n = 10**13 at b = 1e-5 passes the overflow check, and its quadrature
    # would take 10**8 panels, a 15 GiB node array; the child runs with its
    # address space capped at 2 GiB, so that an allocation fails fast, and
    # with one BLAS thread, so that loading numpy stays far below the cap
    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "novikov.cli", "bounds", "--n", "10000000000000", "--b", "1e-5"],
        capture_output=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=capped,
    )
    assert proc.returncode == 3, proc.stderr.decode()
    assert b"numerical" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_verify_command():
    proc = run_cli(
        "verify", "--suite", "theorem21",
        "--complex", str(FIXTURES / "torus3.json"), "--trials", "3", "--seed", "1",
    )
    report = report_of(proc)
    assert report["results"]["passed"] is True
    assert len(report["results"]["verdicts"]) == 5
    assert report["parameters"]["seed"] == 1
    proc = run_cli("verify", "--suite", "nilpotent-vanishing")
    assert report_of(proc)["results"]["passed"] is True
    proc = run_cli("verify", "--suite", "sol-nonvanishing")
    assert report_of(proc)["results"]["passed"] is True


def test_usage_errors_exit_64():
    assert run_cli("frobnicate").returncode == 64
    assert run_cli().returncode == 64
    assert run_cli("betti", "--complex", str(FIXTURES / "torus2.json")).returncode == 64
    assert run_cli("verify", "--suite", "unknown-suite").returncode == 64


def test_validation_errors_exit_2(tmp_path):
    assert run_cli("betti", "--complex", "/no/such.json", "--lambda", "2").returncode == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("not json at all")
    assert run_cli("betti", "--complex", str(garbled), "--lambda", "2").returncode == 2
    unclosed = tmp_path / "unclosed.json"
    unclosed.write_text(
        json.dumps(
            {
                "format": "novikov/complex",
                "schema": "v1",
                "vertex_count": 3,
                "maximal_simplices": [[0, 1, 2]],
                "cocycle": {"mode": "exact", "values": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]},
            }
        )
    )
    proc = run_cli("betti", "--complex", str(unclosed), "--lambda", "2")
    assert proc.returncode == 2
    assert b"closed" in proc.stderr
    assert run_cli(
        "betti", "--complex", str(FIXTURES / "torus2.json"), "--lambda", "0"
    ).returncode == 2
    assert run_cli(
        "mapping-torus", "--complex", str(FIXTURES / "torus2.json"),
        "--map", str(FIXTURES / "torus2_flip_map.json"),
        "--layers", "2", "--lambda", "1",
    ).returncode == 2
    circle3 = str(FIXTURES / "circle3.json")
    torus2 = str(FIXTURES / "torus2.json")
    nf_action = tmp_path / "nf_action.json"
    nf_action.write_text(
        json.dumps(
            {
                "format": "novikov/action",
                "schema": "v1",
                "blocks": {"0": [["nf:x^2-3*x+1:x"]]},
            }
        )
    )
    float_action = tmp_path / "float_action.json"
    float_action.write_text(
        json.dumps({"format": "novikov/action", "schema": "v1", "blocks": {"0": [["0.5"]]}})
    )
    # malformed complex, action and weights files
    circle3_payload = json.loads((FIXTURES / "circle3.json").read_text())
    values = circle3_payload["cocycle"]["values"]
    complexes = (
        dict(circle3_payload, vertex_count="3"),
        dict(circle3_payload, vertex_count=2.5),
        dict(circle3_payload, cocycle={"mode": "exact", "values": [[0, 1, 5], *values]}),
        dict(circle3_payload, cocycle={"mode": "exact", "values": [*values, [0, 5, 7]]}),
        dict(circle3_payload, maximal_simplices=[[0, True], [0, 2], [1, 2]]),
        dict(circle3_payload, maximal_simplices=[0, 1]),
        dict(circle3_payload, cocycle={"mode": "exact", "values": 5}),
        dict(circle3_payload, cocycle=[1]),
        # endpoints 0.9 and false in place of the 0 of edge (0, 2), values[1]
        *(
            dict(circle3_payload, cocycle={"mode": "exact", "values": [
                values[0], [bad, 2, 0], values[2],
            ]})
            for bad in (0.9, False)
        ),
    )
    blocks = ([[["1"]]], {"-1": [["2"]], "0": [["1"]]}, {"0": 5}, {"0": [["1/0"]]})
    # an integer past the float range, as JSON 1e400 is a non-finite float
    huge = 10**400
    weights = (
        [[1, 1, 1]], {"7": [1.0]}, {"0": [1.0, float("inf"), 1.0]}, {"0": 5}, {"0": [huge, 1, 1]},
    )
    huge_theta = dict(circle3_payload, cocycle={"mode": "float", "values": [
        [u, v, huge if (u, v) == (0, 1) else x] for u, v, x in values
    ]})

    def written(name, payload):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    action = {"format": "novikov/action", "schema": "v1"}
    weight_file = {"format": "novikov/weights", "schema": "v1"}
    malformed = [
        *(
            ("betti", "--complex", written(f"complex{i}", c), "--lambda", "2")
            for i, c in enumerate(complexes)
        ),
        *(
            ("wang", "--action", written(f"action{i}", dict(action, blocks=b)), "--lambda", "2")
            for i, b in enumerate(blocks)
        ),
        *(
            ("hodge", "--complex", circle3, "--lambda", "2.0",
             "--weights", written(f"weights{i}", dict(weight_file, weights=w)))
            for i, w in enumerate(weights)
        ),
        # JSON true in a vertex map would read as vertex 1, the identity here
        ("mapping-torus", "--complex", torus2, "--lambda", "2",
         "--map", written("bool_map", [0, True, 2, 3, 4, 5, 6, 7, 8])),
        *(
            ("betti", "--complex", torus2, "--lambda", lam)
            for lam in ("1/0", "0/0", "nf:x^2-3*x+1:1/0", "nf:x-1/0:x")
        ),
        *(
            (command, "--complex", written("huge_theta", huge_theta), "--lambda", "2.0")
            for command in ("betti", "hodge")
        ),
    ]
    for argv in (
        ("betti", "--complex", circle3, "--lambda", "inf"),
        ("hodge", "--complex", circle3, "--lambda", "inf"),
        ("betti", "--complex", circle3, "--lambda", "nan"),
        ("betti", "--complex", circle3, "--lambda", "1.0", "--tolerance", "0"),
        ("betti", "--complex", circle3, "--lambda", "2.5", "--backend", "exact"),
        ("wang", "--action", str(nf_action), "--lambda", "2.0"),
        ("wang", "--action", str(nf_action), "--lambda", "1+2j"),
        ("wang", "--action", str(float_action), "--lambda", "nf:x^2-3*x+1:x"),
        ("wang", "--action", str(float_action), "--lambda", "2", "--backend", "exact"),
        ("hodge", "--complex", torus2, "--lambda", "1.0", "--threshold", "nan"),
        ("hodge", "--complex", torus2, "--lambda", "1.0", "--threshold", "inf"),
        ("hodge", "--complex", torus2, "--lambda", "1.0", "--threshold", "-1"),
        ("betti", "--complex", torus2, "--lambda", "1.0", "--tolerance", "inf"),
        ("verify", "--suite", "theorem21", "--complex", torus2, "--trials", "0"),
        ("verify", "--suite", "theorem21", "--complex", torus2, "--trials", "-1"),
        *malformed,
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert b"Traceback" not in proc.stderr
        assert b"Warning" not in proc.stderr, argv


def test_numerical_errors_exit_3(tmp_path):
    proc = run_cli("bounds", "--n", "20", "--b", "1000")
    assert proc.returncode == 3
    assert b"numerical" in proc.stderr
    # 10.0 ** 400 overflows a double
    steep = tmp_path / "steep.json"
    steep.write_text(
        json.dumps(
            {
                "format": "novikov/complex",
                "schema": "v1",
                "vertex_count": 3,
                "maximal_simplices": [[0, 1], [1, 2], [0, 2]],
                "cocycle": {
                    "mode": "exact",
                    "values": [[0, 1, 400], [0, 2, 401], [1, 2, 1]],
                },
            }
        )
    )
    huge = "1" + "0" * 400  # an exact literal past the largest double
    circle3 = str(FIXTURES / "circle3.json")
    action = tmp_path / "huge_action.json"
    action.write_text(
        json.dumps(
            {"format": "novikov/action", "schema": "v1", "blocks": {"0": [[huge]]}}
        )
    )
    edge_action = tmp_path / "edge_action.json"
    edge_action.write_text(
        json.dumps(
            {"format": "novikov/action", "schema": "v1", "blocks": {"0": [["1.7e308"]]}}
        )
    )
    for argv in (
        ("betti", "--complex", str(steep), "--lambda", "10.0"),
        ("hodge", "--complex", str(steep), "--lambda", "10.0"),
        ("betti", "--complex", circle3, "--backend", "float", "--lambda", huge),
        ("hodge", "--complex", circle3, "--lambda", huge),
        # finite weights whose products in the Laplacian reach 1e400
        ("hodge", "--complex", str(FIXTURES / "torus2.json"), "--lambda=1e200"),
        ("hodge", "--complex", str(FIXTURES / "torus2.json"), "--lambda=1+1e308j"),
        ("wang", "--action", str(action), "--lambda", "2.0"),
        ("wang", "--action", str(action), "--backend", "float", "--lambda", "2"),
        # 1.7e308 - (-1.7e308) on the diagonal of M_0 - lam I
        ("wang", "--action", str(edge_action), "--lambda=-1.7e308"),
        ("bounds", "--n", "3", "--x", "1e200"),
        ("bounds", "--n", "3", "--x", "1e300"),
        ("bounds", "--n", "2", "--b", "1e-310"),
        ("bounds", "--n", "2", "--b", "6.8e-309"),
        ("bounds", "--n", "2", "--b", "5e-324"),
        # omega_n in constant time needs n / 2 as a double
        ("bounds", "--n", huge),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 3, argv
        assert b"numerical" in proc.stderr
        assert b"Traceback" not in proc.stderr
        assert b"Warning" not in proc.stderr, argv


def test_hodge_builds_each_operator_once(monkeypatch, capsys):
    # torus3 has 27/189/324/162 simplices: per lambda entry delta_0..delta_3
    # are each assembled once and each Gram piece is solved once, on its
    # smaller side
    solves, degrees = [], []
    eigvalsh, assemble = np.linalg.eigvalsh, hodge._coboundary

    def solving(a):
        solves.append(a.shape[0])
        return eigvalsh(a)

    def assembling(k, theta, weight, p, *table):
        degrees.append(p)
        return assemble(k, theta, weight, p, *table)

    monkeypatch.setattr(np.linalg, "eigvalsh", solving)
    monkeypatch.setattr(hodge, "_coboundary", assembling)
    argv = ["hodge", "--complex", str(FIXTURES / "torus3.json")]
    assert cli.main(argv + ["--lambda", "1.0", "--lambda", "-1+0.5j"]) == 0
    assert solves == [27, 189, 162] * 2
    assert degrees == [0, 1, 2, 3] * 2
    entries = json.loads(capsys.readouterr().out)["results"]["entries"]
    assert [e["harmonic_dims"] for e in entries] == [[1, 3, 3, 1], [0, 0, 0, 0]]


def test_cover_reduces_each_input_once(monkeypatch, capsys):
    reduced = count_reductions(monkeypatch)
    argv = ["cover", "--complex", str(FIXTURES / "torus3.json"), "--sheets", "3"]
    assert cli.main(argv + ["--lambda", "2", "--lambda", "1", "--lambda", "-1"]) == 0
    assert len(reduced) == 2  # the base and its cover, 6 with one per lambda
    profiles = json.loads(capsys.readouterr().out)["results"]["profiles"]
    assert [p["cover"]["dims"] for p in profiles[:2]] == [[0, 0, 0, 0], [1, 3, 3, 1]]


def test_product_reduces_each_input_once(monkeypatch, capsys):
    reduced = count_reductions(monkeypatch)
    argv = ["product", "--left", str(FIXTURES / "torus3.json")]
    argv += ["--right", str(FIXTURES / "circle3.json"), "--lambda", "2", "--lambda", "1"]
    assert cli.main(argv) == 0
    assert len(reduced) == 3  # two factors and the product, 6 with one per lambda
    assert json.loads(capsys.readouterr().out)["results"]["convolution_ok"]


def test_negative_literals_follow_lambda_as_separate_arguments(tmp_path):
    circle3 = str(FIXTURES / "circle3.json")
    for option, value in (
        ("--lambda", "-3/2"),
        ("--lambda", "-1+2j"),
        ("--lambda-grid", "-0.5,2"),
    ):
        separate = report_of(run_cli("betti", "--complex", circle3, option, value))
        joined = report_of(run_cli("betti", "--complex", circle3, f"{option}={value}"))
        lambdas = [p["lambda"] for p in separate["results"]["profiles"]]
        assert lambdas == [p["lambda"] for p in joined["results"]["profiles"]]
        assert separate["parameters"] == joined["parameters"]
    out1, out2 = tmp_path / "separate.json", tmp_path / "joined.json"
    args = ("betti", "--complex", circle3)
    assert run_cli(*args, "--lambda", "-3/2", "--output", str(out1)).returncode == 0
    assert run_cli(*args, "--lambda=-3/2", "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tolerance_env_override():
    proc = run_cli(
        "betti", "--complex", str(FIXTURES / "torus2.json"), "--lambda", "1.0",
        "--tolerance", "1e-6",
    )
    profile = report_of(proc)["results"]["profiles"][0]
    assert profile["tolerance"] == 1e-6
    assert profile["dims"] == [1, 2, 1]


def test_timing_seconds_iff_a_computation_ran_in_float(capsys):
    torus2, circle3 = str(FIXTURES / "torus2.json"), str(FIXTURES / "circle3.json")
    profile_jobs = (
        ["betti", "--complex", torus2],
        ["wang", "--action", str(FIXTURES / "exm13.json")],
        ["product", "--left", circle3, "--right", circle3],
        ["mapping-torus", "--complex", torus2, "--map", str(FIXTURES / "torus2_flip_map.json")],
        ["cover", "--complex", circle3, "--sheets", "2"],
    )
    untimed = [job + ["--lambda", "2"] for job in profile_jobs]
    untimed.append(["verify", "--suite", "theorem21", "--complex", circle3, "--trials", "1"])
    timed = [job + ["--lambda", "2.0"] for job in profile_jobs]
    timed.append(["hodge", "--complex", circle3, "--lambda", "2"])
    timed.append(["bounds", "--n", "3", "--b", "1"])
    for argv, expected in [(a, False) for a in untimed] + [(a, True) for a in timed]:
        assert cli.main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        assert ("timing_seconds" in report) is expected, argv


def test_inputs_name_the_file_arguments_given(tmp_path, capsys):
    torus2, circle3 = str(FIXTURES / "torus2.json"), str(FIXTURES / "circle3.json")
    weights = tmp_path / "weights.json"
    weights.write_text(
        json.dumps({"format": "novikov/weights", "schema": "v1", "weights": {"0": [1, 2, 3]}})
    )
    jobs = (
        ["betti", "--complex", circle3, "--lambda", "2"],
        ["wang", "--action", str(FIXTURES / "exm13.json"), "--lambda", "2"],
        ["product", "--left", circle3, "--right", torus2, "--lambda", "2"],
        ["mapping-torus", "--complex", torus2, "--map", str(FIXTURES / "torus2_flip_map.json"),
         "--lambda", "2"],
        ["cover", "--complex", circle3, "--sheets", "2", "--lambda", "2"],
        ["hodge", "--complex", circle3, "--lambda", "2"],
        ["hodge", "--complex", circle3, "--weights", str(weights), "--lambda", "2"],
        ["bounds", "--n", "3", "--b", "1"],
        ["verify", "--suite", "theorem21", "--complex", circle3, "--trials", "1"],
        ["verify", "--suite", "nilpotent-vanishing"],
    )
    for argv in jobs:
        assert cli.main(argv) == 0, argv
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        given = {
            flag[2:]: path
            for flag, path in zip(argv, argv[1:])
            if flag in ("--action", "--complex", "--left", "--map", "--right", "--weights")
        }
        assert inputs == {
            name: {"path": path, "sha256": file_digest(path)} for name, path in given.items()
        }, argv


def test_every_subcommand_has_help(capsys):
    takes_lambda = {"betti", "wang", "product", "mapping-torus", "cover", "hodge"}
    for command in takes_lambda | {"bounds", "verify"}:
        with pytest.raises(SystemExit) as stop:
            cli.main([command, "--help"])
        assert stop.value.code == 0, command
        text = capsys.readouterr().out
        assert ("--lambda" in text) is (command in takes_lambda), command
        assert ("--backend" in text) is (command in takes_lambda - {"hodge"}), command
        assert "--output" in text, command


def test_rejections_exit_2_with_their_message(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    payload = json.loads((FIXTURES / "circle3.json").read_text())
    del payload["cocycle"]
    bare.write_text(json.dumps(payload))
    object_map = tmp_path / "object_map.json"
    object_map.write_text(json.dumps({"0": 0}))
    for argv, message in (
        (["betti", "--complex", str(bare), "--lambda", "2"], "carries no cocycle"),
        (["mapping-torus", "--complex", str(FIXTURES / "torus2.json"), "--map", str(object_map),
          "--lambda", "2"], "map file must hold a JSON list"),
        (["bounds", "--n", "1"], "--n must be at least 2"),
    ):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert message in err, argv
        assert "Traceback" not in err, argv
