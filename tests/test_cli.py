"""Command line behavior: outputs, exit codes, error mapping."""

import json
import subprocess
import sys

import pytest

import polywit
from polywit import cli, harness
from polywit.cli import run
from polywit.matrices import Matrix
from polywit.randgen import random_trace_zero
from polywit.serialize import matrix_from_json, matrix_to_json


@pytest.fixture()
def target_file(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(matrix_to_json(Matrix([[0, 1], [0, 0]]))))
    return str(path)


def test_witness_writes_verified_document(target_file, tmp_path, capsys):
    out = tmp_path / "wit.json"
    code = run(
        [
            "witness",
            "--poly-str",
            "X1*X2 - X2*X1",
            "--target",
            target_file,
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["s"] == 3 and doc["verified"] is True
    report = json.loads(captured.err.strip().splitlines()[-1])
    assert report["poly"] == "X1*X2 - X2*X1"
    assert report["d"] == 2 and report["s"] == 3
    assert report["verified"] is True
    assert report["field"] == "rationals"
    assert report["wall_time"] >= 0
    assert report["construct_s"] >= 0 and report["verify_s"] >= 0
    assert report["construct_s"] + report["verify_s"] <= report["wall_time"]
    assert report["trace"] == [{"k": 0, "omegabar": [], "branch": "rewrite"}]


def test_witness_reports_height_and_density(tmp_path, capsys):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(matrix_to_json(random_trace_zero(16, seed=1))))
    code = run(["witness", "--poly-str", "X1*X2 - X2*X1", "--target", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.err.strip().splitlines()[-1])
    # The basis-change hollow form gave entries about 3000 bits high here.
    assert 0 < report["max_bits"] < 64
    assert 0 < report["density"] <= 1


def test_witness_stdout_default(target_file, capsys):
    code = run(["witness", "--poly-str", "X1", "--target", target_file])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["s"] == 2 and doc["u"] == {}


def test_witness_no_verify_reports_unchecked(target_file, capsys):
    code = run(
        ["witness", "--poly-str", "X1", "--target", target_file, "--no-verify"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["verified"] is False


def test_witness_poly_file(tmp_path, target_file, capsys):
    poly = tmp_path / "poly.txt"
    poly.write_text("X1*X2 - X2*X1\n")
    code = run(["witness", "--poly", str(poly), "--target", target_file])
    capsys.readouterr()
    assert code == 0


def test_verify_round_trip_and_tamper(target_file, tmp_path, capsys):
    out = tmp_path / "wit.json"
    run(
        [
            "witness",
            "--poly-str",
            "X1*X2 - X2*X1",
            "--target",
            target_file,
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    code = run(
        [
            "verify",
            "--poly-str",
            "X1*X2 - X2*X1",
            "--witness",
            str(out),
            "--target",
            target_file,
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    doc["x"]["1"]["rows"][0][1] = "99"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(
        [
            "verify",
            "--poly-str",
            "X1*X2 - X2*X1",
            "--witness",
            str(out),
            "--target",
            target_file,
        ]
    )
    assert code == 2


def test_verify_noncommuting_witness_fails(target_file, tmp_path, capsys):
    doc = {
        "s": 2,
        "x": {"1": matrix_to_json(Matrix.identity(2))},
        "u": {
            "3": matrix_to_json(Matrix.unit(2, 1, 2)),
            "4": matrix_to_json(Matrix.unit(2, 2, 1)),
        },
        "target": matrix_to_json(Matrix([[0, 1], [0, 0]])),
        "verified": True,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = run(
        ["verify", "--poly-str", "X1", "--witness", str(path), "--target", target_file]
    )
    capsys.readouterr()
    assert code == 2


def test_hollow_command(target_file, capsys):
    code = run(["hollow", "--matrix", target_file])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert set(doc) == {"p", "p_inv", "h"}
    h = doc["h"]["rows"]
    assert all(h[i][i] == "0" for i in range(len(h)))
    p, p_inv = matrix_from_json(doc["p"]), matrix_from_json(doc["p_inv"])
    assert p * p_inv == Matrix.identity(len(h))


def test_hollow_rejects_nonzero_trace(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(Matrix([[1, 0], [0, 1]]))))
    code = run(["hollow", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "trace" in captured.err


def test_partitions_command(capsys):
    code = run(["partitions", "--n", "2", "--omega", "3,4"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert len(doc) == 4
    assert [[3, 4], []] in doc


def test_partitions_empty_omega(capsys):
    code = run(["partitions", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == [[[], [], []]]


@pytest.mark.parametrize("omega", ["0,1", "2"])
def test_partitions_rejects_indices_not_above_n(omega, capsys):
    assert run(["partitions", "--n", "2", "--omega", omega]) == 3
    assert "exceed the variable count" in capsys.readouterr().err


def test_partitions_rejects_index_past_digit_limit(capsys):
    huge = "7" * 5000
    assert run(["partitions", "--n", "2", "--omega", huge]) == 3
    assert "value has 5000 digits" in capsys.readouterr().err


def test_word_expansion_is_not_shipped(tmp_path, capsys):
    path = tmp_path / "adm.json"
    path.write_text(
        json.dumps([{"sigma": [1], "parts": [[2]], "coeff": "1"}])
    )
    assert run(["expand", "--admissible", str(path)]) == 3
    capsys.readouterr()
    assert all(hasattr(polywit, name) for name in polywit.__all__)
    moved = {
        "PCPoly", "expand_admissible", "extract_coefficients", "NotAdmissibleError"
    }
    assert not any(hasattr(polywit, name) for name in moved)


def test_reduce_command(capsys):
    code = run(["reduce", "--poly-str", "X1*X2"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["branch"] == "pi"
    assert doc["pi_of_g"] == [{"sigma": [1], "parts": [[]], "coeff": "1"}]
    assert doc["rewritten"] is None


def test_reduce_shows_the_chosen_variable(capsys):
    # Eliminating X4 would rewrite 2 terms into 3; X3 goes to 1 instead.
    code = run(["reduce", "--poly-str", "X1*X2*X3*X4 - X4*X1*X2*X3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (doc["v"], doc["k"], doc["branch"]) == (3, 0, "pi")
    # Written with X3 and X4 exchanged: X3 stands for the input's X4.
    assert doc["pi_of_g"] == [
        {"sigma": [1, 2, 3], "parts": [[], [], []], "coeff": "1"},
        {"sigma": [3, 1, 2], "parts": [[], [], []], "coeff": "-1"},
    ]


def test_reduce_rejects_zero_and_unary(capsys):
    assert run(["reduce", "--poly-str", "X1 - X1"]) == 3
    assert run(["reduce", "--poly-str", "X1"]) == 3
    capsys.readouterr()


def test_selftest_command(capsys):
    code = run(["selftest", "--cases", "3", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "witness construction" in captured.out
    assert "result: PASS" in captured.out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_rejects_fewer_than_one_case(cases, capsys):
    assert run(["selftest", "--cases", cases]) == 3
    captured = capsys.readouterr()
    assert "result: PASS" not in captured.out
    assert "at least one case" in captured.err


def test_selftest_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("PW_SEED", "11")
    assert run(["selftest", "--cases", "2"]) == 0
    capsys.readouterr()


def test_selftest_reports_first_failure(monkeypatch, capsys):
    def flaky(i, seed):
        if i == 2:
            raise ZeroDivisionError("case two")
        return i != 3

    monkeypatch.setattr(harness, "_SUITES", [("flaky suite", flaky)])
    ok, rows = harness.selftest(cases=5, seed=4)
    assert not ok
    seed2 = 4 * 100003 + 2 * 257
    assert rows == [("flaky suite", 5, 2, (2, seed2, "ZeroDivisionError('case two')"))]
    assert run(["selftest", "--cases", "5", "--seed", "4"]) == 2
    out = capsys.readouterr().out
    assert f"seed {seed2}" in out
    assert "ZeroDivisionError('case two')" in out
    assert "result: FAIL" in out


def test_internal_type_error_is_not_an_input_error(monkeypatch):
    def broken(args):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(cli, "_cmd_partitions", broken)
    with pytest.raises(TypeError):
        run(["partitions", "--n", "1"])


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    def broken(args):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "_cmd_partitions", broken)
    with pytest.raises(ValueError):
        run(["partitions", "--n", "1"])


def test_non_integer_pw_seed_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("PW_SEED", "eleven")
    assert run(["selftest", "--cases", "1"]) == 3
    assert "PW_SEED must be an integer, got 'eleven'" in capsys.readouterr().err


def test_undecodable_inputs_are_input_errors(target_file, tmp_path, capsys):
    not_utf8 = tmp_path / "poly.txt"
    not_utf8.write_bytes(b"X1\xff")
    assert run(["witness", "--poly", str(not_utf8), "--target", target_file]) == 3
    long_int = tmp_path / "long.json"
    long_int.write_text('{"size": ' + "1" * 5000 + ', "rows": []}')
    assert run(["witness", "--poly-str", "X1", "--target", str(long_int)]) == 3
    long_entry = tmp_path / "entry.json"
    long_entry.write_text(json.dumps({"size": 1, "rows": [["1" * 5000]]}))
    assert run(["witness", "--poly-str", "X1", "--target", str(long_entry)]) == 3
    long_coeff = "1" * 5000 + "*X1"
    assert run(["witness", "--poly-str", long_coeff, "--target", target_file]) == 3
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and "not valid JSON" in err
    assert "rational literal too long" in err and "position 1" in err


def test_input_error_exit_codes(target_file, tmp_path, capsys):
    assert run(["witness", "--poly-str", "X1*X1", "--target", target_file]) == 3
    assert run(["witness", "--poly-str", "X1 +", "--target", target_file]) == 3
    missing = str(tmp_path / "nope.json")
    assert run(["witness", "--poly-str", "X1", "--target", missing]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["witness", "--poly-str", "X1", "--target", str(bad)]) == 3
    capsys.readouterr()


def test_nonzero_trace_target_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(Matrix([["1/3", 0], [0, 0]]))))
    code = run(["witness", "--poly-str", "X1", "--target", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "1/3" in captured.err


def test_usage_error_maps_to_input_error(capsys):
    assert run([]) == 3
    assert run(["witness"]) == 3
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polywit", "partitions", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [[[]]]
