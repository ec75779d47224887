import argparse
import csv
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotorsusy import HarmonicSpace, supercharge
from rotorsusy.cli import _emit, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_default_passes(capsys):
    code, out, _ = run(capsys, "verify", "--jmax", "4")
    assert code == 0
    assert "pass" in out
    assert "fail" not in out


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--jmax", "3", "--suite", "polynomials")
    assert code == 0
    assert "polynomials." in out
    assert "operators." not in out


def test_verify_fails_under_absurd_tolerance(capsys):
    # scaling every tolerance down by 1e-9 pushes machine-precision
    # residuals over the line; the command must report failure via exit 1
    code, out, _ = run(capsys, "verify", "--jmax", "2", "--tolerance-scale", "1e-9")
    assert code == 1
    assert "FAIL" in out


def test_verify_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--jmax", "2", "--output", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == "1"
    assert doc["kind"] == "report"
    assert doc["payload"]["all_passed"] is True
    names = [c["name"] for c in doc["payload"]["checks"]]
    assert "susy.square_identity" in names
    # stdout still carries the human-readable table
    assert "susy.square_identity" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--jmax", "-1"],
        ["verify", "--tolerance-scale", "-2"],
        ["verify", "--suite", "nonsense"],
        ["spectrum", "--j", "2", "--op", "X"],
        ["spectrum", "--j", "-3", "--op", "Q"],
        ["poly", "--N", "0", "--what", "coeffs"],
        ["basis", "--j", "1", "--family", "W"],
        ["overlaps", "--N", "2", "--method", "sideways"],
        ["nonsense"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_spectrum_json_envelope(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "2", "--op", "Q", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["kind"] == "spectrum"
    assert doc["metadata"]["j"] == 2
    assert doc["metadata"]["conventions"]["complex_format"] == "[re, im]"
    assert_allclose(doc["payload"]["eigenvalues"], [-2.5, 2.5], atol=1e-10)
    assert doc["payload"]["multiplicities"] == [3, 2]


def test_spectrum_hamiltonian_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "3", "--op", "H")
    assert code == 0
    assert "12.25" in out


def test_poly_frozen_payloads(capsys):
    code, out, _ = run(capsys, "poly", "--N", "2", "--what", "weights", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert_allclose(payload["derived"], [0.25, 0.125, 0.625], atol=1e-12)
    assert_allclose(payload["closed_form"], [1.0, -1.0, 10.0], atol=1e-12)
    assert payload["discrepant"] is True
    assert_allclose(payload["norms"], [0.5, 0.15625], atol=1e-14)

    code, out, _ = run(capsys, "poly", "--N", "2", "--what", "params", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["rho2"] == 1.5
    assert payload["r2"] == 1.5


def test_poly_coefficient_csv_round_trip(capsys):
    code, out, _ = run(capsys, "poly", "--N", "2", "--what", "coeffs", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert float(rows[1]["A"]) == 1.25
    assert float(rows[1]["C"]) == -1.0
    assert float(rows[2]["monic_c"]) == 0.3125
    assert rows[0]["monic_c"] == ""


def test_poly_values_grid(capsys):
    code, out, _ = run(capsys, "poly", "--N", "2", "--what", "values", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert_allclose(payload["x"], [0.0, -1.0, 1.0])


def test_basis_csv_reconstructs_eigenvectors(capsys):
    code, out, _ = run(capsys, "basis", "--j", "2", "--family", "F", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    space = HarmonicSpace(2)
    q = supercharge(space)
    cols = np.empty((space.dim, len(rows)), dtype=complex)
    for i, row in enumerate(rows):
        cols[:, i] = [
            float(row[f"c{a}_re"]) + 1j * float(row[f"c{a}_im"]) for a in range(space.dim)
        ]
        assert_allclose(q.matrix @ cols[:, i], -2.5 * cols[:, i], atol=1e-10)
    assert_allclose(cols.conj().T @ cols, np.eye(3), atol=1e-12)


def test_basis_json_complex_pairs(capsys):
    code, out, _ = run(capsys, "basis", "--j", "1", "--family", "F", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    first = payload["vectors"][0]
    assert len(first) == 3 and len(first[0]) == 2
    assert_allclose(first[0][0], 1.0 / np.sqrt(6.0))
    assert payload["labels"][0] == {"k": 0, "q": -1.5, "k3": 0.5}


def test_basis_empty_family_is_not_an_error(capsys):
    code, out, _ = run(capsys, "basis", "--j", "0", "--family", "G", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["vectors"] == []


def test_overlaps_both_methods_agree(capsys):
    code, out, _ = run(capsys, "overlaps", "--N", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["method"] == "both"
    assert payload["max_deviation"] < 1e-8
    assert payload["unitarity_residual_integral"] < 1e-9
    assert payload["unitarity_residual_recurrence"] < 1e-9
    wi = np.array([[complex(re, im) for re, im in row] for row in payload["W_integral"]])
    assert_allclose(wi.conj().T @ wi, np.eye(4), atol=1e-9)


@pytest.mark.parametrize("argv", [
    ["poly", "--what", "weights", "--N", "30"],
    ["overlaps", "--N", "40", "--method", "recurrence"],
])
def test_large_polynomial_commands_succeed(argv, capsys):
    code, _, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err


def test_overlaps_single_method_csv(capsys):
    code, out, _ = run(capsys, "overlaps", "--N", "2", "--method", "integral", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(row["method"] == "integral" for row in rows)
    assert len(rows) == 3  # one row per polynomial degree n
    assert float(rows[1]["k1_re"]) == pytest.approx(0.75, abs=1e-12)


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "f1.json"
    code, out, _ = run(
        capsys, "basis", "--j", "1", "--family", "F", "--format", "json", "--output", str(target)
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["kind"] == "basis"


def test_exports_are_deterministic(capsys):
    a = run(capsys, "basis", "--j", "3", "--family", "Z", "--format", "json")
    b = run(capsys, "basis", "--j", "3", "--family", "Z", "--format", "json")
    assert a == b
    a = run(capsys, "verify", "--jmax", "2", "--format", "json")
    b = run(capsys, "verify", "--jmax", "2", "--format", "json")
    assert a == b


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_emit_renders_only_the_requested_format(fmt, tmp_path):
    called = []

    def builder(name, value):
        def build():
            called.append(name)
            return value
        return build

    args = argparse.Namespace(format=fmt, output=str(tmp_path / "out"))
    _emit(args, "spectrum", {"j": 0}, builder("json", {"x": 1}),
          builder("table", ["line"]), builder("csv", [["a", "b"]]))
    assert called == [fmt]
    text = (tmp_path / "out").read_text()
    expected = {"table": "line\n", "csv": "a,b\n"}
    if fmt == "json":
        assert json.loads(text)["payload"] == {"x": 1}
    else:
        assert text == expected[fmt]
