import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotorsusy import (HarmonicSpace, decompose, f_basis, j3, m_basis, overlaps_via_integral, spectrum,
                       supercharge)
from rotorsusy import cli, verification
from rotorsusy.cli import _emit, _grid, _json_chunks, _pairs, build_parser, main
from rotorsusy.errors import ContractViolation
from rotorsusy.harmonics import _legendre_table

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_verify_report_file_takes_the_requested_format(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--jmax", "2", "--format", "csv", "--output", str(target))
    assert code == 0
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[0] == ["check", "status", "residual", "tolerance", "detail"]
    assert len(rows) == 1 + 28
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
        ["basis", "--j", "0", "--family", "Z"],
        # only verify has tolerances to scale
        ["spectrum", "--j", "2", "--op", "Q", "--tolerance-scale", "2"],
        # an infinite tolerance has no JSON spelling
        ["verify", "--tolerance-scale", "inf"],
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


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_basis_exports_follow_their_stated_phase_rule(j, tmp_path):
    docs = {}
    for family in "MFGZ":
        path = tmp_path / f"{family}.json"
        assert main(["basis", "--family", family, "--j", str(j), "--format", "json", "--output", str(path)]) == 0
        docs[family] = json.loads(path.read_text())
    assert all(set(doc["metadata"]["conventions"]["phase_rule"]) == set("MFGZ") for doc in docs.values())
    vecs = {family: np.array(doc["payload"]["vectors"]) @ [1.0, 1.0j] for family, doc in docs.items()}
    # M: (Y^{-m} + i eps Y^m) / sqrt(2) as written, m = 0 included
    slot = {}
    for i, (lab, v) in enumerate(zip(docs["M"]["payload"]["labels"], vecs["M"])):
        m, eps = lab["m"], lab["epsilon"]
        want = np.zeros(2 * j + 1, dtype=complex)
        want[j - m] += 1 / np.sqrt(2.0)
        want[j + m] += 1j * eps / np.sqrt(2.0)
        assert_allclose(v, want, rtol=0, atol=1e-15)
        slot[m, eps] = i
    # F and G: a M^{k+1,eps} + i sign b M^{k,eps}, eps = (-1)^k, with a, b >= 0 and nothing else
    for family, shift in (("F", 1), ("G", 0)):
        coefs = vecs[family] @ vecs["M"].conj().T
        for k, c in enumerate(coefs):
            eps, sign = (-1) ** k, (-1) ** (j + k + shift)
            upper, lower = c[slot[k + 1, eps]] if k < j else 0.0, c[slot[k, eps]]
            assert upper.real >= 0 and abs(upper.imag) <= 1e-15, (family, k)
            assert abs(lower.real) <= 1e-15 and sign * lower.imag > 0, (family, k)
            assert abs(abs(upper) ** 2 + abs(lower) ** 2 - 1.0) <= 1e-14, (family, k)
    # Z: a real combination of the F vectors whose F_j^0 coefficient has the sign s_k
    w = vecs["F"].conj() @ vecs["Z"].T
    k = np.arange(j + 1)
    s = (-1) ** (j // 2) * np.ones(j + 1) if j % 2 == 0 else (-1.0) ** ((j + 1) // 2 + k)
    assert np.max(np.abs(w.imag)) <= 1e-15
    assert np.all(np.sign(w[0].real) == s)


def test_spectrum_hamiltonian_table(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "3", "--op", "H")
    assert code == 0
    assert "12.25" in out


def test_poly_frozen_payloads(capsys):
    code, out, _ = run(capsys, "poly", "--N", "2", "--what", "weights", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert_allclose(payload["derived"], [0.25, 0.125, 0.625], atol=1e-12)
    assert_allclose(payload["log2_norms"], np.log2([0.5, 0.15625]), atol=1e-14)
    assert set(payload) == {"N", "x", "derived", "log2_norms"}

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


def test_poly_values_refuse_values_that_are_not_finite(capsys, tmp_path):
    # P_{N+1} on the grid overflows float64 from N = 178 on: one line on stderr, exit 1, no output
    path = tmp_path / "values.json"
    argv = ["poly", "--what", "values", "--format", "json"]
    assert run(capsys, *argv, "--N", "177", "--output", str(path)) == (0, "", "")
    assert "Infinity" not in path.read_text() and "NaN" not in path.read_text()
    code, out, err = run(capsys, *argv, "--N", "178")
    assert (code, out) == (1, "")
    assert err == "verification failure: monic values P_0..P_179 at N=178 are not finite in float64\n"


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


def test_a_broken_check_is_written_as_strict_json(monkeypatch, capsys):
    # a structural failure reads residual inf, which JSON cannot spell: the
    # report writes it as null, and the row's "fail" and detail say why
    def broken(js, run):
        raise verification._Broken("forced break")
        yield

    monkeypatch.setattr(verification, "_CHECKS", [
        dataclasses.replace(c, body=broken) if c.name == "overlaps.duality" else c for c in verification._CHECKS])
    code, out, err = run(capsys, "verify", "--jmax", "2", "--format", "json")
    assert (code, err) == (1, "")
    rows = {row["name"]: row for row in json.loads(out, parse_constant=_refuse)["payload"]["checks"]}
    assert rows["overlaps.duality"] == {"name": "overlaps.duality", "status": "fail", "residual": None,
                                        "tolerance": 1e-08, "detail": "forced break"}
    assert all(isinstance(row["residual"], float) for name, row in rows.items() if name != "overlaps.duality")


def test_an_export_that_is_not_finite_exits_1_with_one_line(monkeypatch, capsys):
    # JSON has no NaN: the writer refuses it where json.dumps would write the token
    monkeypatch.setattr(cli.ak, "bannai_ito_params", lambda n: {"rho1": 0.0, "rho2": math.nan})
    code, out, err = run(capsys, "poly", "--what", "params", "--N", "3", "--format", "json")
    assert code == 1 and "NaN" not in out
    assert err == "verification failure: cannot write nan as JSON, which has no NaN or infinity\n"


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
    ["overlaps", "--N", "100", "--method", "recurrence"],
    ["basis", "--family", "Z", "--j", "90"],
])
def test_large_polynomial_commands_succeed(argv, capsys):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert "NaN" not in out


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

    def builder(name, build):
        def call(*a):
            called.append(name)
            return build(*a)
        return call

    args = argparse.Namespace(format=fmt, output=str(tmp_path / "out"))
    _emit(args, "spectrum", {"j": 0}, builder("payload", lambda: {"x": 1}), ["p", "q", "r", "s"],
          builder("rows", lambda: [(1.5, None, 3, "a")]),
          builder("table", _grid(["head"], "{:>5}|{:>9.5f}|{}|{}")))
    text = (tmp_path / "out").read_text()
    if fmt == "json":
        assert called == ["payload"]
        assert json.loads(text)["payload"] == {"x": 1}
    elif fmt == "csv":
        assert called == ["rows"]
        assert text == "p,q,r,s\n1.5,,3,a\n"
    else:
        assert called == ["rows", "table"]
        assert text == "head\n  1.5|        -|3|a\n"


def _as_lists(obj):
    """obj with every ndarray replaced by its tolist(), a complex one by the
    tolist() of its [re, im] pairs, as json sees it."""
    if isinstance(obj, np.ndarray):
        return (np.stack([obj.real, obj.imag], -1) if np.iscomplexobj(obj) else obj).tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


_SPECIAL = np.array([-0.0, 5e-324, 1e308, 1.0 / 3.0, 0.0, -2.5])
_NONFINITE = np.array([[np.nan, 1.0], [np.inf, -np.inf]])


@pytest.mark.parametrize("obj", [
    np.arange(5.0),
    np.linspace(-1.0, 1.0, 12).reshape(3, 4),
    np.linspace(-3.0, 7.0, 24).reshape(2, 3, 4) / 7.0,
    np.empty((0,)),
    np.empty((0, 2)),
    np.empty((3, 0)),
    np.array(2.5),
    np.arange(6).reshape(2, 3),
    _SPECIAL,
    _NONFINITE,
    {"x": _SPECIAL, "y": [_NONFINITE, {"z": np.ones((2, 1, 2))}], "w": np.empty((3, 0))},
    {"a": {}, "b": [], "c": [[], {}], "d": [1, [2, [3, {"e": None}]]]},
    [0, -7, 10**20, True, False, None, 1.5, float("nan"), float("-inf")],
    ("tuple", 1, 2.0),
    {"ключ": "значение", "esc\"\\\n\t": "\u0001 \u2028 é 😀", 3: "int key", True: 0.1},
    "plain",
    {},
    [],
    np.empty((2, 0, 3)),
    np.array([7.0]),
    np.full((2, 2, 2), -0.0),
    np.linspace(0.0, 1.0, 16).reshape(2, 2, 2, 2),
    # mostly zero: filled into the all-0.0 row text
    np.zeros((3, 4)),
    np.array([0.0, 0.0, -0.0, 3.0, 0.0, 0.0, 0.0, 0.0]),
    np.array([[0.0, -0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 0.0], [-2.0, 0.0, 0.0, 1e-300],
              [0.0, 0.0, 0.0, 0.0]]),
    np.eye(5).reshape(5, 5, 1) * -1.0,
    _pairs(f_basis(HarmonicSpace(7)).coeffs.T),
    # complex: rendered as [re, im] pairs with no pairs array
    np.linspace(-1.0, 1.0, 12).reshape(3, 4) * (1.0 + 2.0j) / 3.0,
    f_basis(HarmonicSpace(7)).coeffs.T,
    np.array([[complex(-0.0, 0.0), 0.0, complex(0.0, -0.0), 0.0],
              [0.0, 0.0, 0.0, 0.0], [0.0, 3.0 - 1.0j, 0.0, complex(-0.0, -0.0)]]),
    np.array([complex(-0.0, 1.5), complex(2.0, -0.0), 1.0 + 1.0j, -0.5j]),
    np.linspace(0.0, 1.0, 8).reshape(2, 2, 2) * (0.25 - 1.0j),
    np.array([[1.0 + 1.0j, complex(np.nan, 0.0)], [complex(0.0, np.inf), -np.inf]]),
    np.array(1.0 - 2.0j),
    np.empty((0, 3), dtype=complex),
    # a 1-d array is one template: strided, complex, float32, nested
    np.linspace(-1.0, 1.0, 9)[::2],
    f_basis(HarmonicSpace(3)).coeffs.T[1],
    np.arange(4, dtype=np.float32) / 3,
    {"v": [np.array([0.5, -0.0, 1e-310]), np.array([2.0 + 0.0j])]},
    # numpy scalars json spells as floats; non-ASCII and control characters
    [np.float64(0.1), np.float64(-0.0), np.float64("nan"), 2**70, -0.0, "\x7f\ud800", ""],
])
def test_json_renderer_matches_indented_dumps(obj):
    # JSON has no NaN or infinity: where json.dumps(allow_nan=False) refuses, the renderer raises
    try:
        expected = json.dumps(_as_lists(obj), indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ContractViolation, match="no NaN or infinity"):
            "".join(_json_chunks(obj))
    else:
        assert "".join(_json_chunks(obj)) == expected


def test_json_chunks_hold_one_outermost_row_of_a_float_array_each():
    a = np.linspace(-1.0, 1.0, 24).reshape(4, 3, 2)
    chunks = list(_json_chunks(a))
    assert len(chunks) == 5 and chunks[-1] == "\n]"
    for row, chunk in zip(a, chunks):
        assert chunk[0] in "[," and json.loads(chunk[1:]) == row.tolist()
    # a 1-d array is one row: one chunk, not one per element
    assert list(_json_chunks(a.ravel())) == [json.dumps(a.ravel().tolist(), indent=2)]


@pytest.mark.parametrize("argv", [
    ["basis", "--family", "F", "--j", "20"],
    ["overlaps", "--N", "5", "--method", "both"],
    ["poly", "--what", "values", "--N", "10"],
    ["verify", "--jmax", "2"],
])
def test_json_exports_round_trip_through_indented_dumps(argv, tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run(capsys, *argv, "--format", "json", "--output", str(target))
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_weights_export_past_the_float_range_of_the_norms_exits_0(capsys):
    code, out, err = run(capsys, "poly", "--what", "weights", "--N", "116", "--format", "json")
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert len(payload["derived"]) == 117 and payload["log2_norms"][-1] > 1024


def test_each_subcommand_parses_its_own_format_default():
    # verify picks json with --output, else table; the others default to table
    parser = build_parser()
    argvs = {"verify": [], "spectrum": ["--j", "2", "--op", "Q"],
             "basis": ["--j", "2", "--family", "F"], "poly": ["--N", "2", "--what", "coeffs"],
             "overlaps": ["--N", "2"]}
    formats = {name: parser.parse_args([name, *argv]).format for name, argv in argvs.items()}
    assert formats == {"verify": None, "spectrum": "table", "basis": "table", "poly": "table",
                       "overlaps": "table"}


def test_main_reuses_one_parser_without_leaking_defaults(capsys):
    # the verify table ends each row with the check's time, which is masked
    def untimed(code, out, err):
        return code, re.sub(r"\d+\.\d+s$", "<time>", out, flags=re.M), err

    sequence = [["verify", "--jmax", "2", "--format", "csv"], ["verify", "--jmax", "2"],
                ["spectrum", "--j", "2", "--op", "Q"]]
    reused = [untimed(*run(capsys, *argv)) for argv in sequence]
    fresh = []
    for argv in sequence:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        fresh.append(untimed(code, *capsys.readouterr()))
    assert reused == fresh
    assert reused[0][1].startswith("check,status") and "<time>" in reused[1][1]


@pytest.mark.parametrize("name, limit_mib", [("decompose", 30.0), ("export", 1.5), ("export_csv", 1.2),
                                             ("export_table", 1.0), ("export_m", 1.3)])
def test_large_degree_checks_build_no_dense_operator(name, limit_mib, tmp_path):
    # dense 513 x 513 operators and their products peaked at 46.7 and 31.9 MiB.
    # The F export at j = 256 held the (513, 257) basis three times (as
    # written, as LabeledBasis's copy, as a float pairs array), 6.9 MiB in
    # JSON, and 12.2 MiB in CSV, which also held the whole text; with the
    # basis kept as written, rendered from its rows and streamed, both peak
    # under 3 MiB.  The table, joined into one string, peaked at 7.45 MiB;
    # written line by line, at 2.2.  Rendered from the keys 32 vectors at a
    # time, with no (513, 257) array, they peak at 1.07 (JSON), 0.86 (CSV)
    # and 0.69 MiB (table), and the M export at 0.91 MiB (5.5 with its
    # (513, 513) basis)
    run_op = {
        "decompose": lambda: decompose(HarmonicSpace(256)),
        "export": lambda: main(["basis", "--family", "F", "--j", "256", "--format", "json",
                                "--output", str(tmp_path / "f.json")]),
        "export_csv": lambda: main(["basis", "--family", "F", "--j", "256", "--format", "csv",
                                    "--output", str(tmp_path / "f.csv")]),
        "export_table": lambda: main(["basis", "--family", "F", "--j", "256", "--format", "table",
                                      "--output", str(tmp_path / "f.txt")]),
        "export_m": lambda: main(["basis", "--family", "M", "--j", "256", "--format", "json",
                                  "--output", str(tmp_path / "m.json")]),
    }[name]
    assert _traced_peak_mib(run_op) <= limit_mib


def _traced_peak_mib(run_op):
    tracemalloc.start()
    try:
        run_op()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, limit_mib", [("decompose", 2.0), ("f_basis", 2.5), ("m_basis", 5.0),
                                             ("spectrum", 0.5), ("spectrum_1000", 2.0),
                                             ("spectrum_j3_1000", 1.0),
                                             ("overlaps_via_integral", 4.5),
                                             ("overlaps_via_integral_100", 64.0),
                                             ("legendre_table", 5.2)])
def test_large_degree_ops_stay_within_their_memory_budget(name, limit_mib):
    # gathered (2j+1, n) copies per term and a (4, n, n) bra stack peaked
    # at 22.4 and 10.3 MiB, and a dense m - m^H check at 12.2 MiB; slices
    # leave one temporary per term, and the check works on row blocks.
    # decompose on dense (2j+1, n) bases peaked at 8.4 MiB; keyed, it holds
    # O(j) coefficients and peaks under 1 MiB.  overlaps_via_integral held
    # two dense (2N+1, N+1, 4N+2) stacks over the mesh, 7.4 MiB at N = 30
    # and 252 MiB at N = 100; streamed over blocks of theta-rings it peaks
    # at 2.8 and 8.5 MiB (2.2 and 5.4 in blocks of 1,536 mesh points, not
    # 2,048).  spectrum wrote Q as a complex (513, 513) matrix,
    # 4.2 MiB, then as a float64 one in the real basis, 2.1 MiB (30.8 MiB at
    # j = 1000); in exact blocks of size 1 or 2 it holds O(j) entries, about
    # 0.35 MiB at j = 256 and 1.3 MiB at j = 1000.  J3 at j = 1000, solved
    # as its dense complex matrix, peaked at 61.2 MiB; in blocks of size 1 or
    # 2, at 0.48 MiB.
    # f_basis checked its unit norms on a complex |c|^2 copy, 6.1 MiB; from
    # the real and imaginary views it peaked at 4.1 MiB, the basis as written
    # and LabeledBasis's copy of it.  Handed over read-only and kept, the
    # basis (2.0 MiB at j = 256) is held once: 2.1 MiB, and m_basis 4.2
    # (8.2 with the copy).  _legendre_table peaked at six times its result,
    # 7.0 MiB at j = 75 on 2,000 points; in place, 5.0 MiB.
    run_op = {"decompose": lambda: decompose(HarmonicSpace(256)),
              "f_basis": lambda: f_basis(HarmonicSpace(256)),
              "m_basis": lambda: m_basis(HarmonicSpace(256)),
              "legendre_table": lambda: _legendre_table(75, np.linspace(-1.0, 1.0, 2000)),
              "spectrum": lambda: spectrum(supercharge(HarmonicSpace(256))),
              "spectrum_1000": lambda: spectrum(supercharge(HarmonicSpace(1000))),
              "spectrum_j3_1000": lambda: spectrum(j3(HarmonicSpace(1000))),
              "overlaps_via_integral": lambda: overlaps_via_integral(30),
              "overlaps_via_integral_100": lambda: overlaps_via_integral(100)}[name]
    assert _traced_peak_mib(run_op) <= limit_mib


def _fresh_python(code):
    """The stdout of code run in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_verify_does_not_import_numpy_fft():
    # numpy.fft loads on first use; its import alone raises ru_maxrss by about 0.26 MiB
    code = ("import sys; from rotorsusy.verification import run_verification; "
            "assert run_verification(10).all_passed; print('numpy.fft' in sys.modules)")
    assert _fresh_python(code).strip() == "False"


def test_verify_does_not_import_fractions():
    # the exact-integer oracles divide their integers themselves: fractions, and the
    # decimal module it imports, raised ru_maxrss by about 0.4 MiB
    code = ("import sys; from rotorsusy.verification import run_verification; "
            "assert run_verification(30).all_passed; print('fractions' in sys.modules)")
    assert _fresh_python(code).strip() == "False"


def test_grids_do_not_import_numpy_polynomial():
    # build_grid's own Gauss-Legendre rule needs no numpy.polynomial, whose
    # lazy import took about 4.5 ms of each fresh interpreter
    code = ("import sys; import numpy as np; from rotorsusy import build_grid, project\n"
            "from rotorsusy.antikrawtchouk import overlaps_via_integral\n"
            "from rotorsusy.verification import run_verification\n"
            "assert run_verification(10).all_passed\n"
            "overlaps_via_integral(5)\n"
            "project(lambda theta, phi: np.cos(theta) + 0 * phi, 1, build_grid(20))\n"
            "print('numpy.polynomial' in sys.modules)")
    assert _fresh_python(code).strip() == "False"


def test_spectra_do_not_import_numpy_ma():
    # a bare np.unique imports numpy.ma lazily (np.ma.is_masked), about 10 ms
    # of a fresh interpreter; the block split of spectrum needs none
    code = ("import sys; from rotorsusy import HarmonicSpace, spectrum, supercharge\n"
            "from rotorsusy.verification import run_verification\n"
            "assert run_verification(30).all_passed\n"
            "spectrum(supercharge(HarmonicSpace(256)))\n"
            "print('numpy.ma' in sys.modules)")
    assert _fresh_python(code).strip() == "False"


def test_json_exports_do_not_import_csv():
    # the csv module is the CSV writer's alone; JSON exports must not load it
    code = ("import os, sys; from rotorsusy.cli import main\n"
            "for argv in (['basis', '--family', 'F', '--j', '3'],\n"
            "             ['poly', '--what', 'coeffs', '--N', '7']):\n"
            "    assert main(argv + ['--format', 'json', '--output', os.devnull]) == 0\n"
            "print('csv' in sys.modules)")
    assert _fresh_python(code).strip() == "False"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--j", "1", "--op", "Q", "--format", "json"),
    ("verify", "--jmax", "1"),
], ids=lambda argv: argv[0])
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert err.count("\n") == 1 and str(target) in err
    assert not target.parent.exists()


# SHA-256 of exports written before the actions moved onto slices (x86-64,
# numpy 2.4, OpenBLAS); the slices must leave every byte as it was.  Every
# digest but decompose's taken again when the envelope's phase_rule became
# one statement per family of the phases the closed forms have; each
# payload is unchanged, but for the verify row named there
_GOLDEN_SHA256 = {
    ("basis", "--family", "F", "--j", "64"):
        "d3185dd8614d12a1373846c9ec74ecd79f280c6d3273766a874a5afde9c9790a",
    ("basis", "--family", "G", "--j", "64"):
        "3eb11e709ce520ac4f8d30e8f371fe5b33451398a8cd30a0f290e9c19ad10193",
    ("basis", "--family", "Z", "--j", "64"):
        "b87f3b80c092169a16bc15adcfb6ecb902bd19efe249d0f2817cc8c195c1665d",
    # taken again when spectrum solved Q as a real symmetric matrix in the
    # real basis: -64.50000000000017 -> -64.50000000000011 and
    # 64.49999999999989 -> 64.49999999999986; and again when it solved Q in
    # exact 2x2 blocks of the K3-adapted basis: -64.50000000000011 ->
    # -64.50000000000001 and 64.49999999999986 -> 64.49999999999999
    ("spectrum", "--op", "Q", "--j", "64"):
        "ce6fab7f80eecd7695f457f39520886f59713abd22c850af8b059a1aa356eb0e",
    # taken again when decompose moved onto keyed products F^H K1 F: 14 of
    # the 130 K1 block entries moved in their last bits
    ("decompose", "64"):
        "789ce73d998db575fbaefcd60adc9644a1094abdf23437f7a74a8c9fa33316cb",
    # taken again when the harmonic oracles moved onto tables:
    # reflection_point_parity reads the reflected values as permutations of
    # the grid mesh, whose phi nodes carry their own rounding, 4.6e-16 ->
    # 1.6e-15; direct_evaluation draws its angles with random.Random,
    # 3.3e-16 -> 2.2e-16; cross_degree_orthogonality reads the per-order
    # theta-Grams, 7.2e-16 -> 6.3e-16.  Taken again when overlaps_via_integral
    # streamed the mesh over theta-rings and read the Legendre rows at the
    # permuted points from their mirror-symmetric parts, with a different sum
    # order: overlaps.unitarity 1.777e-15 -> 2.228e-15, overlaps.duality
    # 9.992e-16 -> 7.791e-16.  Taken again when the quadrature oracle took
    # its stencils on the separable theta and phi parts of the harmonics:
    # operators.quadrature_matrix_elements 4.396517874357244e-14 ->
    # 3.375082624936456e-14.  Taken again when build_grid's theta rule became
    # the Newton-polished Gauss-Legendre rule in place of numpy's leggauss:
    # harmonics.gram_identity 8.88186984253824e-16 -> 9.992007221626409e-16,
    # harmonics.cross_degree_orthogonality 6.257549070130732e-16 ->
    # 3.5487918836554815e-16, operators.quadrature_matrix_elements
    # 3.375082624936456e-14 -> 3.463898386403255e-14, overlaps.unitarity
    # 2.228414218624294e-15 -> 1.7850802924769544e-15.  Taken again when the
    # eigh oracle of eigenbases.closed_form_eigen kept eigh's phases, whose
    # overlap moduli differ in the last bits: 4.440892098500626e-16 ->
    # 6.661338147750939e-16.  Taken again when that oracle became one real
    # eigh of Q + K3/4 per degree and the overlaps suite read W and Z from the
    # Krawtchouk route (F^H U F and U F) in place of the integral W:
    # eigenbases.closed_form_eigen 6.661338147750939e-16 ->
    # 3.330863863676398e-16, overlaps.unitarity 1.7850802924769544e-15 ->
    # 6.661338147750939e-16, overlaps.duality 7.791361360319882e-16 ->
    # 5.551126926257722e-16, and the details of duality ("Krawtchouk vs
    # recurrence") and z_block_spectrum (", Z = U F").  Every other row is
    # unchanged
    ("verify", "--jmax", "3"):
        "4d542ccec9a411c10da61f35b7e05415754e24828101f6645da0ac0fb927c752",
    # taken before the weights became the closed form, which leaves them as
    # they were
    ("poly", "--what", "coeffs", "--N", "120"):
        "d7733256c342031bcfa26b05570fd8d25252b83e996651c6e264fb3ec9591663",
    ("poly", "--what", "values", "--N", "40"):
        "6a112f2653c4d255706ce9b1f32d0f2f7a7db681c37bb53248f45c1458033cae",
    ("poly", "--what", "params", "--N", "7"):
        "b31527ba9d49fa0d75f357e8e6ea0062982cdfb29d42173c84c0f24bcd2fafd0",
    ("overlaps", "--N", "30", "--method", "recurrence"):
        "7b6ca71acfb72e537548ab51dfaec57eca6411a9bb14661a380b3d15dcdef92d",
    # the closed-form weights and the log2 norms
    ("poly", "--what", "weights", "--N", "30"):
        "34ffbd8126ee442dd53fe4ba8816eabd186b8d8a143a48ceaddf9011e73d9694",
}


@pytest.mark.parametrize("argv", list(_GOLDEN_SHA256), ids=" ".join)
def test_exports_match_their_golden_digests(argv, tmp_path):
    path = tmp_path / "out.json"
    if argv[0] == "decompose":
        path.write_text("".join(_json_chunks(decompose(HarmonicSpace(int(argv[1]))))))
    else:
        assert main(list(argv) + ["--format", "json", "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_SHA256[argv]


# SHA-256 of the csv and table exports, taken before the two formats were
# rendered from one row list per command; the last item of each key is the
# format, and the verify table's timings are masked
_TEXT_SHA256 = {
    # taken again when spectrum solved Q as a real symmetric matrix in the
    # real basis: 5.4999999999999956 -> 5.4999999999999982; and again when
    # it solved Q in exact 2x2 blocks of the K3-adapted basis:
    # -5.5000000000000018 -> -5.5 and 5.4999999999999982 -> 5.5
    ("spectrum", "--op", "Q", "--j", "5", "csv"):
        "9dd28faa56aeb23ab09b5dcd98198b17349489abc1a12c660f8be80eb4eddfc9",
    ("spectrum", "--op", "Q", "--j", "5", "table"):
        "c3ae439594bb3a6ea8b4996f85459fb852e5284558178c8f1807a780b1618d5b",
    ("spectrum", "--op", "H", "--j", "3", "csv"):
        "181823a8d23cc2ab35d34a4b0089ca0b384960013bae3f7039386f91c8e55fd9",
    ("spectrum", "--op", "H", "--j", "3", "table"):
        "524c102f39402aeb5b54d8add6d06bd201cefa18dedd2d52e87c3f3c05aaf620",
    ("basis", "--family", "F", "--j", "3", "csv"):
        "c1581222d87a20b557e6d73998084f4477cdcbf335b1b093b620816c409ed1d6",
    ("basis", "--family", "F", "--j", "3", "table"):
        "4a8b8ba9354e2e5fb8c1378ad9fbc60902e50eef512eb15d8e65eabf56062c00",
    ("basis", "--family", "G", "--j", "3", "csv"):
        "065356e6519c3d84238cf1ab240096f62345e93cf1d7aed1db46152fba435f1f",
    ("basis", "--family", "G", "--j", "3", "table"):
        "7090ac09c6603a9599cc0cbe13b1939bfcbdc25782f564dea025fc3cfc49ef62",
    ("basis", "--family", "M", "--j", "3", "csv"):
        "12fe6810ea4d4498f85e74b3ab1373b5342fdbc4001059e9b9f678ae68fa38fe",
    ("basis", "--family", "M", "--j", "3", "table"):
        "3d56f1a00e9969ce8ea5a9ef7a37b2c3d7760c645b587430573723844407ba11",
    ("basis", "--family", "Z", "--j", "3", "csv"):
        "1ee6d18df430669a1aa3f554515b0b0fc45b722c87ecead7b2b8a891d256d705",
    ("basis", "--family", "Z", "--j", "3", "table"):
        "7ece7fdbabe610f8c9cc106d8fb2b8b30e85483984605fd41d782a56be1794bf",
    ("basis", "--family", "G", "--j", "0", "csv"):
        "8f5291e475aa61d2c6263fb81e32b95c62bdd0d0218b25fe63d715f33db91dea",
    ("basis", "--family", "G", "--j", "0", "table"):
        "9a98572f6607b3bcf6f61c4cd3acdc27e142efb66344dadbeaea2d7a430e6e96",
    ("poly", "--what", "coeffs", "--N", "7", "csv"):
        "62dae2373106fce0202aa2346446329798af7b18350fd66ab08b3e65b8d41e37",
    ("poly", "--what", "coeffs", "--N", "7", "table"):
        "85983cdb984394c3e8fbf23ec51743bd19a648402a3283077e4b5e849adfa1b6",
    ("poly", "--what", "values", "--N", "5", "csv"):
        "a35c2ad1668eb3b8d81abb09d01b1f5f975ce9dab4d85299e2412512317d3c06",
    ("poly", "--what", "values", "--N", "5", "table"):
        "33817690bffaf54ce756fdaa9aa13072b14a6709d529d598b7c33993758c285c",
    ("poly", "--what", "weights", "--N", "6", "csv"):
        "0e4c3f7c8d93d03687cd201c61872ff5453714d5238d11a4a2f083cafaf5f393",
    ("poly", "--what", "weights", "--N", "6", "table"):
        "e348f45d997d0b52615b2e666d21b9a0921587c1a5d0b233db708c6b31ac9bf5",
    ("poly", "--what", "params", "--N", "7", "csv"):
        "82021ea4d95127f2478d444a1181ac70de93e188fcc08b310bed731d913e9d05",
    ("poly", "--what", "params", "--N", "7", "table"):
        "876b86991f7ccade9b7c2cb2378e08e8de99a0105d3e946d3e96a52ac7546d2f",
    # the four integral-route digests taken again when build_grid's theta
    # rule became the Newton-polished Gauss-Legendre rule: the integral W
    # moves by at most 3.3e-16 at N = 3 and 6.7e-16 at N = 2 (and the signs
    # of zero imaginary parts in the table), its unitarity residual
    # 1.221e-15 -> 1.332e-15 at N = 3 and 4.441e-16 -> 9.992e-16 at N = 2;
    # the recurrence rows are unchanged
    ("overlaps", "--N", "3", "--method", "both", "csv"):
        "be4b5e52707d1e04267c374a324b7d16031fdc35f917b032530434010975edcd",
    ("overlaps", "--N", "3", "--method", "both", "table"):
        "6851c7306b93cbfece8006619e84fb4928f5e7d5500920bf7c3961ed52dd9a16",
    ("overlaps", "--N", "2", "--method", "integral", "csv"):
        "c021cbff7cb63711683be461ac00f068ed8d59c39a18885ee726150e08e1131a",
    ("overlaps", "--N", "2", "--method", "integral", "table"):
        "9a36e27425d7ab9247a00e892cf3631bdff367da688330794b3eba8e6a3291e0",
    ("overlaps", "--N", "4", "--method", "recurrence", "csv"):
        "9626ab56fe82ca6394897ff1fd48be43da5604a4330c6bddbb12aa1b9e0f58a6",
    ("overlaps", "--N", "4", "--method", "recurrence", "table"):
        "c43c3865e52473460bf2170e8aa33442dc8dea918419c6b52f5195e2e615ddd9",
    # both taken again when spectrum solved Q in the real basis:
    # susy.q_spectrum 1.3322676295501878e-15 -> 8.8817841970012523e-16; and
    # again when the quadrature oracle took its stencils on the separable
    # theta and phi parts: operators.quadrature_matrix_elements
    # 4.019048729078911e-14 -> 3.4639032395189048e-14; and again when
    # build_grid's theta rule became the Newton-polished Gauss-Legendre rule:
    # harmonics.gram_identity 6.6613381477509392e-16 -> 6.661415493197138e-16,
    # harmonics.cross_degree_orthogonality 2.553442375158526e-16 ->
    # 1.5997199525064226e-16, operators.quadrature_matrix_elements
    # 3.4639032395189048e-14 -> 3.6415317493416468e-14, overlaps.unitarity
    # 8.8885578776101453e-16 -> 9.9920072216264089e-16, overlaps.duality
    # 5.5511151231257827e-16 -> 6.6844277772883343e-16; and again when the
    # eigh oracle became one real eigh of Q + K3/4 per degree and the overlaps
    # suite read W and Z from the Krawtchouk route (F^H U F and U F):
    # eigenbases.closed_form_eigen 4.4408920985006262e-16 ->
    # 3.3306690738754696e-16, overlaps.unitarity 9.9920072216264089e-16 ->
    # 6.6613381477509392e-16, overlaps.duality 6.6844277772883343e-16 ->
    # 5.5511269262577221e-16, and the details of duality and z_block_spectrum
    ("verify", "--jmax", "2", "csv"):
        "bf4deae3f1ebf637cd3809d807f80358eb71f5d57624174e337380c5d75ba147",
    ("verify", "--jmax", "2", "table"):
        "6afcc5c31aa9d4b2677aeb201509bd4ecd27513ea4f9687ae609ebb368533512",
}


@pytest.mark.parametrize("argv", list(_TEXT_SHA256), ids=" ".join)
def test_csv_and_table_exports_match_their_golden_digests(argv, capsys):
    assert main(list(argv[:-1]) + ["--format", argv[-1]]) == 0
    text = re.sub(r"\d+\.\d{3}s", "TIME", capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == _TEXT_SHA256[argv]
