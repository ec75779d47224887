"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import rotorsusy  # noqa: E402
import rotorsusy.cli  # noqa: E402
import worker  # noqa: E402
from tracer import END, LAYER, NAME, PARENT, START, Tracer, self_times  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    def middle(n):
        return leaf(n) + leaf(2 * n) + sum(range(n))

    leaf = tracer.wrap(leaf, "inner", "leaf")
    middle = tracer.wrap(middle, "mid", "middle")
    outer = tracer.wrap(lambda: middle(20000) + leaf(5000) + sum(range(30000)), "outer", "outer")
    outer()

    spans = tracer.spans
    assert [s[NAME] for s in spans] == ["outer.outer", "mid.middle", "inner.leaf",
                                         "inner.leaf", "inner.leaf"]
    assert [s[PARENT] for s in spans] == [-1, 0, 1, 1, 0]
    selfs = self_times(spans)
    assert all(t > 0 for t in selfs)
    assert sum(selfs) == pytest.approx(spans[0][END] - spans[0][START], rel=1e-12)


def test_install_wraps_every_namespace_and_uninstall_restores():
    original = rotorsusy.harmonics.harmonic_values
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = rotorsusy.harmonics.harmonic_values
        assert wrapped is not original
        for mod in (rotorsusy, rotorsusy.antikrawtchouk, rotorsusy.verification):
            assert mod.harmonic_values is wrapped
        rotorsusy.antikrawtchouk.z_basis(2)
    finally:
        tracer.uninstall()
    assert rotorsusy.antikrawtchouk.harmonic_values is original
    names = {s[NAME] for s in tracer.spans}
    assert {"antikrawtchouk.z_basis", "harmonics.harmonic_values",
            "operators.Operator.__matmul__"} <= names
    assert {s[LAYER] for s in tracer.spans} <= set(run.LAYERS)


def test_projection_check_accepts_library_output_and_rejects_a_zeroed_peak():
    j, a, b = 10, 0.7 - 1.1j, -1.3 + 0.4j

    def f(theta, phi):
        s = np.sin(theta) ** j
        return a * s * np.exp(1j * j * phi) + b * s * np.exp(-1j * j * phi)

    coeffs = rotorsusy.project(f, j, rotorsusy.build_grid(j)).coeffs
    assert checks.projection(coeffs, j, a, b) is None
    broken = coeffs.copy()
    broken[2 * j] = 0.0
    assert checks.projection(broken, j, a, b) is not None


def test_cli_op_exiting_1_counts_as_failed(tmp_path):
    strict = Op(label="verify with tolerances scaled to nothing", kind="verify", size=2,
                check=checks.verify,
                argv=["verify", "--jmax", "2", "--tolerance-scale", "1e-300", "--format", "json"])
    fine = Op(label="recurrence coefficients", kind="coeffs", size=4,
              check=lambda doc: checks.coeffs(doc, 4),
              argv=["poly", "--what", "coeffs", "--N", "4", "--format", "json"])
    outcomes, wall_s, _ = worker._run_ops(rotorsusy, [strict, fine], str(tmp_path), None)
    assert [o[0] for o in outcomes] == [1, 0]
    verdicts, _ = worker._check([strict, fine], outcomes)
    attempted, failed, correct, failures = run._tally([{"ops": verdicts}])
    assert (attempted, failed, correct) == (2, 1, True)
    assert failed / attempted == 0.5
    assert failures[0].startswith("verify with tolerances scaled to nothing: exit 1")


def test_known_defects_stay_out_of_the_timed_passes():
    for name in workloads.WORKLOADS:
        timed = {op.label for op in workloads.build(name, 1)}
        defects = {op.label for op in workloads.known_defects(name, 1)}
        assert timed and not timed & defects
    labels = [op.label for op in workloads.known_defects("quadrature-poly-tables", 1)]
    assert labels == ["rotorsusy overlaps --N 40 --method both",
                      "project(a(x+iy)^100 + b(x-iy)^100, 100, build_grid(100))",
                      "rotorsusy poly --what weights --N 30",
                      "rotorsusy poly --what weights --N 60",
                      "rotorsusy poly --what weights --N 100"]
    assert workloads.known_defects("verify-large-degree", 1) == []
