import pytest

from rotorsusy import operators, run_verification, susy
from rotorsusy.operators import from_column_action


def test_full_suite_passes_quickly():
    report = run_verification(j_max=3)
    assert report.all_passed
    assert report.n_failed == 0
    assert len(report.checks) == 29


def test_suite_filter_restricts_checks():
    report = run_verification(j_max=2, suite_filter="susy")
    assert report.checks
    assert all(c.name.startswith("susy.") for c in report.checks)
    assert report.all_passed


def test_argument_validation():
    with pytest.raises(ValueError):
        run_verification(j_max=-1)
    with pytest.raises(ValueError):
        run_verification(j_max=2, suite_filter="bogus")
    with pytest.raises(ValueError):
        run_verification(j_max=2, tolerance_scale=0.0)


def test_report_payload_is_deterministic():
    a = run_verification(j_max=2).as_dict()
    b = run_verification(j_max=2).as_dict()
    assert a == b


def test_table_has_summary_footer():
    report = run_verification(j_max=2, suite_filter="harmonics")
    lines = report.table_lines()
    assert any("harmonics.gram_identity" in line for line in lines)
    assert "passed" in lines[-1]


def test_non_symmetry_check_is_a_lower_bound():
    report = run_verification(j_max=2, suite_filter="susy")
    check = {c.name: c for c in report.checks}["susy.non_symmetry"]
    assert check.passed
    # this check certifies a residual FLOOR: the rotation and reflection
    # generators genuinely fail to commute with the supercharge
    assert check.residual > check.tolerance


def test_product_oracle_catches_a_wrong_closed_form(monkeypatch):
    right = susy.symmetry_generators

    def wrong_k3_sign(space):
        k1, k2, _ = right(space)
        m = space.m_values()
        # +i m Y^{-m} where the J3 term of K3 gives -i m Y^{-m}
        k3 = from_column_action(space, [(1j * m, -m), (0.5 * (-1.0) ** m, m)])
        return k1, k2, k3

    monkeypatch.setattr(susy, "symmetry_generators", wrong_k3_sign)
    report = run_verification(3, suite_filter="susy")
    assert not report.all_passed
    checks = {c.name: c for c in report.checks}
    # [H, K3] vanishes for either sign, so only the distance from the
    # reflection product can fail this control
    control = checks["susy.non_symmetry"]
    assert not control.passed
    assert "control failed" in control.detail
    assert checks["susy.square_identity"].passed
    assert checks["susy.q_spectrum"].passed


def test_quadrature_oracle_catches_a_wrong_ladder_operator(monkeypatch):
    right = operators.jplus
    monkeypatch.setattr(operators, "jplus", lambda space: (1 + 1e-6) * right(space))
    report = run_verification(4, suite_filter="operators")
    check = {c.name: c for c in report.checks}["operators.quadrature_matrix_elements"]
    assert not check.passed
    assert check.residual > check.tolerance
