import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rotorsusy import antikrawtchouk as ak
from rotorsusy import eigenbases, harmonics, operators, run_verification, susy, verification
from rotorsusy.harmonics import HarmonicSpace
from rotorsusy.operators import Operator


def test_full_suite_passes_quickly():
    report = run_verification(j_max=3)
    assert report.all_passed
    assert report.n_failed == 0
    assert len(report.checks) == 28


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
        k3 = Operator(space, {(-1, 0): 1j * m, (1, 0): 0.5 * (-1.0) ** m})
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
    # a structural failure reads inf against the check's declared tolerance
    assert control.residual == math.inf
    assert control.tolerance == 1e-6
    assert checks["susy.square_identity"].passed
    assert checks["susy.q_spectrum"].passed


def test_quadrature_oracle_catches_a_wrong_ladder_operator(monkeypatch):
    right = operators.jplus
    monkeypatch.setattr(operators, "jplus", lambda space: (1 + 1e-6) * right(space))
    report = run_verification(4, suite_filter="operators")
    check = {c.name: c for c in report.checks}["operators.quadrature_matrix_elements"]
    assert not check.passed
    assert check.residual > check.tolerance


def test_joint_oracle_labels():
    # eigh's columns, ordered by (q, |k3|) as F then G are, with their labels
    space = HarmonicSpace(1)
    q, k3 = susy.supercharge(space), susy.symmetry_generator(3, space)
    vecs, labels = verification._joint_oracle(q, k3)
    assert labels == [(-1.5, 0.5), (-1.5, -1.5), (1.5, 0.5)]
    for (q_val, k3_val), vec in zip(labels, vecs.T):
        np.testing.assert_allclose(q.matrix @ vec, q_val * vec, atol=1e-10)
        np.testing.assert_allclose(k3.matrix @ vec, k3_val * vec, atol=1e-10)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)


def test_the_joint_oracle_refuses_a_pair_that_is_not_real_in_the_k3_adapted_basis():
    # J3 is Hermitian but conjugation-odd: Q + J3 / 100 has an imaginary
    # part in the basis of operators._k3_basis, and the real eigh cannot take it
    space = HarmonicSpace(2)
    q, k3 = susy.supercharge(space), susy.symmetry_generator(3, space)
    with pytest.raises(verification._Broken, match="not real in the K3-adapted basis at j=2"):
        verification._joint_oracle(q + 0.01 * operators.j3(space), k3)


def test_a_nan_residual_fails_its_check(monkeypatch):
    # Python's max(0.0, nan) is 0.0: a NaN residual folded that way is
    # dropped, and the check passes on the residuals that are left.  The
    # NaN comes after finite residuals of j = 0, so no fold starts on it.
    # block_structure reads the reports of all its degrees from one stacked
    # _decomposition, the helper behind decompose
    right_decomposition, right_norm = eigenbases._decomposition, operators.op_norm

    def decomposition(ops, f, g):
        return [dict(report, completeness_residual=math.nan) if report["j"] == 2 else report
                for report in right_decomposition(ops, f, g)]

    monkeypatch.setattr(eigenbases, "_decomposition", decomposition)
    # on a DegreeStack, dim and op_norm hold one entry per degree
    monkeypatch.setattr(operators, "op_norm",
                        lambda a: np.where(a.space.dim > 1, math.nan, right_norm(a)))
    checks = {c.name: c for c in run_verification(2).checks}
    for name in ("eigenbases.block_structure", "operators.reflection_algebra",
                 "operators.mixed_commutation"):
        assert not checks[name].passed, name
        assert math.isnan(checks[name].residual), name


@pytest.mark.parametrize("j_max, n_empty", [(0, 8), (1, 0)])
def test_empty_range_rows_pass_at_their_declared_tolerance(j_max, n_empty):
    declared = {c.name: c for c in verification._CHECKS}
    report = run_verification(j_max, tolerance_scale=3.0)
    assert [c.name for c in report.checks] == list(declared)
    empty = [c for c in report.checks if declared[c.name].first > j_max]
    assert len(empty) == n_empty
    for c in empty:
        assert c.passed
        assert c.residual == 0.0
        assert c.tolerance == declared[c.name].tol * 3.0
        assert c.detail == f"empty range (j_max < {declared[c.name].first})"


def _at_degree(build, change, degree=17, key=(1, 0)):
    """build, with change(coef) applied to the given degree of the key of
    every stacked result that holds that degree."""
    def faulty(space):
        op = build(space)
        if np.ndim(space.degrees) == 0 or space.j < degree:
            return op
        coef = np.array(op.terms[key])
        change(coef[degree, space.j - degree:space.j + degree + 1])
        return Operator(space, {**op.terms, key: coef})
    return faulty


def test_a_fault_at_one_degree_fails_only_from_that_degree(monkeypatch):
    right = susy.symmetry_generators

    def perturbed(space):
        k1, k2, k3 = right(space)
        return k1, k2, _at_degree(lambda space: k3, lambda c: c.__iadd__(1e-6))(space)

    monkeypatch.setattr(susy, "symmetry_generators", perturbed)
    assert run_verification(16, suite_filter="susy").all_passed
    check = {c.name: c for c in run_verification(17, suite_filter="susy").checks}[
        "susy.anticommutator_algebra"]
    assert not check.passed
    assert 1e-9 < check.residual < 1e-4


def test_a_nan_at_one_degree_fails_its_stacked_check(monkeypatch):
    monkeypatch.setattr(operators, "j3", _at_degree(operators.j3, lambda c: c.fill(math.nan)))
    assert run_verification(16, suite_filter="operators").all_passed
    checks = {c.name: c for c in run_verification(17, suite_filter="operators").checks}
    for name in ("operators.so3_commutators", "operators.ladder_relations",
                 "operators.mixed_commutation"):
        assert not checks[name].passed, name
        assert math.isnan(checks[name].residual), name
    # the product oracle carries the NaN into H and K3, and its self-adjoint
    # gate rejects them: the checks that read the oracle fail too
    checks.update((c.name, c) for c in run_verification(17, suite_filter="susy").checks)
    for name in ("operators.hamiltonian_identity", "susy.anticommutator_algebra"):
        assert not checks[name].passed, name
        assert "not self-adjoint (deviation nan)" in checks[name].detail, name


def test_the_susy_suite_runs_its_algebra_once_for_all_degrees(monkeypatch):
    # a return to one round of algebra per degree would scale these counts with j_max
    calls = []
    right = Operator.__matmul__
    monkeypatch.setattr(Operator, "__matmul__", lambda a, b: calls.append(1) or right(a, b))
    counts = []
    for j_max in (10, 30):
        calls.clear()
        assert run_verification(j_max, suite_filter="susy").all_passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _k1_at_degree(monkeypatch, change, degree=7):
    """Apply change(coef) to one degree of the key (-1, 0) of both stacked
    K1s: the closed form and the product oracle."""
    right_generators, right_oracle = susy.symmetry_generators, verification._product_operators

    def generators(space):
        k1, k2, k3 = right_generators(space)
        return _at_degree(lambda space: k1, change, degree, (-1, 0))(space), k2, k3

    def oracle(space):
        bundle = right_oracle(space)
        faulty = _at_degree(lambda space: bundle.k1, change, degree, (-1, 0))
        return dataclasses.replace(bundle, k1=faulty(space))

    monkeypatch.setattr(susy, "symmetry_generators", generators)
    monkeypatch.setattr(verification, "_product_operators", oracle)


_STACKED = ("eigenbases.tridiagonal_data", "eigenbases.block_structure")


def test_a_fault_in_the_stacked_k1_fails_the_eigenbases_checks_from_its_degree(monkeypatch):
    # K1 + 1e-6 R1 at degree 7 stays self-adjoint but leaves the F/G blocks
    _k1_at_degree(monkeypatch, lambda c: c.__iadd__(1e-6))
    assert run_verification(6, suite_filter="eigenbases").all_passed
    for j_max in (7, 20):
        checks = {c.name: c for c in run_verification(j_max, suite_filter="eigenbases").checks}
        for name in _STACKED:
            assert not checks[name].passed, (j_max, name)
            assert "(F-basis, j=7)" in checks[name].detail, (j_max, name)


def test_the_eigenbases_checks_cut_the_shared_stack_to_their_range(monkeypatch):
    # the susy checks stretch the run's stack to j = 25; a fault there is
    # outside the eigenbases checks' range j <= 20
    _k1_at_degree(monkeypatch, lambda c: c.__iadd__(1e-6), degree=25)
    checks = {c.name: c for c in run_verification(25).checks}
    assert not checks["susy.anticommutator_algebra"].passed
    for name in _STACKED + ("eigenbases.closed_form_eigen",):
        assert checks[name].passed, name


def test_a_nan_at_one_degree_fails_the_stacked_eigenbases_checks(monkeypatch):
    with monkeypatch.context() as patch:
        _k1_at_degree(patch, lambda c: c.fill(math.nan))
        assert run_verification(6, suite_filter="eigenbases").all_passed
        checks = {c.name: c for c in run_verification(7, suite_filter="eigenbases").checks}
        # the self-adjoint gate of each bundle rejects the NaN first
        for name in _STACKED:
            assert not checks[name].passed, name
            assert "not self-adjoint (deviation nan)" in checks[name].detail, name
    # a NaN in one degree's residuals reaches the fold, which keeps it
    right_max_abs = eigenbases._max_abs

    def max_abs(a):
        top = right_max_abs(a)
        return np.where(np.arange(top.size) == 7, math.nan, top)

    monkeypatch.setattr(eigenbases, "_max_abs", max_abs)
    assert run_verification(6, suite_filter="eigenbases").all_passed
    check = {c.name: c for c in run_verification(7, suite_filter="eigenbases").checks}[
        "eigenbases.block_structure"]
    assert not check.passed
    assert math.isnan(check.residual)


def test_the_stacked_eigenbases_checks_run_their_algebra_once_for_all_degrees(monkeypatch):
    # one round of algebra per degree would scale these counts with j_max
    current, calls = [None], []
    right_run, right_matmul = verification._run_check, Operator.__matmul__

    def run_check(check, j_max, run):
        current[0] = check.name
        return right_run(check, j_max, run)

    monkeypatch.setattr(verification, "_run_check", run_check)
    monkeypatch.setattr(Operator, "__matmul__", lambda a, b: calls.append(current[0]) or right_matmul(a, b))
    counts = []
    for j_max in (10, 20):
        calls.clear()
        assert run_verification(j_max, suite_filter="eigenbases").all_passed
        counts.append([calls.count(name) for name in _STACKED])
    assert counts[0] == counts[1]
    assert all(counts[0])


def test_one_run_builds_each_dense_object_once_per_size(monkeypatch):
    counts = collections.Counter()

    def counted(name, build, size):
        def wrapper(*args):
            counts[name, size(*args)] += 1
            return build(*args)
        return wrapper

    grid = counted("build_grid", harmonics.build_grid, lambda n: n)
    for module in (harmonics, ak, verification):
        monkeypatch.setattr(module, "build_grid", grid)
    monkeypatch.setattr(ak, "overlaps_via_recurrence",
                        counted("overlaps_via_recurrence", ak.overlaps_via_recurrence, lambda n: n))
    monkeypatch.setattr(verification, "_rotation", counted("_rotation", verification._rotation, lambda n: n))
    monkeypatch.setattr(eigenbases, "m_basis", counted("m_basis", eigenbases.m_basis, lambda s: s.j))
    monkeypatch.setattr(eigenbases, "_fg_build", counted(
        "_fg_build", eigenbases._fg_build, lambda space, which, q, k3: (which, str(space))))
    # the eigh calls of each check, by the check that runs
    eighs, current = collections.Counter(), [None]
    right_run, right_eigh = verification._run_check, np.linalg.eigh

    def run_check(check, j_max, run):
        current[0] = check.name
        return right_run(check, j_max, run)

    monkeypatch.setattr(verification, "_run_check", run_check)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.update([current[0]]) or right_eigh(a))
    eigenbases._fg_operator.cache_clear()  # so that this run verifies F and G itself
    assert run_verification(30).all_passed
    assert max(counts.values()) == 1, [key for key, n in counts.items() if n > 1]
    # the sizes each builder serves: the overlaps N <= 10 (U read by three
    # checks), the M-bases and the stacked F and G j <= 20, and the grids of
    # the harmonics, j = 8 and 20 (the overlaps suite, on the Krawtchouk
    # route, builds none)
    assert {n for name, n in counts if name == "overlaps_via_recurrence"} == set(range(1, 11))
    assert {n for name, n in counts if name == "_rotation"} == set(range(1, 11))
    assert {n for name, n in counts if name == "m_basis"} == set(range(21))
    assert {n for name, n in counts if name == "build_grid"} == {8, 20}
    # the oracle of closed_form_eigen makes one eigh per degree j = 0..20
    assert eighs["eigenbases.closed_form_eigen"] == 21
    assert {n for name, n in counts if name == "_fg_build"} == (
        {("F", str(HarmonicSpace(n))) for n in range(1, 11)}
        | {(which, str(operators.DegreeStack(20))) for which in "FG"})


def test_one_run_builds_the_stacked_supercharge_once(monkeypatch):
    # the susy bundle builds Q once (Q' and C are formed from it), and the
    # non-symmetry check reads the bundle's Q.  Single degrees come from the cache.
    builds = []
    cached = susy._supercharge

    def single(space):
        return cached(space)

    def stacked(space):
        builds.append(space.j)
        return cached.__wrapped__(space)

    single.__wrapped__ = stacked
    monkeypatch.setattr(susy, "_supercharge", single)
    assert run_verification(30).all_passed
    assert len(builds) == 1


def test_memoized_builders_are_bounded_and_return_read_only_objects():
    caches = {name: fn for module in (harmonics, operators, susy, eigenbases, ak, verification)
              for name, fn in vars(module).items() if hasattr(fn, "cache_info")}
    assert {"_supercharge", "_symmetry_generator", "_fg_operator", "_recurrence_coeffs",
            "_grid"} <= set(caches)
    assert all(fn.cache_info().maxsize is not None for fn in caches.values())
    for space in (HarmonicSpace(3), operators.DegreeStack(4)):
        q, k3 = susy.supercharge(space), susy.symmetry_generator(3, space)
        # one object per degree; a stack is built anew
        assert (q is susy.supercharge(space)) == (k3 is susy.symmetry_generator(3, space)) == (space.j == 3)
        if space.j == 3:
            fg = [eigenbases._fg_operator(space, which) for which in "FG"]
            assert all(b is eigenbases._fg_operator(space, which) for b, which in zip(fg, "FG"))
        else:
            fg = [eigenbases._fg_build(space, which, q, k3) for which in "FG"]
        ops = [q, *susy.symmetry_generators(space), *fg]
        assert all(not coef.flags.writeable for o in ops for coef in o.terms.values())
    table, g = ak.recurrence_coeffs(5), ak.grid(5)
    assert table is ak.recurrence_coeffs(np.int64(5)) and g is ak.grid(5)
    assert not any(a.flags.writeable for a in (table.A, table.C, table.monic_b, table.monic_c, g.x, g.y))
    # a run's stacked F and G stay in the run: the eigenbases suite keeps no F or G
    eigenbases._fg_operator.cache_clear()
    assert run_verification(20, suite_filter="eigenbases").all_passed
    assert eigenbases._fg_operator.cache_info().currsize == 0


def test_the_public_routes_build_each_family_once_per_degree(monkeypatch):
    builds = collections.Counter()

    def counted(space, which, q, k3):
        builds[which, space] += 1
        return build(space, which, q, k3)

    build = eigenbases._fg_build
    monkeypatch.setattr(eigenbases, "_fg_build", counted)
    eigenbases._fg_operator.cache_clear()
    space = HarmonicSpace(5)
    eigenbases.f_basis(space), eigenbases.g_basis(space), eigenbases.decompose(space)
    ak.z_basis(5), ak.overlaps_via_integral(5)
    assert builds == {("F", space): 1, ("G", space): 1}


def test_a_run_stays_within_its_memory_budget():
    # after a warm-up, verify --jmax 30 peaks at 3.46 MiB of tracemalloc
    # heap (3.44 with each dense object built where it was read); a dense
    # result kept past its check would show in the peak.  A run leaves about
    # 10 KiB behind: a cache that grew with every run would show there
    run_verification(30)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_verification(30)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / 2**20 <= 3.6
    assert (after - before) / 2**20 <= 0.1


@pytest.mark.parametrize("N", range(7))
def test_krawtchouk_integers_are_their_alternating_sums(N):
    # k_n(x) = sum_i (-1)^i C(x, i) C(2N - x, n - i), term by term
    expect = [[sum((-1) ** i * math.comb(x, i) * math.comb(2 * N - x, n - i) for i in range(n + 1))
               for x in range(2 * N + 1)] for n in range(2 * N + 1)]
    assert verification._krawtchouk(N) == expect


def test_an_inexact_division_of_the_krawtchouk_recurrence_raises():
    assert verification._exact(-12, 3) == -4
    with pytest.raises(ArithmeticError, match="7 / 2 is not an integer"):
        verification._exact(7, 2)


def test_the_krawtchouk_d_is_the_rotation_by_half_pi_about_the_second_axis():
    # d^j(pi/2) = exp(-i (pi/2) J2), with the phases i^-+m of _rotation taken
    # off again; from the eigh of J2's matrix, 4.3e-15 off at j = 20
    for j in range(21):
        vals, vecs = np.linalg.eigh(operators.j2(HarmonicSpace(j)).matrix)
        expect = (vecs * np.exp(-0.5j * np.pi * vals)) @ vecs.conj().T
        m = np.arange(-j, j + 1)
        phase = np.array([1, 1j, -1, -1j])[(m if j % 2 == 0 else -m) % 4]
        np.testing.assert_allclose(verification._rotation(j) / phase, expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", [*range(1, 61), 100, 200])
def test_the_krawtchouk_w_is_the_recurrence_w_signs_included(N):
    # F^H U F from integers against the Jacobi eigenvectors times s_k, which
    # come from one twisted factorization per column: at most 3.4e-16 for
    # N <= 60, 3.1e-16 at 100 and 3.9e-16 at 200 (a dense eigh read 2.0e-15
    # at 30, 3.6e-15 at 100 and 6.4e-15 at 200)
    f = eigenbases.f_basis(HarmonicSpace(N)).coeffs
    w = f.conj().T @ (verification._rotation(N) @ f)
    np.testing.assert_allclose(w, ak.overlaps_via_recurrence(N).W, rtol=0, atol=1e-15)


def test_a_flipped_phase_rule_fails_the_overlaps_suite(monkeypatch):
    # diag(i^m) for odd N and diag(i^-m) for even N, the other rule: F^H U F is
    # then far from unitary, and OverlapMatrix refuses it (0.889 at N = 1)
    right = verification._rotation
    monkeypatch.setattr(verification, "_rotation", lambda n: right(n) * (-1.0) ** np.arange(-n, n + 1))
    checks = {c.name: c for c in run_verification(10, suite_filter="overlaps").checks}
    assert not checks["overlaps.unitarity"].passed
    assert "fails unitarity: residual 8.889e-01" in checks["overlaps.unitarity"].detail
    # Z = F W of the recurrence is then 1.414 off U F at N = 1
    assert not checks["overlaps.z_block_spectrum"].passed
    assert checks["overlaps.z_block_spectrum"].residual == pytest.approx(math.sqrt(2.0))


def test_a_flipped_sign_s_k_fails_the_overlaps_suite(monkeypatch):
    # s_0 with the other sign: W stays unitary and Z keeps its eigen-checks, but
    # column 0 is 2 |W[n, 0]| off the Krawtchouk W, sqrt(3) at N = 1, and K2
    # in the Z basis leaves its closed form
    right = ak.overlaps_via_recurrence

    def flipped(n):
        return ak.OverlapMatrix(N=n, W=right(n).W * np.where(np.arange(n + 1) == 0, -1.0, 1.0),
                                method="recurrence")

    monkeypatch.setattr(ak, "overlaps_via_recurrence", flipped)
    checks = {c.name: c for c in run_verification(10, suite_filter="overlaps").checks}
    assert checks["overlaps.unitarity"].passed
    assert not checks["overlaps.duality"].passed
    assert checks["overlaps.duality"].residual == pytest.approx(math.sqrt(3.0))
    assert not checks["overlaps.z_block_spectrum"].passed
    assert "deviate from the closed form by 1.732e+00" in checks["overlaps.z_block_spectrum"].detail
