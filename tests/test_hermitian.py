"""Hermitian linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blaschkepick import (
    ConvergenceFailure,  # noqa: F401  (re-export check)
    PrincipalNotPD,
    admissible,
    eigen_h,
    extract_data,
    make_blaschke,
    make_hermitian,
    make_report,
    numerical_rank,
    schur_complement,
)
from blaschkepick.hermitian import report_from_eigenvalues


class TestMakeHermitian:
    def test_symmetrizes_and_records_defect(self):
        m = np.array([[1.0, 2.0 + 1e-12j], [2.0 - 2e-12j, 3.0]])
        h = make_hermitian(m)
        assert h.defect == pytest.approx(1e-12, rel=1e-3)
        assert_allclose(h.matrix, h.matrix.conj().T)
        assert h.n == 2

    def test_strict_rejects_large_defect(self):
        m = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            make_hermitian(m)

    def test_non_strict_carries_on(self):
        m = np.array([[1.0, 5.0], [0.0, 1.0]])
        h = make_hermitian(m, strict=False)
        assert h.defect == pytest.approx(5.0)
        assert_allclose(h.matrix, [[1.0, 2.5], [2.5, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            make_hermitian(np.ones((2, 3)))

    def test_empty_matrix(self):
        h = make_hermitian(np.zeros((0, 0)))
        assert h.n == 0
        assert h.defect == 0.0


class TestEigenAndRank:
    def test_eigen_ascending(self):
        w, v = eigen_h(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(w, [1.0, 2.0, 3.0])
        # Columns are unit eigenvectors.
        assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_rank_counts_above_relative_cutoff(self):
        assert numerical_rank(np.diag([1.0, 1e-4, 1e-12])) == 2
        assert numerical_rank(np.diag([1.0, 1e-4, 1e-12]), tol=1e-6) == 2
        assert numerical_rank(np.diag([1.0, 1e-4, 1e-12]), tol=1e-2) == 1

    def test_rank_cutoff_floors_at_one(self):
        # Scale max(1, lambda_max) keeps tiny matrices from ranking as full.
        assert numerical_rank(np.diag([1e-12, 1e-13])) == 0

    def test_rank_of_empty(self):
        assert numerical_rank(np.zeros((0, 0))) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 6))
def test_gram_matrices_report_psd_with_factor_rank(seed, n, r):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    report = make_report(f @ f.conj().T)
    assert report.psd
    assert report.numerical_rank == np.linalg.matrix_rank(f)


class TestSchurComplement:
    def test_two_by_two_worked_value(self):
        s = schur_complement(np.array([[1.0, 2.0], [2.0, 1.0]]), head=[0])
        assert_allclose(s.matrix, [[-3.0]])

    def test_block_identity(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = f @ f.conj().T + np.eye(5)
        s = schur_complement(m, head=[0, 1]).matrix
        # det(M) = det(P) det(S).
        det_p = np.linalg.det(m[:2, :2])
        assert np.linalg.det(m) == pytest.approx(det_p * np.linalg.det(s), rel=1e-9)

    def test_cancelling_complement_stays_hermitian(self):
        # D = R P^{-1} R* + I/2 with |R| ~ 1e3: the complement cancels terms
        # of size 1e6 down to I/2, which must not leave a Hermitian defect
        # large enough to be rejected.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            p = f @ f.conj().T + np.eye(4)
            r = 1e3 * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
            d = r @ np.linalg.solve(p, r.conj().T) + 0.5 * np.eye(3)
            m = np.block([[p, r.conj().T], [r, d]])
            s = schur_complement(0.5 * (m + m.conj().T), head=range(4))
            assert_allclose(s.matrix, 0.5 * np.eye(3), atol=1e-6)

    def test_complement_cancelling_terms_of_1e8(self):
        # As above with |R| ~ 1e4: the rounding of R P^{-1} R* is about
        # 1e-8, above 1e-9 times the complement's scale of one but not
        # above it times the scale of the cancelled terms.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            p = f @ f.conj().T + np.eye(4)
            r = 1e4 * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
            d = r @ np.linalg.solve(p, r.conj().T) + 0.5 * np.eye(3)
            m = np.block([[p, r.conj().T], [r, d]])
            s = schur_complement(0.5 * (m + m.conj().T), head=range(4))
            assert_allclose(s.matrix, 0.5 * np.eye(3), atol=1e-13 * np.abs(d).max())

    def test_principal_block_must_be_pd(self):
        with pytest.raises(PrincipalNotPD):
            schur_complement(np.array([[-1.0, 0.0], [0.0, 2.0]]), head=[0])

    def test_empty_head_returns_tail_block(self):
        m = np.array([[1.0, 2.0], [2.0, 5.0]])
        s = schur_complement(m, head=[])
        assert_allclose(s.matrix, m)

    def test_full_head_returns_empty(self):
        s = schur_complement(np.eye(2), head=[0, 1])
        assert s.n == 0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            schur_complement(np.eye(2), head=[3])


class TestMakeReport:
    def test_pd_matrix(self):
        report = make_report(np.diag([2.0, 1.0]))
        assert report.pd and report.psd
        assert report.numerical_rank == 2
        assert report.lambda_min == pytest.approx(1.0)
        assert report.lambda_max == pytest.approx(2.0)

    def test_singular_psd_matrix(self):
        report = make_report(np.diag([1.0, 0.0]))
        assert report.psd and not report.pd
        assert report.numerical_rank == 1

    def test_indefinite_matrix(self):
        report = make_report(np.diag([1.0, -0.5]))
        assert not report.psd and not report.pd

    def test_psd_threshold_scales_with_lambda_max(self):
        # An eigenvalue of -1e-8 is negligible beside lambda_max 1e4.
        assert make_report(np.diag([1e4, -1e-8])).psd
        assert not make_report(np.diag([1.0, -1e-8])).psd

    def test_non_strict_report_keeps_defect(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        report = make_report(m, strict=False)
        assert report.defect == pytest.approx(1.0)

    def test_empty_report(self):
        report = make_report(np.zeros((0, 0)))
        assert report.psd and report.pd
        assert report.numerical_rank == 0
        assert report.lambda_min == 0.0


_DIAG = np.diag([1.0, 0.5])
_BAD_TOLERANCES = [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("tol", _BAD_TOLERANCES)
@pytest.mark.parametrize(
    "read",
    [
        lambda tol: make_report(_DIAG, rank_tol=tol),
        lambda tol: make_report(_DIAG, pd_tol=tol),
        lambda tol: report_from_eigenvalues(make_hermitian(_DIAG), np.array([0.5, 1.0]), tol, 1e-10),
        lambda tol: report_from_eigenvalues(make_hermitian(_DIAG), np.array([0.5, 1.0]), 1e-8, tol),
        lambda tol: numerical_rank(_DIAG, tol=tol),
        lambda tol: numerical_rank(np.zeros((0, 0)), tol=tol),
        lambda tol: make_report(_DIAG).rank_at(tol),
        lambda tol: admissible(extract_data(make_blaschke([0.5]), [1.0], [1]), [1], tol=tol),
    ],
    ids=[
        "make_report-rank",
        "make_report-pd",
        "report_from_eigenvalues-rank",
        "report_from_eigenvalues-pd",
        "numerical_rank",
        "numerical_rank-empty",
        "rank_at",
        "admissible",
    ],
)
def test_negative_or_nonfinite_tolerance_rejected(read, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        read(tol)
