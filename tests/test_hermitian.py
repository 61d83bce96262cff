"""Hermitian linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blaschkepick import (
    ConvergenceFailure,  # noqa: F401  (re-export check)
    Inconclusive,
    admissible,
    extract_data,
    make_blaschke,
    make_report,
)


class TestMakeHermitian:
    """The symmetrization that make_report applies before reading a spectrum."""

    def test_symmetrizes_and_records_defect(self):
        m = np.array([[1.0, 2.0 + 1e-12j], [2.0 - 2e-12j, 3.0]])
        h = make_report(m)
        assert h.defect == pytest.approx(1e-12, rel=1e-3)
        assert_allclose(h.matrix, h.matrix.conj().T)
        assert h.matrix.shape == (2, 2)

    def test_strict_rejects_large_defect(self):
        m = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            make_report(m)

    def test_a_callers_non_hermitian_matrix_is_a_value_error(self):
        # Inconclusive is for matrices the package built itself.
        with pytest.raises(ValueError, match="matrix is not Hermitian") as exc:
            make_report(np.array([[1.0, 5.0], [0.0, 1.0]]))
        assert not isinstance(exc.value, Inconclusive)

    def test_non_strict_carries_on(self):
        m = np.array([[1.0, 5.0], [0.0, 1.0]])
        h = make_report(m, strict=False)
        assert h.defect == pytest.approx(5.0)
        assert_allclose(h.matrix, [[1.0, 2.5], [2.5, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            make_report(np.ones((2, 3)))

    def test_empty_matrix(self):
        h = make_report(np.zeros((0, 0)))
        assert h.matrix.shape == (0, 0)
        assert h.defect == 0.0

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @pytest.mark.parametrize(
        "m",
        [
            [[1.0, complex("nan")], [0.0, 1.0]],
            [[1.0, complex("inf")], [0.0, 1.0]],
            [[1.0, complex(0.0, float("-inf"))], [complex(0.0, float("inf")), 1.0]],
            [[complex("inf"), 0.0], [0.0, 1.0]],
        ],
        ids=["nan", "inf", "inf-pair", "inf-diagonal"],
    )
    def test_non_finite_entry_rejected(self, m, strict):
        # A NaN compares False with every bound, so only the finiteness of
        # the defect keeps such a matrix from passing as Hermitian.
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            make_report(np.array(m, dtype=complex), strict=strict)


class TestEigenAndRank:
    def test_eigen_ascending(self):
        w = make_report(np.diag([3.0, 1.0, 2.0])).eigenvalues
        assert_allclose(w, [1.0, 2.0, 3.0])

    def test_spectrum_matches_eigh(self):
        rng = np.random.default_rng(53)
        for size in range(1, 25):
            f = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            m = 10.0 ** rng.uniform(-3, 3) * (f + f.conj().T)
            want = np.linalg.eigh(m)[0]
            bound = 8 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(make_report(m).eigenvalues - want)) <= bound

    def test_rank_counts_above_relative_cutoff(self):
        m = np.diag([1.0, 1e-4, 1e-12])
        assert make_report(m).numerical_rank == 2
        assert make_report(m, rank_tol=1e-6).numerical_rank == 2
        assert make_report(m, rank_tol=1e-2).numerical_rank == 1
        assert make_report(m).rank_at(1e-2) == 1

    def test_rank_cutoff_floors_at_one(self):
        # Scale max(1, lambda_max) keeps tiny matrices from ranking as full.
        assert make_report(np.diag([1e-12, 1e-13])).numerical_rank == 0

    def test_rank_of_empty(self):
        assert make_report(np.zeros((0, 0))).numerical_rank == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 6))
def test_gram_matrices_report_psd_with_factor_rank(seed, n, r):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    report = make_report(f @ f.conj().T)
    assert report.psd
    assert report.numerical_rank == np.linalg.matrix_rank(f)


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
        lambda tol: make_report(np.zeros((0, 0)), rank_tol=tol),
        lambda tol: make_report(_DIAG).rank_at(tol),
        lambda tol: admissible(extract_data(make_blaschke([0.5]), [1.0], [1]), [1], tol=tol),
    ],
    ids=[
        "make_report-rank",
        "make_report-pd",
        "numerical_rank-empty",
        "rank_at",
        "admissible",
    ],
)
def test_negative_or_nonfinite_tolerance_rejected(read, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        read(tol)
