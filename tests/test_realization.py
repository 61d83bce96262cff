"""Unitary state-space realizations and the Gram-matrix route."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from blaschkepick import (
    SingularResolvent,
    UnitaryRealization,
    check_minimality,
    evaluate,
    make_blaschke,
    realize,
    resolvent_rows,
    sp_via_realization,
    transfer_eval,
    unitarity_defect,
)
from blaschkepick.realization import system_matrix
from helpers import random_blaschke, random_circle_points


def section(a: complex) -> UnitaryRealization:
    """Degree-one factor (z - a) / (1 - conj(a) z) as a 2 x 2 unitary system."""
    s = math.sqrt(1.0 - abs(a) ** 2)
    return UnitaryRealization(A=[[a.conjugate()]], B=[[s]], C=[[s]], D=-a)


def cascade(first: UnitaryRealization, second: UnitaryRealization) -> UnitaryRealization:
    """Series interconnection feeding the output of `first` into `second`."""
    d1, d2 = first.state_dim, second.state_dim
    a = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    a[:d1, :d1] = first.A
    a[d1:, :d1] = second.B @ first.C
    a[d1:, d1:] = second.A
    b = np.vstack([first.B, second.B * first.D])
    c = np.hstack([second.D * first.C, second.C])
    return UnitaryRealization(A=a, B=b, C=c, D=second.D * first.D)


def cascaded(zeros, u: complex) -> UnitaryRealization:
    """One section per zero in listed order, output row scaled by u."""
    r = UnitaryRealization(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=1.0)
    for a in zeros:
        r = cascade(r, section(complex(a)))
    return UnitaryRealization(A=r.A, B=r.B, C=u * r.C, D=u * r.D)


class TestElementary:
    """A degree-one product realizes its elementary section."""

    def test_zero_at_origin_realizes_identity_map(self):
        r = realize(make_blaschke([0.0]))
        assert_allclose(r.A, [[0.0]])
        assert_allclose(r.B, [[1.0]])
        assert_allclose(r.C, [[1.0]])
        assert r.D == 0.0
        for z in (0.3, -0.7j, cmath.exp(0.4j)):
            assert transfer_eval(r, z) == pytest.approx(z)

    def test_transfer_matches_moebius_factor(self):
        a = 0.4 - 0.3j
        r = realize(make_blaschke([a]))
        for z in (0.0, 0.5j, cmath.exp(1.2j)):
            want = (z - a) / (1.0 - a.conjugate() * z)
            assert transfer_eval(r, z) == pytest.approx(want, rel=1e-13)

    def test_system_matrix_unitary(self):
        r = realize(make_blaschke([0.6j]))
        u = system_matrix(r)
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
        assert unitarity_defect(r) < 1e-15


class TestCascade:
    """The closed form against a cascade of 2 x 2 sections built here."""

    def test_transfer_multiplies(self):
        r = realize(make_blaschke([0.5, -0.3j]))
        assert r.state_dim == 2
        for z in (0.2, 0.4 - 0.1j, cmath.exp(2.0j)):
            want = transfer_eval(section(0.5), z) * transfer_eval(section(-0.3j), z)
            assert transfer_eval(r, z) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "zeros",
        [[0.5, -0.3j], [0.0, 0.4 + 0.2j, 0.0, 0.0], [0.3 - 0.6j, -0.2, 0.3 - 0.6j, 0.3 - 0.6j]],
        ids=["two", "origin", "repeated"],
    )
    def test_system_matrix_matches_cascade(self, zeros):
        u = cmath.exp(0.7j)
        got = system_matrix(realize(make_blaschke(zeros, u)))
        want = system_matrix(cascaded(zeros, u))
        assert_allclose(got, want, rtol=0.0, atol=1e-15)


class TestRealize:
    def test_state_dim_is_degree(self):
        b = make_blaschke([0.1, 0.2, 0.3j])
        assert realize(b).state_dim == 3

    def test_degree_zero(self):
        u = cmath.exp(0.3j)
        r = realize(make_blaschke([], u))
        assert r.state_dim == 0
        assert transfer_eval(r, 0.7j) == pytest.approx(u)
        assert unitarity_defect(r) < 1e-15

    def test_transfer_matches_evaluation(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            r = realize(b)
            for z in (0.3 - 0.2j, 0.8j, cmath.exp(1j * rng.uniform(0, 6.28))):
                assert transfer_eval(r, z) == pytest.approx(evaluate(b, z), rel=1e-11, abs=1e-12)

    def test_unitarity_defect_small(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            b = random_blaschke(rng, int(rng.integers(0, 9)))
            assert unitarity_defect(realize(b)) <= 1e-13


class TestResolventRows:
    def test_degree_one_closed_form(self):
        a = 0.4 + 0.2j
        r = realize(make_blaschke([a]))
        z = cmath.exp(0.5j)
        rows = resolvent_rows(r, [z], [3])
        s = np.sqrt(1.0 - abs(a) ** 2)
        res = 1.0 / (1.0 - z * a.conjugate())
        for ell in range(3):
            want = s * a.conjugate() ** ell * res ** (ell + 1)
            assert rows[ell, 0] == pytest.approx(want, rel=1e-12)

    def test_order_must_be_positive(self):
        r = realize(make_blaschke([0.5]))
        with pytest.raises(ValueError):
            resolvent_rows(r, [1.0], [0])

    def test_singular_resolvent_at_reflected_point(self):
        r = realize(make_blaschke([0.5]))
        with pytest.raises(SingularResolvent):
            resolvent_rows(r, [2.0], [1])
        with pytest.raises(SingularResolvent):
            transfer_eval(r, 2.0)
        # One stacked condition check still names the offending point.
        r = realize(make_blaschke([0.5, 0.5]))
        with pytest.raises(SingularResolvent, match=r"z = \(2\.000000001\+0j\)"):
            resolvent_rows(r, [1.0, 2.0 + 1e-9], [1, 2])

    def test_degree_zero_rows_are_empty(self):
        r = realize(make_blaschke([], 1j))
        assert resolvent_rows(r, [0.5], [2]).shape == (2, 0)

    def test_stacks_points_in_order(self):
        r = realize(make_blaschke([0.3, -0.5j, 0.1 + 0.6j]))
        pts, ks = [1.0, 1j, cmath.exp(2.5j)], [2, 3, 1]
        stacked = resolvent_rows(r, pts, ks)
        singles = np.vstack([resolvent_rows(r, [t], [k]) for t, k in zip(pts, ks)])
        assert_allclose(stacked, singles, rtol=0.0, atol=1e-15)

    def test_lengths_must_match(self):
        r = realize(make_blaschke([0.5]))
        with pytest.raises(ValueError):
            resolvent_rows(r, [1.0, -1.0], [1])


class TestGramRoute:
    def test_two_point_worked_example(self):
        b = make_blaschke([0.5])
        p = sp_via_realization(realize(b), [1.0, -1.0], [1, 1])
        assert_allclose(p, [[3.0, 1.0], [1.0, 1.0 / 3.0]], atol=1e-12)

    def test_result_is_psd_gram(self):
        rng = np.random.default_rng(23)
        b = random_blaschke(rng, 5)
        pts = random_circle_points(rng, 2)
        p = sp_via_realization(realize(b), pts, [2, 1])
        assert_allclose(p, p.conj().T, atol=1e-12)
        w = np.linalg.eigvalsh(p)
        assert w[0] >= -1e-10 * max(1.0, w[-1])

    def test_rank_is_capped_by_state_dim(self):
        b = make_blaschke([0.3, -0.2j])
        pts = [1.0, 1j, -1.0]
        p = sp_via_realization(realize(b), pts, [2, 2, 2])
        s = np.linalg.svd(p, compute_uv=False)
        assert int(np.count_nonzero(s > 1e-8 * s[0])) == 2

    def test_empty_points(self):
        p = sp_via_realization(realize(make_blaschke([0.5])), [], [])
        assert p.shape == (0, 0)


class TestMinimality:
    def test_observability_matrix_shape(self):
        # At z = 0 the resolvent is the identity, so the factor is C, CA exactly.
        r = realize(make_blaschke([0.1, 0.2]))
        obs = resolvent_rows(r, [0.0], [2])
        assert obs.shape == (2, 2)
        assert_array_equal(obs, np.vstack([r.C, r.C @ r.A]))

    def test_realized_products_are_minimal(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            b = random_blaschke(rng, int(rng.integers(0, 7)))
            assert check_minimality(realize(b))

    def test_unobservable_hand_built_system(self):
        r = UnitaryRealization(
            A=np.zeros((1, 1)),
            B=np.ones((1, 1)),
            C=np.zeros((1, 1)),
            D=1.0,
        )
        assert not check_minimality(r)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_minimality_tolerance_must_be_finite_and_nonnegative(self, tol):
        # nan counted no singular value (False), -1 counted every one (True).
        with pytest.raises(ValueError, match="tolerance"):
            check_minimality(realize(make_blaschke([0.1, 0.2])), tol=tol)


class TestValidationAndJson:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            UnitaryRealization(A=np.zeros((2, 1)), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=0.0)
        with pytest.raises(ValueError):
            UnitaryRealization(A=np.zeros((2, 2)), B=np.zeros((1, 1)), C=np.zeros((1, 2)), D=0.0)
        with pytest.raises(ValueError):
            UnitaryRealization(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((2, 2)), D=0.0)
