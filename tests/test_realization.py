"""Unitary state-space realizations and the Gram-matrix route."""

import cmath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blaschkepick import (
    SingularResolvent,
    UnitaryRealization,
    ZeroOnOrOutsideDisk,
    cascade,
    check_minimality,
    elementary_realization,
    evaluate,
    make_blaschke,
    realize,
    resolvent_rows,
    sp_via_realization,
    transfer_eval,
    unitarity_defect,
)
from blaschkepick.realization import observability_matrix, system_matrix
from helpers import random_blaschke, random_circle_points


class TestElementary:
    def test_zero_at_origin_realizes_identity_map(self):
        r = elementary_realization(0.0)
        assert_allclose(r.A, [[0.0]])
        assert_allclose(r.B, [[1.0]])
        assert_allclose(r.C, [[1.0]])
        assert r.D == 0.0
        for z in (0.3, -0.7j, cmath.exp(0.4j)):
            assert transfer_eval(r, z) == pytest.approx(z)

    def test_transfer_matches_moebius_factor(self):
        a = 0.4 - 0.3j
        r = elementary_realization(a)
        for z in (0.0, 0.5j, cmath.exp(1.2j)):
            want = (z - a) / (1.0 - a.conjugate() * z)
            assert transfer_eval(r, z) == pytest.approx(want, rel=1e-13)

    def test_system_matrix_unitary(self):
        r = elementary_realization(0.6j)
        u = system_matrix(r)
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
        assert unitarity_defect(r) < 1e-15

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(ZeroOnOrOutsideDisk):
            elementary_realization(1.0)


class TestCascade:
    def test_transfer_multiplies(self):
        r1 = elementary_realization(0.5)
        r2 = elementary_realization(-0.3j)
        r = cascade(r1, r2)
        assert r.state_dim == 2
        for z in (0.2, 0.4 - 0.1j, cmath.exp(2.0j)):
            want = transfer_eval(r1, z) * transfer_eval(r2, z)
            assert transfer_eval(r, z) == pytest.approx(want, rel=1e-13)

    def test_cascade_of_unitaries_is_unitary(self):
        r = cascade(elementary_realization(0.5), elementary_realization(0.1 + 0.2j))
        assert unitarity_defect(r) < 1e-14


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
        rows = resolvent_rows(r, z, 3)
        s = np.sqrt(1.0 - abs(a) ** 2)
        res = 1.0 / (1.0 - z * a.conjugate())
        for ell in range(3):
            want = s * a.conjugate() ** ell * res ** (ell + 1)
            assert rows[ell, 0] == pytest.approx(want, rel=1e-12)

    def test_order_must_be_positive(self):
        r = realize(make_blaschke([0.5]))
        with pytest.raises(ValueError):
            resolvent_rows(r, 1.0, 0)

    def test_singular_resolvent_at_reflected_point(self):
        r = realize(make_blaschke([0.5]))
        with pytest.raises(SingularResolvent):
            resolvent_rows(r, 2.0, 1)
        with pytest.raises(SingularResolvent):
            transfer_eval(r, 2.0)

    def test_degree_zero_rows_are_empty(self):
        r = realize(make_blaschke([], 1j))
        assert resolvent_rows(r, 0.5, 2).shape == (2, 0)


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
        r = realize(make_blaschke([0.1, 0.2]))
        assert observability_matrix(r).shape == (2, 2)

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


class TestValidationAndJson:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            UnitaryRealization(A=np.zeros((2, 1)), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=0.0)
        with pytest.raises(ValueError):
            UnitaryRealization(A=np.zeros((2, 2)), B=np.zeros((1, 1)), C=np.zeros((1, 2)), D=0.0)
        with pytest.raises(ValueError):
            UnitaryRealization(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((2, 2)), D=0.0)
