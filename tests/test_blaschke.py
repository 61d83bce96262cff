"""Blaschke product construction, evaluation, jets, and level sets."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blaschkepick import (
    BlaschkeProduct,
    ConstantNotUnimodular,
    Jet,
    PoleEvaluation,
    ZeroOnOrOutsideDisk,
    blaschke_from_json,
    blaschke_to_json,
    evaluate,
    extract_data,
    level_set,
    make_blaschke,
    modulus_defect,
    poles,
    taylor_jet,
)
from blaschkepick.blaschke import _jet_array
from helpers import random_blaschke, random_circle_points


class TestConstruction:
    def test_zero_on_circle_rejected(self):
        with pytest.raises(ZeroOnOrOutsideDisk):
            make_blaschke([1.0])

    def test_zero_outside_disk_rejected(self):
        with pytest.raises(ZeroOnOrOutsideDisk):
            make_blaschke([0.3, 1.5j])

    def test_constant_must_be_unimodular(self):
        with pytest.raises(ConstantNotUnimodular):
            make_blaschke([0.3], 2.0)
        with pytest.raises(ConstantNotUnimodular):
            make_blaschke([], 0.999 + 0.01j)

    def test_degree_counts_zeros_with_multiplicity(self):
        assert make_blaschke([]).degree == 0
        assert make_blaschke([0.5, 0.5, -0.2j]).degree == 3

    def test_frozen(self):
        b = make_blaschke([0.5])
        with pytest.raises(AttributeError):
            b.zeros = ()

    def test_jet_order(self):
        jet = Jet(center=0.0, coefficients=(1.0, 2.0, 3.0))
        assert jet.order == 2

    def test_jet_needs_a_coefficient(self):
        with pytest.raises(ValueError):
            Jet(center=0.0, coefficients=())


class TestEvaluate:
    def test_single_factor_at_origin(self):
        b = make_blaschke([0.5])
        assert evaluate(b, 0.0) == pytest.approx(-0.5)

    def test_vanishes_at_zeros(self):
        b = make_blaschke([0.3, -0.4j], 1j)
        assert abs(evaluate(b, 0.3)) == 0.0
        assert abs(evaluate(b, -0.4j)) == 0.0

    def test_callable_matches_evaluate(self):
        b = make_blaschke([0.2, 0.1j], cmath.exp(0.7j))
        z = 0.3 - 0.2j
        assert b(z) == evaluate(b, z)

    def test_degree_zero_is_the_constant(self):
        u = cmath.exp(1.1j)
        b = make_blaschke([], u)
        assert evaluate(b, 0.9j) == u

    def test_nonfinite_input_rejected(self):
        b = make_blaschke([0.5])
        with pytest.raises(ValueError):
            evaluate(b, complex(math.nan, 0.0))
        with pytest.raises(ValueError):
            evaluate(b, complex(math.inf, 1.0))

    def test_pole_evaluation(self):
        b = make_blaschke([0.5])
        with pytest.raises(PoleEvaluation):
            evaluate(b, 2.0)

    def test_poles_reflect_nonzero_zeros(self):
        b = make_blaschke([0.0, 0.5, 0.5, 0.25j])
        assert_allclose(poles(b), [2.0, 2.0, 4.0j])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_max_modulus(data):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    b = random_blaschke(rng, degree=data.draw(st.integers(0, 4)))
    theta = data.draw(st.floats(0.0, 2.0 * math.pi))
    r = data.draw(st.floats(0.0, 0.999))
    inside = r * cmath.exp(1j * theta)
    assert abs(evaluate(b, inside)) <= 1.0 + 1e-12
    on_circle = cmath.exp(1j * theta)
    assert abs(evaluate(b, on_circle)) == pytest.approx(1.0, abs=1e-12)


class TestTaylorJet:
    def test_cube_at_one(self):
        jet = taylor_jet(make_blaschke([0.0, 0.0, 0.0]), 1.0, 2)
        assert jet.center == 1.0
        assert_allclose(jet.coefficients, [1.0, 3.0, 3.0])

    def test_leading_coefficient_is_the_value(self):
        rng = np.random.default_rng(3)
        b = random_blaschke(rng, 4)
        z0 = 0.4 - 0.1j
        jet = taylor_jet(b, z0, 5)
        assert jet.coefficients[0] == pytest.approx(evaluate(b, z0))

    def test_first_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        b = random_blaschke(rng, 3)
        z0 = 0.2 + 0.3j
        h = 1e-5
        fd = (evaluate(b, z0 + h) - evaluate(b, z0 - h)) / (2.0 * h)
        jet = taylor_jet(b, z0, 1)
        assert jet.coefficients[1] == pytest.approx(fd, rel=1e-8)

    def test_partial_sum_remainder_decays_at_jet_order(self):
        rng = np.random.default_rng(5)
        b = random_blaschke(rng, 4)
        z0 = cmath.exp(0.4j)
        jet = taylor_jet(b, z0, 4)

        def remainder(h: complex) -> float:
            s = sum(c * h**k for k, c in enumerate(jet.coefficients))
            return abs(s - evaluate(b, z0 + h))

        h = 0.01 * cmath.exp(1.3j)
        r1, r2 = remainder(h), remainder(h / 2.0)
        assert r1 < 1e-8
        # Order-four partial sum leaves an O(h^5) remainder.
        assert r2 < r1 / 20.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            taylor_jet(make_blaschke([0.5]), 0.0, -1)

    def test_jet_at_pole_rejected(self):
        with pytest.raises(PoleEvaluation):
            taylor_jet(make_blaschke([0.5]), 2.0, 2)


# Jets of the stacked evaluation (one call for all points, as in `decide`)
# against the scalar recurrence and an exact series product.  The tolerance
# is fixed from eps, relative to max(1, |w_j|): 512 eps is about 1.1e-13.
JET_TOL = 512 * np.finfo(float).eps


def _random_jet_case(rng):
    """Degree <= 12 with |a| <= 0.95, 1-5 points, one order <= 17 per point."""
    b = random_blaschke(rng, int(rng.integers(0, 13)), radius=0.95)
    n = int(rng.integers(1, 6))
    points = random_circle_points(rng, n)
    return b, points, [int(j) for j in rng.integers(0, 18, size=n)]


def _assert_jets_close(got, want):
    want = np.asarray(want, dtype=complex)
    assert np.all(np.abs(np.asarray(got) - want) <= JET_TOL * np.maximum(1.0, np.abs(want)))


class TestStackedJets:
    def test_stacked_matches_scalar(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            b, points, orders = _random_jet_case(rng)
            stacked = _jet_array(b, np.array(points), max(orders))
            data = extract_data(b, points, orders)
            for t, j, row, values in zip(points, orders, stacked, data.values):
                scalar = taylor_jet(b, t, j).coefficients
                assert len(values) == j + 1
                _assert_jets_close(row[: j + 1], scalar)
                _assert_jets_close(values, scalar)

    def test_stacked_matches_mpmath_series_product(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        with mpmath.workdps(40):
            for _ in range(40):
                b, points, orders = _random_jet_case(rng)
                stacked = extract_data(b, points, orders).values
                for t, j, values in zip(points, orders, stacked):
                    _assert_jets_close(values, _mp_jet(mpmath, b, t, j))

    def test_stacked_rejects_center_at_pole(self):
        with pytest.raises(PoleEvaluation):
            _jet_array(make_blaschke([0.5, 0.0]), np.array([1.0, 2.0]), 2)


def _mp_jet(mpmath, b, z0, order):
    """Coefficients w_0 .. w_order of b at z0 at the working precision: each
    factor's closed-form coefficients (z0 - a) / D and (1 - |a|^2) conj(a)^(m-1)
    / D^(m+1), D = 1 - conj(a) z0, multiplied out by truncated convolution."""
    z0 = mpmath.mpc(z0)
    series = [mpmath.mpc(b.unimodular_constant)] + [mpmath.mpc(0)] * order
    for a in b.zeros:
        a = mpmath.mpc(a)
        den = 1 - mpmath.conj(a) * z0
        factor = [(z0 - a) / den] + [
            (1 - abs(a) ** 2) * mpmath.conj(a) ** (m - 1) / den ** (m + 1) for m in range(1, order + 1)
        ]
        series = [mpmath.fsum(series[i] * factor[m - i] for i in range(m + 1)) for m in range(order + 1)]
    return [complex(c) for c in series]


class TestLevelSet:
    def test_square_at_one(self):
        sols = level_set(make_blaschke([0.0, 0.0]), 1.0)
        assert_allclose(sols, [1.0, -1.0], atol=1e-12)

    def test_solutions_lie_on_circle_and_hit_tau(self):
        rng = np.random.default_rng(6)
        b = random_blaschke(rng, 4)
        tau = cmath.exp(2.2j)
        sols = level_set(b, tau)
        assert len(sols) == 4
        for t in sols:
            assert abs(t) == pytest.approx(1.0, abs=1e-9)
            assert evaluate(b, t) == pytest.approx(tau, abs=1e-9)

    def test_sorted_by_angle(self):
        rng = np.random.default_rng(7)
        b = random_blaschke(rng, 5)
        sols = level_set(b, 1j)
        phases = [cmath.phase(t) for t in sols]
        assert phases == sorted(phases)

    def test_tau_off_circle_rejected(self):
        with pytest.raises(ValueError):
            level_set(make_blaschke([0.5]), 0.9)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            level_set(make_blaschke([]), 1.0)


class TestModulusDefect:
    def test_matches_naive_subtraction_at_moderate_point(self):
        rng = np.random.default_rng(8)
        b = random_blaschke(rng, 4)
        z = 0.4 + 0.35j
        naive = 1.0 - abs(evaluate(b, z)) ** 2
        assert modulus_defect(b, z) == pytest.approx(naive, rel=1e-12)

    def test_near_circle_limit_is_the_derivative_sum(self):
        # As r -> 1 the ratio (1 - |b(r t)|**2) / (1 - r**2) tends to
        # sum_k (1 - |a_k|**2) / |t - a_k|**2, which gives an independent
        # check with full relative accuracy where naive subtraction has none.
        b = make_blaschke([0.5, -0.3j], cmath.exp(0.2j))
        t = cmath.exp(0.9j)
        r = 1.0 - 1e-8
        m = 1.0 - r * r
        expected = sum(
            (1.0 - abs(a) ** 2) / abs(t - a) ** 2 for a in b.zeros
        )
        assert modulus_defect(b, r * t) / m == pytest.approx(expected, rel=1e-6)

    def test_zero_exactly_on_circle(self):
        b = make_blaschke([0.5])
        assert modulus_defect(b, cmath.exp(0.3j), complement=0.0) == 0.0

    def test_degree_zero_has_no_defect(self):
        assert modulus_defect(make_blaschke([], 1j), 0.3) == 0.0

    def test_complement_override(self):
        b = make_blaschke([0.4])
        z = 0.6 + 0.2j
        m = 1.0 - abs(z) ** 2
        assert modulus_defect(b, z, complement=m) == pytest.approx(modulus_defect(b, z), rel=1e-12)

    def test_array_of_points_matches_pointwise(self):
        b = make_blaschke([0.4, -0.3 + 0.5j])
        zs = np.array([[0.1, 0.6 + 0.2j], [-0.5j, 0.999]])
        out = modulus_defect(b, zs)
        assert out.shape == zs.shape
        assert_allclose(out, [[modulus_defect(b, z) for z in row] for row in zs], rtol=1e-15)


class TestJson:
    def test_roundtrip(self):
        b = make_blaschke([0.25 - 0.5j, 0.1], cmath.exp(0.4j))
        again = blaschke_from_json(blaschke_to_json(b))
        assert again == b

    def test_from_json_validates(self):
        with pytest.raises(ZeroOnOrOutsideDisk):
            blaschke_from_json({"zeros": [[2.0, 0.0]], "u": [1.0, 0.0]})

    def test_from_json_accepts_integers(self):
        assert blaschke_from_json({"zeros": [[0, 0]], "u": [0, 1]}) == make_blaschke([0.0], 1j)

    @pytest.mark.parametrize(
        "obj",
        [
            {"zeros": [[False, True]], "u": [True, 0]},
            {"zeros": [[0.5, False]], "u": [1.0, 0.0]},
            {"zeros": [], "u": [True, False]},
            {"zeros": [["0.5", 0.0]], "u": [1.0, 0.0]},
        ],
    )
    def test_from_json_rejects_non_numbers(self, obj):
        # JSON booleans are not numbers: [false, true] must not read as 1j.
        with pytest.raises(TypeError):
            blaschke_from_json(obj)
