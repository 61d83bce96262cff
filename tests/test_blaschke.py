"""Blaschke product construction, evaluation, jets, and level sets."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blaschkepick import (
    BlaschkeProduct,
    ConstantNotUnimodular,
    PoleEvaluation,
    RootFindingFailure,
    UnitaryRealization,
    ZeroOnOrOutsideDisk,
    evaluate,
    extract_data,
    level_set,
    make_blaschke,
    poles,
    psi_matrix,
    realize,
    resolvent_rows,
    sp_boundary_radial,
    sp_boundary_structured,
    sp_via_realization,
    taylor_jet,
)
from blaschkepick.blaschke import ARRAY_ENTRIES_MAX, _jet_array
from blaschkepick.schwarz_pick import _shape_plan
from helpers import random_blaschke, random_circle_points, random_interior_points


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


class TestEvaluate:
    def test_single_factor_at_origin(self):
        b = make_blaschke([0.5])
        assert evaluate(b, 0.0) == pytest.approx(-0.5)

    def test_vanishes_at_zeros(self):
        b = make_blaschke([0.3, -0.4j], 1j)
        assert abs(evaluate(b, 0.3)) == 0.0
        assert abs(evaluate(b, -0.4j)) == 0.0

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

    def test_a_point_near_a_pole_is_named_with_the_pole(self):
        b = make_blaschke([0.5, 0.25j])
        with pytest.raises(PoleEvaluation) as exc:
            evaluate(b, 2.0 + 1e-13)
        assert str(exc.value) == "(2.0000000000001+0j) lies within 1e-12 of the pole at (2+0j)"

    def test_the_value_is_the_leading_jet_coefficient_bit_for_bit(self):
        # Degree 0 to 12, half of the products with a zero at the origin,
        # at points inside the disk and on the circle.
        rng = np.random.default_rng(61)
        for degree in range(13):
            for draw in range(20):
                b = random_blaschke(rng, degree)
                if degree and draw % 2:
                    b = make_blaschke((0.0,) + b.zeros[1:], b.unimodular_constant)
                for z in random_interior_points(rng, 2, 0.99) + random_circle_points(rng, 2):
                    assert evaluate(b, z) == taylor_jet(b, z, 0)[0]

    def test_evaluate_and_level_set_read_the_jet_evaluator(self, monkeypatch):
        import blaschkepick.blaschke as blaschke_module

        calls = []

        def counted(b, centers, order):
            calls.append((centers.shape, order))
            return _jet_array(b, centers, order)

        monkeypatch.setattr(blaschke_module, "_jet_array", counted)
        b = make_blaschke([0.5, -0.3j, 0.0])
        evaluate(b, 0.2 + 0.1j)
        level_set(b, 1j)
        assert calls == [((), 0), ((3,), 0)]

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
        assert jet.shape == (3,) and jet.dtype == complex
        assert_allclose(jet, [1.0, 3.0, 3.0])

    def test_leading_coefficient_is_the_value(self):
        rng = np.random.default_rng(3)
        b = random_blaschke(rng, 4)
        z0 = 0.4 - 0.1j
        jet = taylor_jet(b, z0, 5)
        assert jet[0] == pytest.approx(evaluate(b, z0))

    def test_first_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        b = random_blaschke(rng, 3)
        z0 = 0.2 + 0.3j
        h = 1e-5
        fd = (evaluate(b, z0 + h) - evaluate(b, z0 - h)) / (2.0 * h)
        jet = taylor_jet(b, z0, 1)
        assert jet[1] == pytest.approx(fd, rel=1e-8)

    def test_partial_sum_remainder_decays_at_jet_order(self):
        rng = np.random.default_rng(5)
        b = random_blaschke(rng, 4)
        z0 = cmath.exp(0.4j)
        jet = taylor_jet(b, z0, 4)

        def remainder(h: complex) -> float:
            s = sum(c * h**k for k, c in enumerate(jet))
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

    def test_overflowing_jet_rejected(self):
        # |1 - conj(a) z0| = 2e-12 at z0 = 1: the coefficients grow like
        # (5e11)^j and overflow well before order 30.  The public readers
        # return every coefficient, so both refuse the overflow.
        b = make_blaschke([1.0 - 2e-12])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^jet coefficients of b must be finite"):
                taylor_jet(b, 1.0, 30)
            with pytest.raises(ValueError, match="^jet coefficients of b must be finite"):
                extract_data(b, [1.0], [30])


# Jets of taylor_jet, extract_data and the stacked evaluation behind both
# against an exact series product.  The tolerance is fixed from eps,
# relative to max(1, |w_j|): 512 eps is about 1.1e-13.
JET_TOL = 512 * np.finfo(float).eps


def _random_jet_case(rng):
    """Degree <= 12 with |a| <= 0.95, 1-5 points, one order <= 17 per point."""
    b = random_blaschke(rng, int(rng.integers(0, 13)), radius=0.95)
    n = int(rng.integers(1, 6))
    points = random_circle_points(rng, n)
    return b, points, [int(j) for j in rng.integers(0, 18, size=n)]


def _wide_jet_case(rng):
    """Degree <= 12 with |a| <= 0.995 and about one zero in four at the
    origin, 1-5 centers each on the circle or at radius r = 1 - 2^-m
    (1 <= m <= 30), one order <= 17 per center."""
    b = random_blaschke(rng, int(rng.integers(0, 13)), radius=0.995)
    b = make_blaschke([0.0 if rng.uniform() < 0.25 else a for a in b.zeros], b.unimodular_constant)
    n = int(rng.integers(1, 6))
    radii = [1.0 if rng.uniform() < 0.5 else 1.0 - 2.0 ** -int(rng.integers(1, 31)) for _ in range(n)]
    centers = [r * t for r, t in zip(radii, random_circle_points(rng, n))]
    return b, centers, [int(j) for j in rng.integers(0, 18, size=n)]


def _assert_jets_close(got, want):
    want = np.asarray(want, dtype=complex)
    assert np.all(np.abs(np.asarray(got) - want) <= JET_TOL * np.maximum(1.0, np.abs(want)))


def _assert_jets_match_reference(mpmath, b, centers, orders):
    """taylor_jet and _jet_array at every center, and extract_data at the
    centers on the circle, against the series product at 40 digits."""
    stacked = _jet_array(b, np.array(centers), max(orders))
    on_circle = [i for i, z in enumerate(centers) if abs(z) == pytest.approx(1.0, abs=1e-15)]
    data = extract_data(b, [centers[i] for i in on_circle], [orders[i] for i in on_circle])
    read = dict(zip(on_circle, data.values))
    with mpmath.workdps(40):
        for i, (z, j, row) in enumerate(zip(centers, orders, stacked)):
            want = _mp_jet(mpmath, b, z, j)
            _assert_jets_close(taylor_jet(b, z, j), want)
            _assert_jets_close(row[: j + 1], want)
            if i in read:
                assert len(read[i]) == j + 1
                _assert_jets_close(read[i], want)


class TestStackedJets:
    def test_jets_match_mpmath_reference(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        for _ in range(200):
            _assert_jets_match_reference(mpmath, *_random_jet_case(rng))

    def test_jets_match_mpmath_reference_near_poles_and_inside(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(14)
        for _ in range(150):
            _assert_jets_match_reference(mpmath, *_wide_jet_case(rng))

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


def _level_set_by_loop(b, tau):
    """level_set as a loop: one Newton step per root, polished in the order
    np.roots gives them."""
    num = den = np.array([1.0], dtype=complex)
    for a in b.zeros:
        num = np.convolve(num, np.array([-a, 1.0], dtype=complex))
        den = np.convolve(den, np.array([1.0, -a.conjugate()], dtype=complex))
    p = np.zeros(b.degree + 1, dtype=complex)
    p += b.unimodular_constant * num
    p -= tau * den
    p_desc = p[::-1]
    polished = []
    for r in np.roots(p_desc):
        slope = np.polyval(np.polyder(p_desc), r)
        polished.append(complex(r - np.polyval(p_desc, r) / slope if slope != 0 else r))
    return sorted(polished, key=cmath.phase)


class TestLevelSet:
    def test_polish_matches_the_per_root_loop(self):
        # The whole-array Newton step does the loop's arithmetic root by
        # root, so the roots agree bit for bit.
        rng = np.random.default_rng(9)
        for _ in range(100):
            b = random_blaschke(rng, int(rng.integers(1, 13)))
            tau = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            assert level_set(b, tau) == _level_set_by_loop(b, tau)

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

    def test_failure_names_the_first_root_in_root_finder_order(self, monkeypatch):
        # z^2 = -1: np.roots gives i before -i, and the sorted result has -i
        # first.  With a limit below every residual, each root fails and
        # the message names i.
        import blaschkepick.blaschke as blaschke_module

        monkeypatch.setattr(blaschke_module, "LEVEL_SET_RESIDUAL", -1.0)
        with pytest.raises(RootFindingFailure, match=r"^root 1j has residual 0\.0 above -1\.0$"):
            level_set(make_blaschke([0.0, 0.0]), -1.0)


class TestSizeLimit:
    """One limit, ARRAY_ENTRIES_MAX entries, on each of the seven arrays that
    grow with the problem (the jet gather, a shape plan, a realization's run
    products, the radial kernel stack, the resolvent stack and rows, the Gram
    matrix R R*), checked before the array is allocated."""

    @pytest.fixture
    def limit(self, monkeypatch):
        import blaschkepick.blaschke as blaschke_module

        return lambda entries: monkeypatch.setattr(blaschke_module, "ARRAY_ENTRIES_MAX", entries)

    def test_jet_gather_counts_degree_centers_and_squared_length(self, limit):
        b, centers = make_blaschke([0.1, 0.2j, -0.3]), np.array([1.0, -1.0])
        limit(3 * 2 * 4**2)
        assert _jet_array(b, centers, 3).shape == (2, 4)
        limit(3 * 2 * 4**2 - 1)
        with pytest.raises(ValueError, match=r"^the jet gather would hold 96 entries, above the limit of 95$"):
            _jet_array(b, centers, 3)

    def test_degree_zero_counts_as_one(self, limit):
        limit(4**2 - 1)
        with pytest.raises(ValueError, match="jet gather would hold 16 entries"):
            taylor_jet(make_blaschke([]), 1.0, 3)

    def test_shape_plan_counts_its_square(self, limit):
        plan = _shape_plan.__wrapped__  # past the cache, which holds no refusal
        limit(12**2)
        assert plan((7, 5)).same.shape == (12, 12)
        limit(12**2 - 1)
        with pytest.raises(ValueError, match=r"^the shape plan would hold 144 entries, above the limit of 143$"):
            plan((7, 5))

    def test_realization_counts_degree_plus_two_squared(self, limit):
        b = make_blaschke([0.1, 0.2j, -0.3])
        limit(5**2)
        assert realize(b).state_dim == 3
        limit(5**2 - 1)
        with pytest.raises(ValueError, match="^the realization's run products would hold 25 entries"):
            realize(b)

    def test_radial_stack_counts_half_the_nodes_and_squared_order_sum(self, limit):
        # Four first-order points: the stack's 16 x 4^2 entries outnumber
        # the gather's 32 x 4 and the plan's 4^2.
        b, pts = make_blaschke([0.5]), [1.0, 1j, -1.0, -1j]
        limit(16 * 4**2)
        assert sp_boundary_radial(b, pts, [1] * 4)[0].flat.shape == (4, 4)
        limit(16 * 4**2 - 1)
        with pytest.raises(ValueError, match=r"^the radial kernel stack would hold 256 entries, above the limit of 255$"):
            sp_boundary_radial(b, pts, [1] * 4)

    def test_resolvent_stack_counts_points_and_squared_degree(self, limit):
        r = realize(make_blaschke([0.1, 0.2j, -0.3]))
        limit(2 * 3**2)
        assert resolvent_rows(r, [1.0, -1.0], [1, 2]).shape == (3, 3)
        limit(2 * 3**2 - 1)
        with pytest.raises(ValueError, match=r"^the resolvent stack would hold 18 entries, above the limit of 17$"):
            resolvent_rows(r, [1.0, -1.0], [1, 2])

    def test_resolvent_rows_count_points_longest_order_and_degree(self, limit):
        # Orders (1, 5) at degree 3: the rows' 2 x 5 x 3 entries outnumber
        # the stack's 2 x 3^2.
        r = realize(make_blaschke([0.1, 0.2j, -0.3]))
        limit(2 * 5 * 3)
        assert resolvent_rows(r, [1.0, -1.0], [1, 5]).shape == (6, 3)
        limit(2 * 5 * 3 - 1)
        with pytest.raises(ValueError, match=r"^the resolvent rows would hold 30 entries, above the limit of 29$"):
            resolvent_rows(r, [1.0, -1.0], [1, 5])

    def test_gram_matrix_counts_its_square(self, limit):
        # Orders (1, 5) at degree 3: the Gram matrix's 6^2 entries outnumber
        # the rows' 30.
        r = realize(make_blaschke([0.1, 0.2j, -0.3]))
        limit(6**2)
        assert sp_via_realization(r, [1.0, -1.0], [1, 5]).shape == (6, 6)
        limit(6**2 - 1)
        with pytest.raises(ValueError, match=r"^the Gram matrix R R\* would hold 36 entries, above the limit of 35$"):
            sp_via_realization(r, [1.0, -1.0], [1, 5])

    @staticmethod
    def refused_peak(call, message: str) -> int:
        """Peak bytes traced while call raises ValueError with message."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_eight_hundred_points_are_refused_before_the_radial_route_reads_a_jet(self):
        pts = [cmath.exp(2j * math.pi * m / 800) for m in range(800)]
        entries = 16 * 800**2
        message = f"^the radial kernel stack would hold {entries} entries, above the limit of {ARRAY_ENTRIES_MAX}$"
        assert self.refused_peak(lambda: sp_boundary_radial(make_blaschke([0.5]), pts, [1] * 800), message) < 2**20

    def test_degree_1500_at_four_points_is_refused_before_the_resolvent_stack(self):
        d = 1500
        r = UnitaryRealization(A=np.zeros((d, d), dtype=complex), B=np.zeros((d, 1)), C=np.zeros((1, d)), D=1.0)
        message = f"^the resolvent stack would hold {4 * d**2} entries, above the limit of {ARRAY_ENTRIES_MAX}$"
        assert self.refused_peak(lambda: resolvent_rows(r, [1.0, 1j, -1.0, -1j], [1] * 4), message) < 2**20

    def test_order_100000_is_refused_before_the_gram_matrix(self):
        # 10^10 entries, 149 GiB: refused before a resolvent row is formed.
        r = realize(make_blaschke([0.5]))
        message = f"^the Gram matrix R R\\* would hold {10**10} entries, above the limit of {ARRAY_ENTRIES_MAX}$"
        assert self.refused_peak(lambda: sp_via_realization(r, [0.5], [100000]), message) < 2**20

    def test_order_500000_at_degree_20_is_refused_before_the_resolvent_rows(self):
        # 1 x 500,000 x 20 rows: refused before I - z A is formed.
        r = realize(make_blaschke([0.04 * j for j in range(20)]))
        message = f"^the resolvent rows would hold {10**7} entries, above the limit of {ARRAY_ENTRIES_MAX}$"
        assert self.refused_peak(lambda: resolvent_rows(r, [0.5j], [500000]), message) < 2**20

    @pytest.mark.parametrize(
        "call, entries",
        [
            (lambda: taylor_jet(make_blaschke([0.5]), 1.0, 10**6), (10**6 + 1) ** 2),
            (lambda: extract_data(make_blaschke([0.5, 0.5]), [1.0], [10**6]), 2 * (10**6 + 1) ** 2),
            (lambda: psi_matrix(1.0, 2**12), 2**24),
            (lambda: sp_boundary_structured([[1.0] * 2**13], [1.0], [2**12]), 2**24),
        ],
        ids=["taylor_jet", "extract_data", "psi_matrix", "sp_boundary_structured"],
    )
    def test_an_oversize_call_is_refused_at_once(self, call, entries):
        with pytest.raises(ValueError, match=f" would hold {entries} entries, above the limit of {ARRAY_ENTRIES_MAX}$"):
            call()
