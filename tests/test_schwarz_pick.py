"""Schwarz-Pick matrices: the kernel series, the realization's Gram matrix
at interior points, and the structured and radial routes."""

import cmath
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blaschkepick import (
    BlaschkePickError,
    DegenerateDenominator,
    Inconclusive,
    InsufficientJet,
    PoleEvaluation,
    make_blaschke,
    psi_matrix,
    realize,
    sp_boundary_radial,
    sp_boundary_structured,
    sp_via_realization,
    taylor_jet,
)
from blaschkepick.blaschke import _jet_array
from blaschkepick.schwarz_pick import (
    CONTOUR_ROUNDING,
    CONTOUR_SHRINK,
    RADIAL_CONVERGENCE_TOL,
    SchwarzPickMatrix,
    _kernel_stack,
    _shape_plan,
)
from helpers import flat_row, random_blaschke, random_circle_points, random_interior_points


def conjugated_jet(center: complex, row) -> tuple[complex, np.ndarray]:
    """(center, row) of the conjugated function at the conjugated center."""
    return complex(center).conjugate(), np.conj(row)


def in_flat_layout(stack: np.ndarray, ks) -> np.ndarray:
    """A stack of _kernel_stack read through the plan's `back` permutation."""
    back = _shape_plan(tuple(ks)).back
    return stack[..., back[:, None], back]


def padded_kernel_stack(w, v, z, u, ks) -> np.ndarray:
    """The kernel stack in the flat layout by the padded recurrence: every
    pair runs to max(ks) in both indices on an (R, n, n, K, K) stack and is
    cut to its own orders afterwards."""
    point = np.repeat(np.arange(len(ks)), ks)[:, None]
    derivative = np.concatenate([np.arange(k) for k in ks])[:, None]
    z0, u0 = z[:, :, None], u[:, None, :]
    c = 1.0 - z0 * u0
    coeffs = -w[:, :, None, :, None] * v[:, None, :, None, :]
    coeffs[..., 0, 0] += 1.0
    for x in range(max(ks)):
        for y in range(max(ks)):
            acc = coeffs[..., x, y]
            if x:
                acc += u0 * coeffs[..., x - 1, y]
            if y:
                acc += z0 * coeffs[..., x, y - 1]
            if x and y:
                acc += coeffs[..., x - 1, y - 1]
            acc /= c
    return coeffs[:, point, point.T, derivative, derivative.T]


def kernel_coefficients(jet_z, jet_u, k: int) -> np.ndarray:
    """Kernel coefficients through order k - 1 in z - z0 and in u - u0, from
    the one-point call of _kernel_stack on two (center, row) pairs."""
    (z0, row_z), (u0, row_u) = jet_z, jet_u
    w = np.array([[row_z[:k]]], dtype=complex)
    v = np.array([[row_u[:k]]], dtype=complex)
    return _kernel_stack(w, v, np.array([[z0]], dtype=complex), np.array([[u0]], dtype=complex), (k,))[0]


def kernel_at(b, z0: complex, s0: complex, k: int) -> np.ndarray:
    """Kernel coefficients of b at (z0, conj(s0)) through order k - 1."""
    return kernel_coefficients((z0, taylor_jet(b, z0, k - 1)), conjugated_jet(s0, taylor_jet(b, s0, k - 1)), k)


class TestKernelJet:
    """Jets of the kernel at one pair of centers: one-point calls of
    _kernel_stack."""

    def test_degree_one_separable_closed_form(self):
        # For a single factor the kernel collapses to
        #     (1 - |a|**2) / ((1 - conj(a) z)(1 - a u)),
        # so every mixed coefficient factors into two geometric tails.
        # The jets' rounding reaches coefficient (x, y) multiplied by
        # binom(x + y, x) |c|**-(x + y + 1), c = 1 - z0 u0, as through
        # 1 / (1 - z u); no evaluation from rounded jets does better.  So
        # each entry is held to 1e-12 of itself plus CONTOUR_ROUNDING eps
        # times that, the rounding term of the radial estimate: the term is
        # what the small coefficients of order 5 need at the first pair,
        # and all that the second pair, |c| = 1e-4, can give.
        a = 0.37 - 0.21j
        ac = a.conjugate()
        b = make_blaschke([a], cmath.exp(0.8j))
        x, y = np.indices((6, 6))
        binom = np.vectorize(math.comb)(x + y, x)
        near = (1.0 - 5e-5) * cmath.exp(-2.2j)
        for z0, s0 in [(0.25 + 0.4j, -0.3 + 0.1j), (near, near)]:
            u0 = s0.conjugate()
            want = (1.0 - abs(a) ** 2) * ac**x / (1.0 - ac * z0) ** (x + 1) * a**y / (1.0 - a * u0) ** (y + 1)
            c = abs(1.0 - z0 * u0)
            bound = 1e-12 * np.abs(want) + CONTOUR_ROUNDING * sys.float_info.epsilon * binom * c ** -(x + y + 1.0)
            for k in range(1, 7):
                out = kernel_at(b, z0, s0, k)
                assert np.all(np.abs(out - want[:k, :k]) <= bound[:k, :k]), (z0, k)

    def test_identity_map_kernel_is_one(self):
        out = kernel_at(make_blaschke([0.0]), 0.3, 0.3, 2)
        assert_allclose(out, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_constant_product_kernel_vanishes(self):
        out = kernel_at(make_blaschke([], cmath.exp(1.3j)), 0.2j, 0.2j, 3)
        assert_allclose(out, np.zeros((3, 3)), atol=1e-15)

    def test_degenerate_centers_rejected(self):
        jet_z = (0.5, taylor_jet(make_blaschke([0.5]), 0.5, 1))
        with pytest.raises(DegenerateDenominator):
            kernel_coefficients(jet_z, (2.0, (0.1, 0.2)), 2)

    def test_reciprocal_survives_small_constant_kernel_denominator(self):
        # With zero jets the kernel series is the reciprocal series of
        # 1 - z u at a conjugate pair of centers close to the unit circle.
        # Differentiating 1 / (1 - z u) by hand gives it in closed form, and
        # the relative error must stay at rounding level even though
        # c = 1 - z0 u0 is 2e-5.  c is formed by an array product, as the
        # stack forms it: numpy may fuse its multiply-adds, which leaves an
        # imaginary part of about 1e-17 that Python's complex product does not.
        z0 = complex((1.0 - 1e-5) * np.exp(0.3j))
        u0 = z0.conjugate()
        c = complex((1.0 - np.array([z0]) * np.array([u0]))[0])
        rec = kernel_coefficients((z0, (0.0, 0.0)), (u0, (0.0, 0.0)), 2)
        want = np.array(
            [
                [1.0 / c, z0 / c**2],
                [u0 / c**2, (2.0 - c) / c**3],
            ]
        )
        assert_allclose(rec, want, rtol=1e-12)


class TestKernelRows:
    """_kernel_stack on the unpadded rows of the shape plan against the
    padded recurrence, bit for bit."""

    @staticmethod
    def assert_matches_padded(rng, ks):
        b = random_blaschke(rng, int(rng.integers(0, 7)))
        pts = random_circle_points(rng, len(ks))
        # Distinct z- and u-centers on several radii rows.
        z = np.multiply.outer([0.5, 0.7, 0.9], pts)
        u = np.multiply.outer([0.6, 0.8, 0.95], pts).conj()
        w = _jet_array(b, z, max(ks) - 1)
        v = _jet_array(b, u.conj(), max(ks) - 1).conj()
        stack = _kernel_stack(w, v, z, u, ks)
        assert np.array_equal(in_flat_layout(stack, ks), padded_kernel_stack(w, v, z, u, ks)), ks

    @pytest.mark.parametrize(
        "ks", sorted({ks for base in [(1, 3, 2), (3, 3, 1), (1, 1, 4)] for ks in itertools.permutations(base)})
    )
    def test_every_ordering_matches_the_padded_recurrence(self, ks):
        self.assert_matches_padded(np.random.default_rng(sum(ks) + 10 * ks[0]), ks)

    def test_random_shapes_match_the_padded_recurrence(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            ks = tuple(int(k) for k in rng.integers(1, 7, size=int(rng.integers(1, 7))))
            self.assert_matches_padded(rng, ks)


class TestInterior:
    def test_single_point_worked_value(self):
        b = make_blaschke([0.0, 0.0])
        p = sp_via_realization(realize(b), [0.5], [1])
        assert_allclose(p, [[1.25]])

    def test_matches_realization_gram(self):
        # The realization's Gram matrix against the kernel series on the
        # same centers, all within |z| <= 0.9.
        rng = np.random.default_rng(31)
        b = random_blaschke(rng, 4)
        pts = random_interior_points(rng, 2)
        ks = (2, 3)
        p = sp_via_realization(realize(b), pts, ks)
        centers = np.array([pts], dtype=complex)
        jets = _jet_array(b, centers, max(ks) - 1)
        series = in_flat_layout(_kernel_stack(jets, jets.conj(), centers, centers.conj(), ks)[0], ks)
        assert_allclose(p, series, rtol=1e-9, atol=1e-12)

    def test_near_circle_matches_degree_one_closed_form(self):
        # Block (i, j), entry (x, y) of a single factor's matrix is
        #     kappa conj(a)**x a**y / ((1 - conj(a) z_i)**(x + 1) (1 - a conj(z_j))**(y + 1)),
        # and the Gram matrix keeps it to rounding level right up to the
        # circle, where the kernel series loses every digit.
        a = 0.37 - 0.21j
        b = make_blaschke([a], cmath.exp(0.8j))
        ac = a.conjugate()
        kappa = 1.0 - abs(a) ** 2
        ks = (3, 2)
        for m in range(1, 9):
            r = 1.0 - 10.0**-m
            pts = [r * cmath.exp(0.3j), r * cmath.exp(2.4j)]
            rows = [(z, x) for z, k in zip(pts, ks) for x in range(k)]
            want = np.array(
                [
                    [
                        kappa * ac**x * a**y / ((1.0 - ac * z) ** (x + 1) * (1.0 - a * s.conjugate()) ** (y + 1))
                        for s, y in rows
                    ]
                    for z, x in rows
                ]
            )
            p = sp_via_realization(realize(b), pts, ks)
            assert np.max(np.abs(p - want)) <= 1e-13 * np.max(np.abs(want)), m

    def test_hermitian_psd(self):
        rng = np.random.default_rng(32)
        b = random_blaschke(rng, 3)
        pts = random_interior_points(rng, 3)
        p = sp_via_realization(realize(b), pts, [1, 2, 1])
        assert_allclose(p, p.conj().T, atol=1e-10)
        w = np.linalg.eigvalsh(p)
        assert w[0] >= -1e-10 * max(1.0, w[-1])


class TestPsiMatrix:
    def test_order_two_at_one(self):
        assert_allclose(psi_matrix(1.0, 2), [[1.0, -1.0], [0.0, -1.0]])

    def test_upper_triangular_unimodular_determinant(self):
        for k in (1, 2, 4):
            t = cmath.exp(0.7j)
            psi = psi_matrix(t, k)
            assert_allclose(np.tril(psi, -1), np.zeros((k, k)), atol=0.0)
            assert abs(np.linalg.det(psi)) == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_matrix(0.5, 2)
        with pytest.raises(ValueError):
            psi_matrix(1.0, 0)


class TestBoundaryStructured:
    def test_single_point_first_order(self):
        b = make_blaschke([0.5])
        jets = [taylor_jet(b, 1.0, 1)]
        p = sp_boundary_structured(jets, [1.0], [1])
        assert_allclose(p.flat, [[3.0]], rtol=1e-12)

    def test_single_point_second_order(self):
        b = make_blaschke([0.5])
        jets = [taylor_jet(b, 1.0, 3)]
        p = sp_boundary_structured(jets, [1.0], [2])
        assert_allclose(p.flat, [[3.0, 3.0], [3.0, 3.0]], rtol=1e-10)

    def test_two_point_worked_example(self):
        b = make_blaschke([0.5])
        jets = [taylor_jet(b, 1.0, 1), taylor_jet(b, -1.0, 1)]
        p = sp_boundary_structured(jets, [1.0, -1.0], [1, 1])
        assert_allclose(p.flat, [[3.0, 1.0], [1.0, 1.0 / 3.0]], rtol=1e-12)

    def test_agrees_with_realization_gram(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            b = random_blaschke(rng, int(rng.integers(1, 6)))
            pts = random_circle_points(rng, int(rng.integers(1, 6)))
            ks = [int(rng.integers(1, 7)) for _ in pts]
            jets = [taylor_jet(b, t, 2 * k - 1) for t, k in zip(pts, ks)]
            p = sp_boundary_structured(jets, pts, ks)
            gram = sp_via_realization(realize(b), pts, ks)
            scale = max(1.0, float(np.max(np.abs(gram))))
            assert np.max(np.abs(p.flat - gram)) <= 1e-9 * scale

    def test_hermitian_despite_one_sided_formula(self):
        rng = np.random.default_rng(34)
        b = random_blaschke(rng, 4)
        pts = random_circle_points(rng, 2)
        jets = [taylor_jet(b, t, 3) for t in pts]
        p = sp_boundary_structured(jets, pts, [2, 2]).flat
        scale = max(1.0, float(np.max(np.abs(p))))
        assert float(np.max(np.abs(p - p.conj().T))) <= 1e-9 * scale

    def test_short_jet_rejected(self):
        b = make_blaschke([0.5])
        jets = [taylor_jet(b, 1.0, 2)]
        with pytest.raises(InsufficientJet):
            sp_boundary_structured(jets, [1.0], [2])

    @pytest.mark.parametrize("bad", [complex("nan"), complex(1.0, float("inf"))], ids=["nan", "inf"])
    def test_nonfinite_row_rejected(self, bad):
        row = taylor_jet(make_blaschke([0.5]), -1.0, 3).tolist()
        row[2] = bad
        jets = [taylor_jet(make_blaschke([0.5]), 1.0, 3), row]
        with pytest.raises(ValueError, match="jet 1 has a non-finite coefficient"):
            sp_boundary_structured(jets, [1.0, -1.0], [2, 2])

    def test_length_mismatch_rejected(self):
        b = make_blaschke([0.5])
        jets = [taylor_jet(b, 1.0, 1)]
        with pytest.raises(ValueError):
            sp_boundary_structured(jets, [1.0, -1.0], [1, 1])

    def test_point_off_circle_rejected(self):
        jets = [taylor_jet(make_blaschke([0.5]), 0.5, 1)]
        with pytest.raises(ValueError, match="unit circle"):
            sp_boundary_structured(jets, [0.5], [1])


def structured_matrix(b, pts, ks) -> np.ndarray:
    jets = [taylor_jet(b, t, 2 * k - 1) for t, k in zip(pts, ks)]
    return sp_boundary_structured(jets, pts, ks).flat


def assert_matches_structured(b, pts, ks, rel: float):
    """The contour mean reads converged and lies within rel of the
    structured matrix, relative to max(1, its largest entry)."""
    est, diags = sp_boundary_radial(b, pts, ks)
    structured = structured_matrix(b, pts, ks)
    scale = max(1.0, float(np.max(np.abs(structured))))
    assert diags.converged
    assert np.max(np.abs(est.flat - structured)) <= rel * scale
    return est, diags


class TestBoundaryRadial:
    def test_first_order_limit(self):
        b = make_blaschke([0.5])
        est, diags = sp_boundary_radial(b, [1.0], [1])
        assert diags.converged
        assert est.flat[0, 0] == pytest.approx(3.0, rel=1e-12)
        # The pole at 2 is a distance 1 away in h, the cap on rho.
        assert diags.radius == pytest.approx(1.0 / CONTOUR_SHRINK)

    def test_second_order_matches_structured(self):
        rng = np.random.default_rng(35)
        b = random_blaschke(rng, 3)
        assert_matches_structured(b, random_circle_points(rng, 2), [2, 2], rel=1e-10)

    def test_third_order_matches_structured(self):
        # The radial limit read every k = 3 input as unconverged: rounding
        # in its diagonal blocks grew like (1 - r**2) ** -(2k - 2).
        b = make_blaschke([0.5])
        assert_matches_structured(b, [1.0], [3], rel=1e-8)
        assert_matches_structured(b, [1.0], [4], rel=1e-8)
        # problems/unique.json: b(z) = z at t = 1, block diag(1, 0, 0).
        est, _ = assert_matches_structured(make_blaschke([0.0]), [1.0], [3], rel=1e-12)
        assert_allclose(est.flat, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_third_order_beside_first_order_matches_structured(self):
        # The boundary matrix is about 5e3; the radial limit's deep
        # iterates were rounding noise orders of magnitude past it.
        zeros = [
            0.1341307744235378 + 0.11374654040942764j,
            -0.4318955148873633 - 0.575896871548212j,
            0.3466901824544982 + 0.5528281933908026j,
            -0.24789395583032423 + 0.03321005399472177j,
            -0.2690189246742432 - 0.06479618625198413j,
            0.23559605347690318 - 0.6371536434875291j,
            0.473567828454242 - 0.4510948801072886j,
            0.5856512950545737 + 0.4366988996616246j,
        ]
        b = make_blaschke(zeros, 0.05764460195631234 + 0.9983371674265655j)
        pts = [-0.4276834440822611 - 0.9039285766353089j, 0.5746670569917082 - 0.8183873004931643j]
        assert_matches_structured(b, pts, [1, 3], rel=1e-8)

    def test_point_off_circle_rejected(self):
        with pytest.raises(ValueError):
            sp_boundary_radial(make_blaschke([0.5]), [0.9], [1])

    def test_pole_near_the_circle_shrinks_the_contour(self):
        # The first-order kernel at t = 1 is 0.0199 / (1 - 0.99)**2 = 199,
        # and the pole at 1 / 0.99 is 0.0101 away in h.
        est, diags = assert_matches_structured(make_blaschke([0.99]), [1.0], [1], rel=1e-12)
        assert est.flat[0, 0].real == pytest.approx(199.0, rel=1e-12)
        assert diags.radius == pytest.approx((1.0 / 0.99 - 1.0) / CONTOUR_SHRINK)

    def test_point_just_off_the_circle_is_read_on_it(self):
        # Points within CIRCLE_TOL of the circle are accepted and scaled
        # onto it, so the contour is centered on the circle.
        b = make_blaschke([0.5])
        est, _ = sp_boundary_radial(b, [1 + 5e-10], [2])
        want, _ = sp_boundary_radial(b, [1.0], [2])
        assert_allclose(est.flat, want.flat, rtol=1e-12)

    def test_mean_is_hermitian(self):
        rng = np.random.default_rng(39)
        b = random_blaschke(rng, 6)
        est, _ = sp_boundary_radial(b, random_circle_points(rng, 3), [3, 1, 2])
        assert np.array_equal(est.flat, est.flat.conj().T)

    def test_mixed_orders_slice_every_block(self):
        rng = np.random.default_rng(37)
        b = random_blaschke(rng, 5)
        pts = random_circle_points(rng, 3)
        ks = (1, 3, 2)
        assert_matches_structured(b, pts, ks, rel=1e-8)
        centers = 0.5 * np.array([pts])
        jets = _jet_array(b, centers, max(ks) - 1)
        stack = SchwarzPickMatrix(
            flat=in_flat_layout(_kernel_stack(jets, jets.conj(), centers, centers.conj(), ks)[0], ks),
            points=tuple(centers[0]),
            orders=ks,
        )
        scale = max(1.0, float(np.max(np.abs(stack.flat))))
        # Each block against the one-point kernel at its own pair of
        # centers, cut to exactly its own orders.
        for i, (zi, ki) in enumerate(zip(centers[0], ks)):
            for j, (zj, kj) in enumerate(zip(centers[0], ks)):
                pair = kernel_at(b, zi, zj, max(ki, kj))[:ki, :kj]
                row, col = flat_row(ks, i), flat_row(ks, j)
                block = stack.flat[row : row + ki, col : col + kj]
                assert np.max(np.abs(block - pair)) <= 1e-13 * scale

    def test_stack_split_into_pieces_matches_separate_radii(self):
        # The rows of a stack are independent: five radii at once give what
        # each radius gives alone, with one high order among twelve points.
        rng = np.random.default_rng(38)
        b = random_blaschke(rng, 3)
        pts = [cmath.exp(2j * cmath.pi * (m + 0.3) / 12) for m in range(12)]
        ks = (6,) + (1,) * 11
        centers = np.multiply.outer([0.5, 0.6, 0.7, 0.8, 0.9], pts)
        jets = _jet_array(b, centers, max(ks) - 1)
        stacked = _kernel_stack(jets, jets.conj(), centers, centers.conj(), ks)
        for row, flat in enumerate(stacked):
            one = slice(row, row + 1)
            want = _kernel_stack(jets[one], jets[one].conj(), centers[one], centers[one].conj(), ks)[0]
            assert_allclose(flat, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_estimate_bounds_the_gap(self):
        # Degree <= 8, zeros up to 0.9 (a quarter of them at the origin),
        # 1-3 points 0.35 apart, orders <= 4.
        rng = np.random.default_rng(40)
        for _ in range(300):
            b = random_blaschke(rng, int(rng.integers(0, 9)), radius=0.9)
            zeros = [0.0 if rng.uniform() < 0.25 else a for a in b.zeros]
            b = make_blaschke(zeros, b.unimodular_constant)
            pts = random_circle_points(rng, int(rng.integers(1, 4)))
            ks = [int(rng.integers(1, 5)) for _ in pts]
            est, diags = sp_boundary_radial(b, pts, ks)
            gap = float(np.max(np.abs(est.flat - structured_matrix(b, pts, ks))))
            assert gap <= diags.estimate, (zeros, pts, ks)
            assert diags.converged or max(ks) > 2, (zeros, pts, ks)

    def test_nearly_coincident_points_never_read_converged_wrong(self):
        # 1e-9 rad apart the off-diagonal zero of 1 - z u is 5e-10 away in
        # h, so the contour shrinks until rounding swamps order two.
        pts = [1.0, cmath.exp(1e-9j)]
        for zeros in ([], [0.5], [0.3, -0.2j], [0.9j, 0.0]):
            b = make_blaschke(zeros, 1j)
            try:
                est, diags = sp_boundary_radial(b, pts, [2, 2])
            except BlaschkePickError:
                continue
            structured = structured_matrix(b, pts, [2, 2])
            scale = max(1.0, float(np.max(np.abs(structured))))
            gap = float(np.max(np.abs(est.flat - structured)))
            assert not diags.converged or gap <= RADIAL_CONVERGENCE_TOL * scale, zeros

    def test_degenerate_radius_rejected(self):
        # A zero 1.1e-12 inside the circle leaves the contour a radius of
        # about 1.8e-13, and its nodes within 1e-12 of the pole.
        with pytest.raises(PoleEvaluation):
            sp_boundary_radial(make_blaschke([1.0 - 1.1e-12]), [1.0], [1])

    @pytest.mark.parametrize(
        "zero, pts, orders",
        [
            (0.3, [cmath.exp(0.4j), cmath.exp(0.400001j)], [20, 20]),
            (0.3, [cmath.exp(0.4j), cmath.exp(0.400001j)], [24, 24]),
            (1.0 - 2e-12, [1.0, -1.0], [2, 30]),
        ],
        ids=["20", "24", "pole-unread"],
    )
    def test_overflowing_mean_is_refused(self, zero, pts, orders):
        # Points 1e-6 rad apart leave a contour radius near 8e-8.  At order
        # 20 the rounding term (2R)^(1 - 2K) overflows, at order 24 the
        # kernel recurrence too.  A zero 2e-12 inside t = 1 leaves a radius
        # near 3e-13, where the jets through order 29 overflow to NaN
        # entries.  None may pass as a result or a warning, and the refusal
        # carries an infinite value, never NaN, and the largest float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Inconclusive, match="overflows") as exc:
                sp_boundary_radial(make_blaschke([zero]), pts, orders)
        assert exc.value.value == math.inf and exc.value.limit == sys.float_info.max
