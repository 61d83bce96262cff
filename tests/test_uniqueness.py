"""Uniqueness decisions and their certificates."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blaschkepick import (
    BlaschkePickError,
    CoincidentPoints,
    ContactProblem,
    Inconclusive,
    NonUniqueCertificate,
    RankMismatch,
    Tolerances,
    UniqueCertificate,
    complete_to_pd,
    corner_value,
    criterion,
    decide,
    derivative_orders,
    extend_pick,
    extract_data,
    make_blaschke,
    make_report,
    matches_jets,
    psi_matrix,
    schur_complement,
    sp_boundary_structured,
    taylor_jet,
)
from helpers import CLUSTERED_PROBLEMS, random_blaschke, random_circle_points


class TestCriterion:
    def test_threshold(self):
        assert criterion([3], 1)
        assert not criterion([1, 1], 2)
        assert criterion([1, 1, 1], 2)
        assert criterion([1], 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            criterion([0], 1)
        with pytest.raises(ValueError):
            criterion([1], -1)
        for orders in ([0], [-3], [2, 0]):
            with pytest.raises(ValueError, match="at least one"):
                derivative_orders(orders)

    def test_derivative_orders(self):
        assert derivative_orders([1, 2, 3, 4, 5]) == (1, 1, 2, 2, 3)


class TestContactProblem:
    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            ContactProblem(b=make_blaschke([0.5]), points=(), contact_orders=())

    def test_points_on_circle(self):
        with pytest.raises(ValueError):
            ContactProblem(b=make_blaschke([0.5]), points=(0.5,), contact_orders=(1,))

    def test_distinct_points(self):
        with pytest.raises(CoincidentPoints):
            ContactProblem(b=make_blaschke([0.5]), points=(1.0, 1.0), contact_orders=(1, 1))

    def test_orders_at_least_one(self):
        with pytest.raises(ValueError):
            ContactProblem(b=make_blaschke([0.5]), points=(1.0,), contact_orders=(0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ContactProblem(b=make_blaschke([0.5]), points=(1.0,), contact_orders=(1, 1))


class TestUniqueVerdicts:
    def test_identity_map_third_order_contact(self):
        problem = ContactProblem(b=make_blaschke([0.0]), points=(1.0,), contact_orders=(3,))
        verdict = decide(problem)
        assert verdict.unique
        assert verdict.tag == "unique"
        assert verdict.derivative_orders == (2,)
        assert verdict.degree == 1
        assert isinstance(verdict.certificate, UniqueCertificate)
        assert verdict.certificate.rank == 1
        assert verdict.pick.psd and not verdict.pick.pd
        assert_allclose(verdict.pick.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert_allclose(verdict.pick.eigenvalues, [0.0, 1.0], atol=1e-12)

    def test_square_with_mixed_orders(self):
        problem = ContactProblem(
            b=make_blaschke([0.0, 0.0]), points=(1.0, -1.0), contact_orders=(3, 1)
        )
        verdict = decide(problem)
        assert verdict.unique
        assert verdict.derivative_orders == (2, 1)
        assert verdict.certificate.rank == 2
        assert verdict.pick.matrix.shape == (3, 3)

    def test_constant_product(self):
        problem = ContactProblem(
            b=make_blaschke([], cmath.exp(0.5j)), points=(1.0,), contact_orders=(1,)
        )
        verdict = decide(problem)
        assert verdict.unique
        assert verdict.degree == 0
        assert verdict.certificate.rank == 0
        assert_allclose(verdict.pick.matrix, [[0.0]], atol=1e-12)


class TestNonUniqueVerdicts:
    def test_identity_map_second_order_contact(self):
        problem = ContactProblem(b=make_blaschke([0.0]), points=(1.0,), contact_orders=(2,))
        verdict = decide(problem)
        assert not verdict.unique
        assert verdict.tag == "non-unique"
        cert = verdict.certificate
        assert isinstance(cert, NonUniqueCertificate)
        assert cert.completion.shift == pytest.approx(1.0)
        # The completed corner is the bottom diagonal entry of the one block.
        assert cert.completion.complementary == (1,)
        assert complex(cert.completion.modified.flat[1, 1]) == pytest.approx(1.0)
        assert len(cert.supplementary) == 1
        assert cert.supplementary[0][0] == 0
        assert cert.supplementary[0][1] == pytest.approx(-1.0)
        assert cert.roundtrip_residual <= 1e-12
        assert cert.extended_report.pd
        assert_allclose(cert.completion.modified.flat, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_all_odd_orders_need_no_extension(self):
        problem = ContactProblem(
            b=make_blaschke([0.0, 0.0]), points=(1.0, -1.0), contact_orders=(1, 1)
        )
        verdict = decide(problem)
        assert not verdict.unique
        cert = verdict.certificate
        assert cert.supplementary == ()
        assert cert.completion.shift == 0.0
        assert cert.roundtrip_residual == 0.0
        assert_allclose(verdict.pick.eigenvalues, [2.0, 2.0], atol=1e-12)

    def test_two_even_points_extend_and_complete(self):
        problem = ContactProblem(
            b=make_blaschke([0.0, 0.0, 0.0]), points=(1.0, -1.0), contact_orders=(2, 2)
        )
        verdict = decide(problem)
        assert not verdict.unique
        cert = verdict.certificate
        assert [i for i, _ in cert.supplementary] == [0, 1]
        assert cert.completion.modified.flat.shape == (4, 4)
        assert cert.extended_report.pd
        assert cert.roundtrip_residual <= 1e-9
        assert_allclose(verdict.pick.matrix, [[3.0, 1.0], [1.0, 3.0]], atol=1e-12)

    def test_supplementary_departs_from_the_product(self):
        # The supplemented top coefficient moves away from b's own by
        # exactly the diagonal shift, since the corner slope has modulus
        # |b_0| = 1 on the circle.
        b = make_blaschke([0.3])
        problem = ContactProblem(b=b, points=(1.0,), contact_orders=(2,))
        verdict = decide(problem)
        cert = verdict.certificate
        own = taylor_jet(b, 1.0, 3)[3]
        supplied = cert.supplementary[0][1]
        assert abs(supplied - own) == pytest.approx(cert.completion.shift, rel=1e-9)

    def test_supplementary_solve_at_high_order(self):
        # Degree 8 with eighth-order contact: the corner reaches 1e7, where a
        # finite-difference slope carries enough rounding to break the
        # residual check on the supplemented corner.  The exact slope
        # (-1)^k t^(2k+1) conj(b_0) does not.
        zeros = [
            -0.4384365834628262 + 0.4710563454850222j,
            -0.25950082684223025 - 0.3975872555316651j,
            -0.2223709559871426 - 0.6887171095806882j,
            0.2438858474208645 - 0.12125757247362216j,
            -0.1884364986778621 + 0.09656969848403937j,
            -0.39970705102677145 - 0.5269650284264978j,
            -0.0020481151941723055 - 0.7220975476683578j,
            0.1680427855334846 + 0.07512788521229861j,
        ]
        b = make_blaschke(zeros, 0.14240402792098028 + 0.9898086142441278j)
        t = -0.1450171364159253 - 0.989429143570031j
        verdict = decide(ContactProblem(b=b, points=(t,), contact_orders=(8,)))
        assert not verdict.unique
        cert = verdict.certificate
        assert cert.extended_report.pd
        scale = float(np.max(np.abs(cert.completion.modified.flat)))
        assert scale > 1e6
        assert cert.roundtrip_residual <= 1e-9 * scale

    def test_supplements_reproduce_corner_targets(self):
        # corner_value evaluates the corner through its own Psi product,
        # independently of the structured build decide reads the supplements from.
        rng = np.random.default_rng(809)
        checked = 0
        while checked < 60:
            n = int(rng.integers(1, 4))
            ms = tuple(2 * int(k) for k in rng.integers(1, 4, size=n))
            b = random_blaschke(rng, sum(m // 2 for m in ms) + int(rng.integers(0, 3)))
            problem = ContactProblem(b=b, points=tuple(random_circle_points(rng, n)), contact_orders=ms)
            try:
                cert = decide(problem).certificate
            except RankMismatch:
                continue
            scale = max(1.0, float(np.max(np.abs(cert.completion.modified.flat))))
            ks = derivative_orders(ms)
            targets = completed_corners(cert)
            assert [i for i, _ in cert.supplementary] == list(range(n))
            for i, b_sup in cert.supplementary:
                vals = list(taylor_jet(b, problem.points[i], 2 * ks[i])) + [b_sup]
                assert abs(corner_value(vals, problem.points[i], ks[i]) - targets[i]) <= 1e-12 * scale
            checked += 1

        # decide reads P, the shift and the supplements from one jet
        # evaluation; the public functions rebuild each from JetData on their own.
        # Unique and odd-only problems check P alone.
        rng = np.random.default_rng(811)
        counts = {"unique": 0, "odd-only": 0, "even": 0}
        while min(counts.values()) < 40:
            n = int(rng.integers(1, 5))
            ms = tuple(int(m) for m in rng.integers(1, 9, size=n))
            ks = derivative_orders(ms)
            b = random_blaschke(rng, int(rng.integers(0, 13)))
            problem = ContactProblem(b=b, points=tuple(random_circle_points(rng, n)), contact_orders=ms)
            try:
                verdict = decide(problem)
            except RankMismatch:
                continue
            even = [] if verdict.unique else [i for i, m in enumerate(ms) if m % 2 == 0]
            counts["unique" if verdict.unique else ("even" if even else "odd-only")] += 1
            data = extract_data(b, problem.points, [2 * k + 1 for k in ks])
            ref = make_report(sp_boundary_structured(data.values, data.points, ks).flat)
            scale = max(1.0, float(np.max(np.abs(ref.matrix))))
            assert np.max(np.abs(verdict.pick.matrix - ref.matrix)) <= 1e-13 * scale
            assert np.max(np.abs(verdict.pick.eigenvalues - ref.eigenvalues)) <= 1e-13 * max(1.0, ref.lambda_max)
            assert verdict.pick.numerical_rank == ref.numerical_rank and verdict.pick.pd == ref.pd
            if not even:
                continue
            cert = verdict.certificate
            assert [i for i, _ in cert.supplementary] == even
            extended = extend_pick(data, ks, even)
            corners = {extended.row_index(i, ks[i]) for i in even}
            principal = [j for j in range(extended.flat.shape[0]) if j not in corners]
            margin = max(1.0, make_report(extended.flat, strict=False).lambda_max)
            completion = complete_to_pd(extended, principal, margin)
            scale = max(1.0, float(np.max(np.abs(completion.modified.flat))))
            assert abs(cert.completion.shift - completion.shift) <= 1e-13 * scale
            targets = completed_corners(cert)
            for i, b_sup in cert.supplementary:
                vals = list(data.values[i][: 2 * ks[i] + 1]) + [b_sup]
                assert abs(corner_value(vals, problem.points[i], ks[i]) - targets[i]) <= 1e-13 * scale

    @pytest.mark.parametrize(
        ("orders", "builds", "jet_order"),
        [((2, 1), 2, 3), ((1, 3), 1, 3), ((3, 3), 1, 3), ((4,), 2, 5)],
        ids=["even-and-odd", "odd-only", "unique", "even-only"],
    )
    def test_one_structured_build_plus_the_roundtrip(self, orders, builds, jet_order, monkeypatch):
        # The truncated matrix is read from the extended one, and the
        # supplements need no Psi product of their own.  The jets are
        # evaluated once, through 2 max(k_i') - 1 for the built orders k_i',
        # and no eigenbasis or np.ix_ gather is formed.
        import blaschkepick.blaschke as blaschke_module
        import blaschkepick.pick as pick_module
        import blaschkepick.schwarz_pick as schwarz_pick_module
        import blaschkepick.uniqueness as uniqueness_module
        from blaschkepick.blaschke import _jet_array
        from blaschkepick.schwarz_pick import _structured_flat

        calls, jet_orders = [], []

        def counted(jets, points, orders):
            # The evaluator's jets as they are: 2 max(k_i') columns, none padded.
            assert jets.shape == (len(orders), 2 * max(orders))
            calls.append(orders)
            return _structured_flat(jets, points, orders)

        def counted_jets(b, centers, order):
            jet_orders.append(order)
            return _jet_array(b, centers, order)

        def refused(*args):
            raise AssertionError("decide must not call this")

        monkeypatch.setattr(schwarz_pick_module, "_structured_flat", counted)
        monkeypatch.setattr(uniqueness_module, "_structured_flat", counted)
        monkeypatch.setattr(blaschke_module, "_jet_array", counted_jets)
        monkeypatch.setattr(pick_module, "psi_matrix", refused)
        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np, "ix_", refused)
        b = make_blaschke([0.3, -0.2j, 0.1 + 0.4j])
        decide(ContactProblem(b=b, points=(1.0, -1.0)[: len(orders)], contact_orders=orders))
        assert len(calls) == builds
        assert jet_orders == [jet_order]


class TestEvidenceContradictions:
    def test_unique_path_rank_failure(self):
        problem = ContactProblem(b=make_blaschke([0.0]), points=(1.0,), contact_orders=(3,))
        with pytest.raises(RankMismatch):
            decide(problem, Tolerances(rank=1e30))

    def test_non_unique_path_pd_failure(self):
        problem = ContactProblem(b=make_blaschke([0.0]), points=(1.0,), contact_orders=(2,))
        with pytest.raises(RankMismatch):
            decide(problem, Tolerances(pd=1e30))


class TestInconclusive:
    @pytest.mark.parametrize("zeros, angles, orders", CLUSTERED_PROBLEMS, ids=["two-points", "three-points"])
    def test_clustered_points_are_refused_as_inconclusive(self, zeros, angles, orders):
        # A valid problem whose built Pick matrix fails the Hermitian test is
        # no caller error: the refusal is typed and carries its numbers.
        points = tuple(complex(math.cos(a), math.sin(a)) for a in angles)
        problem = ContactProblem(b=make_blaschke(zeros), points=points, contact_orders=tuple(orders))
        with pytest.raises(Inconclusive, match="^the Pick matrix is not Hermitian") as exc:
            decide(problem)
        assert isinstance(exc.value, BlaschkePickError) and not isinstance(exc.value, ValueError)
        assert exc.value.limit == pytest.approx(1e-9, rel=0.1)
        assert exc.value.value > 100 * exc.value.limit


    def test_a_missed_supplemented_corner_is_inconclusive(self, monkeypatch):
        # The rebuilt corner is a build of the package's own from valid
        # data; no residual meets a negative bound.
        import blaschkepick.uniqueness as uniqueness_module

        monkeypatch.setattr(uniqueness_module, "SUPPLEMENTARY_RESIDUAL_TOL", -1.0)
        problem = ContactProblem(b=make_blaschke([0.0, 0.5], 1j), points=(1.0, -1.0), contact_orders=(2, 1))
        with pytest.raises(Inconclusive, match="^supplemented corner misses its target") as exc:
            decide(problem)
        assert exc.value.value >= 0.0 > exc.value.limit


class TestTolerances:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": -1.0},
            {"rank": float("nan")},
            {"rank": float("inf")},
            {"pd": -1e-12},
            {"pd": float("nan")},
            {"pd": float("-inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            Tolerances(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"rank": 0.0}, {"pd": 0.0}, {"rank": 1e30}]
    )
    def test_edge_values_accepted(self, kwargs):
        Tolerances(**kwargs)

    def test_completion_carries_the_extended_report_at_the_given_tolerances(self):
        b = make_blaschke([0.3, -0.2j, 0.5])
        tol = Tolerances(rank=1e-7, pd=1e-9)
        # Contact order 2 at the first point: that block is extended and completed.
        verdict = decide(ContactProblem(b=b, points=(1.0, 1j), contact_orders=(2, 1)), tol)
        cert = verdict.certificate
        assert [i for i, _ in cert.supplementary] == [0]
        assert cert.extended_report is cert.completion.report
        assert (cert.extended_report.rank_tol, cert.extended_report.pd_tol) == (1e-7, 1e-9)
        assert cert.extended_report.pd
        # Odd orders only: nothing is extended, and the completion is the Pick matrix.
        verdict = decide(ContactProblem(b=b, points=(1.0, 1j), contact_orders=(1, 3)), tol)
        assert not verdict.unique and verdict.certificate.supplementary == ()
        assert verdict.certificate.completion.report is verdict.pick
        assert verdict.certificate.extended_report is verdict.pick


class TestOrderIndependence:
    def test_forward_and_reverse_runs_give_identical_bits(self):
        rng = np.random.default_rng(41)
        problems = []
        for _ in range(40):
            n = int(rng.integers(1, 4))
            problems.append(
                ContactProblem(
                    b=random_blaschke(rng, int(rng.integers(0, 9))),
                    points=tuple(random_circle_points(rng, n)),
                    contact_orders=tuple(int(m) for m in rng.integers(1, 7, size=n)),
                )
            )
        forward = [verdict_bits(p) for p in problems]
        reverse = [verdict_bits(p) for p in reversed(problems)][::-1]
        assert forward == reverse
        assert sum(bits[0] == "unique" for bits in forward) >= 5
        assert sum(bits[0] == "non-unique" for bits in forward) >= 5


def completed_corners(cert: NonUniqueCertificate) -> dict:
    """Point index to completed corner value: the completed diagonal at the
    complementary index of each extended point."""
    flat = cert.completion.modified.flat
    even = [i for i, _ in cert.supplementary]
    return {i: complex(flat[j, j]) for i, j in zip(even, cert.completion.complementary)}


def verdict_bits(problem: ContactProblem) -> tuple:
    """Everything a verdict or refusal says, with arrays as raw bytes."""
    try:
        verdict = decide(problem)
    except Exception as exc:  # a refusal is part of the answer too
        return (type(exc).__name__, str(exc))
    bits = [verdict.tag, verdict.pick.matrix.tobytes(), verdict.pick.eigenvalues.tobytes()]
    cert = verdict.certificate
    if isinstance(cert, NonUniqueCertificate):
        comp = cert.completion
        bits += [
            comp.modified.flat.tobytes(),
            comp.shift,
            comp.report.eigenvalues.tobytes(),
            completed_corners(cert),
            cert.supplementary,
            cert.roundtrip_residual,
            cert.extended_report.matrix.tobytes(),
        ]
    else:
        bits.append(cert.rank)
    return tuple(bits)


# Of decide-mix seeds 1-10 (bench/), the problem whose Pick matrix has an
# eigenvalue closest to a cutoff (seed 10, input 1102): d = 9 and
# k = (3, 3, 3, 2), so the criterion says unique, but the ninth eigenvalue
# sits 0.16% below the rank cutoff and decide refuses with rank 8.
CLOSEST_TO_CUTOFF = ContactProblem(
    b=make_blaschke(
        [
            (0.06763545740694538 - 0.4078149561379425j),
            (0.372841107674842 + 0.012385522253042954j),
            (-0.04685554273106236 + 0.5955115703506316j),
            (0.705110327913206 - 0.2288287872522009j),
            (-0.32481693110583554 + 0.38682736236743537j),
            (0.5128281081308206 + 0.2660546862017581j),
            (0.37167969252166533 + 0.2627139315726015j),
            (-0.06432958850301476 - 0.5761206401246551j),
            (0.4733645502940054 - 0.16347255129287175j),
        ],
        (-0.9878276392072619 + 0.15555241951897603j),
    ),
    points=(
        (-0.3347691981461022 + 0.94230015598673j),
        (-0.6766794941096707 + 0.7362777072894984j),
        (-0.9955665591144375 + 0.0940596957949544j),
        (0.9159651886321866 - 0.4012577391328457j),
    ),
    contact_orders=(5, 6, 6, 4),
)


class TestScalarJetReference:
    """decide reads its jets from one stacked evaluation; the verdict must be
    the one read from a Pick matrix of scalar taylor_jet data."""

    @staticmethod
    def scalar_report(problem: ContactProblem):
        ks = derivative_orders(problem.contact_orders)
        jets = [taylor_jet(problem.b, t, 2 * k + 1) for t, k in zip(problem.points, ks)]
        p = sp_boundary_structured(jets, problem.points, ks)
        return make_report(p.flat, rank_tol=Tolerances().rank, pd_tol=Tolerances().pd)

    def check(self, problem: ContactProblem) -> str:
        report = self.scalar_report(problem)
        d = problem.b.degree
        unique = criterion(problem.contact_orders, d)
        try:
            verdict = decide(problem)
        except RankMismatch as exc:
            # The refusal must be the one the scalar matrix reads, or come
            # from the completion, which the scalar truncated matrix passes.
            if "criterion says unique" in str(exc):
                assert unique and report.numerical_rank != d
            elif "criterion says non-unique" in str(exc):
                assert not unique and not report.pd
            else:
                assert not unique and report.pd
            return "refused"
        assert verdict.tag == ("unique" if unique else "non-unique")
        assert verdict.pick.numerical_rank == report.numerical_rank
        assert verdict.pick.pd == report.pd
        return verdict.tag

    def test_seeded_problems(self):
        rng = np.random.default_rng(808)
        tags = []
        for _ in range(300):
            n = int(rng.integers(1, 5))
            problem = ContactProblem(
                b=random_blaschke(rng, int(rng.integers(0, 13))),
                points=tuple(random_circle_points(rng, n)),
                contact_orders=tuple(int(m) for m in rng.integers(1, 9, size=n)),
            )
            tags.append(self.check(problem))
        assert tags.count("unique") >= 50
        assert tags.count("non-unique") >= 50

    def test_problem_closest_to_a_cutoff(self):
        assert self.check(CLOSEST_TO_CUTOFF) == "refused"
        report = self.scalar_report(CLOSEST_TO_CUTOFF)
        assert report.numerical_rank == 8
        cutoff = report.rank_tol * report.lambda_max
        assert np.min(np.abs(report.eigenvalues - cutoff)) < 0.01 * cutoff


class TestMatchesJets:
    def test_product_matches_itself(self):
        b = make_blaschke([0.4, -0.1j], cmath.exp(0.3j))
        problem = ContactProblem(b=b, points=(1.0, 1j), contact_orders=(2, 1))
        assert matches_jets(b, problem)

    def test_different_product_fails(self):
        problem = ContactProblem(
            b=make_blaschke([0.0, 0.0]), points=(1.0,), contact_orders=(1,)
        )
        assert not matches_jets(make_blaschke([0.0]), problem)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        problem = ContactProblem(b=make_blaschke([0.5]), points=(1.0,), contact_orders=(1,))
        with pytest.raises(ValueError, match="tolerance"):
            matches_jets(make_blaschke([-0.5]), problem, tol=tol)


@pytest.mark.parametrize(
    "call",
    [
        lambda order: ContactProblem(b=make_blaschke([0.5]), points=(1.0,), contact_orders=(order,)),
        lambda order: sp_boundary_structured(extract_data(make_blaschke([0.5]), [1.0], [5]).values, [1.0], [order]),
        lambda order: taylor_jet(make_blaschke([0.5]), 1.0, order),
        lambda order: psi_matrix(1.0, order),
        lambda order: extend_pick(extract_data(make_blaschke([0.5]), [1.0], [5]), [order], [0]),
        lambda order: corner_value([1.0] * 6, 1.0, order),
        lambda order: extend_pick(extract_data(make_blaschke([0.5]), [1.0, -1.0], [5, 5]), [1, 1], [order - 2]),
        lambda order: schur_complement(np.eye(2), [order - 2]),
        lambda order: complete_to_pd(np.eye(2), [order - 2]),
        lambda order: criterion([order], 1),
        lambda order: criterion([3], order),
        lambda order: derivative_orders([order]),
    ],
    ids=[
        "contact-problem",
        "structured",
        "taylor-jet",
        "psi-matrix",
        "extend-pick",
        "corner-value",
        "extend-pick-index",
        "schur-complement-index",
        "complete-to-pd-index",
        "criterion",
        "criterion-degree",
        "derivative-orders",
    ],
)
def test_orders_must_be_integral(call):
    for order in (2, np.int64(2)):
        call(order)
    for order in (2.5, 1.9, 2.0):
        with pytest.raises(TypeError):
            call(order)
