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
    SchwarzPickMatrix,
    Tolerances,
    UniqueCertificate,
    admissible,
    corner_value,
    criterion,
    decide,
    derivative_orders,
    extract_data,
    make_blaschke,
    make_report,
    matches_jets,
    psi_matrix,
    realize,
    resolvent_rows,
    sp_boundary_radial,
    sp_boundary_structured,
    sp_via_realization,
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
            extended = sp_boundary_structured(data.values, data.points, [k + (i in even) for i, k in enumerate(ks)])
            corners = [extended.row_index(i, ks[i]) for i in even]
            margin = max(1.0, make_report(extended.flat, strict=False).lambda_max)
            completed = extended.flat.copy()
            completed[corners, corners] += margin
            ref = make_report(completed, strict=False)
            scale = max(1.0, float(np.max(np.abs(completed))))
            assert abs(cert.completion.shift - margin) <= 1e-13 * scale
            assert cert.extended_report.pd == ref.pd
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
        # One geometry of the points and built orders k_i', formed before any
        # jet, serves the build and the roundtrip rebuild: two jet-to-matrix
        # passes on the even path and one elsewhere.  The truncated matrix is
        # read from the extended one, and the supplements need no Psi product
        # of their own.  The jets are evaluated once, through 2 max(k_i') - 1,
        # and no eigenbasis or np.ix_ gather is formed; the completion is the
        # margin on the corners, with no Cholesky factor or solve.
        import blaschkepick.blaschke as blaschke_module
        import blaschkepick.pick as pick_module
        import blaschkepick.schwarz_pick as schwarz_pick_module
        import blaschkepick.uniqueness as uniqueness_module
        from blaschkepick.blaschke import _jet_array
        from blaschkepick.schwarz_pick import _structured_flat, _structured_geometry

        events, jet_orders = [], []

        def counted_geometry(points, orders):
            events.append("geometry")
            return _structured_geometry(points, orders)

        def counted(jets, plan, m, psi):
            # The evaluator's jets as they are: 2 max(k_i') columns, none padded.
            assert jets.shape == (len(orders), jet_order + 1)
            events.append("flat")
            return _structured_flat(jets, plan, m, psi)

        def counted_jets(b, centers, order):
            events.append("jets")
            jet_orders.append(order)
            return _jet_array(b, centers, order)

        def refused(*args):
            raise AssertionError("decide must not call this")

        for module in (schwarz_pick_module, uniqueness_module):
            monkeypatch.setattr(module, "_structured_geometry", counted_geometry)
            monkeypatch.setattr(module, "_structured_flat", counted)
        monkeypatch.setattr(blaschke_module, "_jet_array", counted_jets)
        monkeypatch.setattr(pick_module, "psi_matrix", refused)
        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np.linalg, "cholesky", refused)
        monkeypatch.setattr(np.linalg, "solve", refused)
        monkeypatch.setattr(np, "ix_", refused)
        b = make_blaschke([0.3, -0.2j, 0.1 + 0.4j])
        decide(ContactProblem(b=b, points=(1.0, -1.0)[: len(orders)], contact_orders=orders))
        assert events == ["geometry", "jets"] + ["flat"] * builds
        assert jet_orders == [jet_order]


class TestSingleRead:
    @pytest.mark.parametrize("orders", [(2, 1), (1, 3), (3, 3)], ids=["even", "odd", "unique"])
    def test_decide_reads_what_the_public_path_reads(self, orders):
        # The one symmetrization of the built matrix, read at P's rows, and
        # the completion from it, the margin on the corners' diagonal, are
        # bit for bit what the public functions read.
        b = make_blaschke([0.3, -0.2j, 0.1 + 0.4j])
        problem = ContactProblem(b=b, points=(1.0, -1.0), contact_orders=orders)
        verdict = decide(problem)
        ks = verdict.derivative_orders
        even = [] if verdict.unique else [i for i, m in enumerate(orders) if m % 2 == 0]
        built = [k + (i in even) for i, k in enumerate(ks)]
        data = extract_data(b, problem.points, [2 * k - 1 for k in built])
        p_tilde = sp_boundary_structured(data.values, data.points, built)
        corners = [p_tilde.row_index(i, ks[i]) for i in even]
        principal = [j for j in range(len(p_tilde.flat)) if j not in corners]
        want, got = make_report(p_tilde.flat[np.ix_(principal, principal)], strict=False), verdict.pick
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert (got.defect, got.numerical_rank, got.psd, got.pd) == (want.defect, want.numerical_rank, want.psd, want.pd)
        if even:
            margin = max(1.0, make_report(p_tilde.flat, strict=False).lambda_max)
            completed = p_tilde.flat.copy()
            completed[corners, corners] += margin
            want, cert = make_report(completed, strict=False), verdict.certificate.completion
            assert (cert.shift, cert.margin, cert.complementary) == (margin, margin, tuple(corners))
            assert np.array_equal(cert.modified.flat, completed)
            assert np.array_equal(cert.report.matrix, want.matrix)
            assert np.array_equal(cert.report.eigenvalues, want.eigenvalues)


# Non-unique problems with at least one even contact order, whose blocks
# decide extends by one row and completes.  "margin-floor" has
# lambda_max(P~) < 1, so its margin is COMPLETION_MARGIN itself.
EVEN_PROBLEMS = {
    "one-zero": (make_blaschke([0.5]), (1.0,), (2,)),
    "margin-floor": (make_blaschke([-0.5]), (1.0,), (2,)),
    "two-even": (make_blaschke([0.3, -0.2j, 0.1 + 0.4j]), (1.0, -1.0), (2, 4)),
    "even-and-odd": (make_blaschke([0.3, -0.2j, 0.1 + 0.4j]), (1.0, -1.0), (2, 1)),
    "three-points": (make_blaschke([0.2, 0.5j, -0.4, 0.1 - 0.3j]), (1.0, 1j, cmath.exp(2.5j)), (2, 1, 2)),
    "near-circle": (make_blaschke([0.9, -0.6j]), (1.0,), (2,)),
}
# Problems decide does not extend: non-unique with odd orders only, and unique.
UNEXTENDED_PROBLEMS = {
    "odd": (make_blaschke([0.3, -0.2j, 0.1 + 0.4j]), (1.0, -1.0), (1, 3)),
    "odd-three-points": (make_blaschke([0.2, 0.5j, -0.4, 0.1 - 0.3j]), (1.0, 1j, -1.0), (1, 3, 1)),
    "unique": (make_blaschke([0.3, -0.2j, 0.1 + 0.4j]), (1.0, -1.0), (3, 3)),
    "unique-one-point": (make_blaschke([0.5]), (1.0,), (3,)),
}


def extension(name: str):
    """An even problem's verdict, P~ built by the public path at decide's
    orders, and the points it extends."""
    b, points, orders = EVEN_PROBLEMS[name]
    problem = ContactProblem(b=b, points=points, contact_orders=orders)
    verdict = decide(problem)
    assert not verdict.unique
    even = [i for i, m in enumerate(orders) if m % 2 == 0]
    built = [k + (i in even) for i, k in enumerate(verdict.derivative_orders)]
    data = extract_data(b, points, [2 * k - 1 for k in built])
    return verdict, sp_boundary_structured(data.values, data.points, built), even


class TestCompletion:
    """decide completes P~ by the margin on the corners' diagonal alone."""

    @pytest.mark.parametrize("name", EVEN_PROBLEMS)
    def test_only_the_corner_diagonal_moves_by_the_shift(self, name):
        verdict, p_tilde, even = extension(name)
        completion = verdict.certificate.completion
        corners = list(completion.complementary)
        moved = np.zeros(p_tilde.flat.shape, dtype=bool)
        moved[corners, corners] = True
        assert np.array_equal(completion.modified.flat[~moved], p_tilde.flat[~moved])
        assert np.array_equal(completion.modified.flat[moved], p_tilde.flat[moved] + completion.shift)

    @pytest.mark.parametrize("name", EVEN_PROBLEMS)
    def test_shift_is_the_margin_of_the_extended_matrix(self, name):
        from blaschkepick.uniqueness import COMPLETION_MARGIN

        verdict, p_tilde, _ = extension(name)
        completion = verdict.certificate.completion
        lambda_max = make_report(p_tilde.flat, strict=False).lambda_max
        assert completion.shift == completion.margin == COMPLETION_MARGIN * max(1.0, lambda_max)
        assert (completion.shift == COMPLETION_MARGIN) == (name == "margin-floor")

    @pytest.mark.parametrize("name", EVEN_PROBLEMS)
    def test_the_report_reads_the_completed_matrix_as_positive_definite(self, name):
        verdict, _, _ = extension(name)
        cert = verdict.certificate
        want = make_report(cert.completion.modified.flat, cert.extended_report.rank_tol, cert.extended_report.pd_tol)
        assert cert.extended_report is cert.completion.report
        assert np.array_equal(cert.extended_report.matrix, want.matrix)
        assert np.array_equal(cert.extended_report.eigenvalues, want.eigenvalues)
        assert cert.extended_report.pd and want.pd
        assert cert.extended_report.lambda_min > 0.0

    @pytest.mark.parametrize("name", EVEN_PROBLEMS)
    def test_complementary_lists_the_corner_of_each_even_point(self, name):
        verdict, p_tilde, even = extension(name)
        cert = verdict.certificate
        corners = tuple(p_tilde.row_index(i, p_tilde.orders[i] - 1) for i in even)
        assert cert.completion.complementary == corners
        assert [i for i, _ in cert.supplementary] == even

    @pytest.mark.parametrize("name", EVEN_PROBLEMS)
    def test_the_completed_matrix_keeps_the_layout_of_the_extension(self, name):
        verdict, p_tilde, _ = extension(name)
        modified = verdict.certificate.completion.modified
        assert isinstance(modified, SchwarzPickMatrix)
        assert (modified.points, modified.orders) == (p_tilde.points, p_tilde.orders)
        assert modified.flat.shape == p_tilde.flat.shape

    @pytest.mark.parametrize("name", ["odd", "odd-three-points"])
    def test_odd_orders_only_complete_with_no_shift(self, name):
        b, points, orders = UNEXTENDED_PROBLEMS[name]
        verdict = decide(ContactProblem(b=b, points=points, contact_orders=orders))
        completion = verdict.certificate.completion
        assert not verdict.unique
        assert (completion.shift, completion.complementary) == (0.0, ())
        assert completion.margin == max(1.0, verdict.pick.lambda_max)
        assert completion.report is verdict.pick
        assert completion.modified.orders == verdict.derivative_orders

    @pytest.mark.parametrize("name", [*EVEN_PROBLEMS, *UNEXTENDED_PROBLEMS])
    def test_decide_reads_one_spectrum_per_matrix(self, name, monkeypatch):
        # An extended problem reads P, P~ for the margin and the completed
        # matrix: three spectra.  Any other problem reads P alone.
        sizes, eigvalsh = [], np.linalg.eigvalsh

        def counted(matrix):
            sizes.append(matrix.shape[0])
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        b, points, orders = {**EVEN_PROBLEMS, **UNEXTENDED_PROBLEMS}[name]
        verdict = decide(ContactProblem(b=b, points=points, contact_orders=orders))
        n = sum(verdict.derivative_orders)
        if name in EVEN_PROBLEMS:
            extended = n + len(verdict.certificate.supplementary)
            assert sizes == [n, extended, extended]
        else:
            assert sizes == [n]


@pytest.mark.parametrize(
    "built, even",
    [((2,), (0,)), ((2, 1), (0,)), ((2, 3), (0, 1)), ((1, 2, 2), (1, 2)), ((3, 1, 2, 2), (0, 3))],
    ids=["one-point", "first-of-two", "both-of-two", "last-two-of-three", "ends-of-four"],
)
def test_corner_split_indexes_as_fancy_indexing_does(built, even):
    # The corners are the bottom rows of the even blocks; P is the rest.
    from blaschkepick.uniqueness import _corner_split

    n = sum(built)
    m = np.arange(n * n, dtype=float).reshape(n, n)
    corners, block, diagonal = _corner_split(built, even)
    want = [sum(built[: i + 1]) - 1 for i in even]
    rest = [j for j in range(n) if j not in want]
    assert corners.tolist() == want
    assert np.array_equal(m.take(block), m[np.ix_(rest, rest)])
    assert np.array_equal(m.take(diagonal), m[want, want])
    assert not any(array.flags.writeable for array in (corners, block, diagonal))


class TestEvidenceContradictions:
    def test_unique_path_rank_failure(self):
        problem = ContactProblem(b=make_blaschke([0.0]), points=(1.0,), contact_orders=(3,))
        with pytest.raises(RankMismatch):
            decide(problem, Tolerances(rank=1e30))

    def test_non_unique_path_pd_failure(self):
        problem = ContactProblem(b=make_blaschke([0.0]), points=(1.0,), contact_orders=(2,))
        with pytest.raises(RankMismatch):
            decide(problem, Tolerances(pd=1e30))

    def test_a_lowered_corner_is_refused_not_absorbed(self, monkeypatch):
        # The fault: the build lowers each corner's diagonal entry by
        # 3 max(1, |P~|_2), in the built matrix and the roundtrip rebuild
        # alike, so the extended matrix is no longer PSD.  The margin is at
        # most max(1, |P~|_2), and the completed matrix's PD check refuses;
        # a shift read from the Schur complement would absorb the drop.
        import blaschkepick.uniqueness as uniqueness_module
        from blaschkepick.schwarz_pick import _structured_flat

        b, points, orders, built = make_blaschke([0.3, -0.2j, 0.1 + 0.4j]), (1.0, -1.0), (2, 4), (2, 3)
        data = extract_data(b, points, [2 * k - 1 for k in built])
        p_tilde = sp_boundary_structured(data.values, points, built)
        corners = [p_tilde.row_index(i, k - 1) for i, k in enumerate(built)]
        drop = 3.0 * max(1.0, float(np.linalg.norm(p_tilde.flat, 2)))
        problem = ContactProblem(b=b, points=points, contact_orders=orders)
        assert decide(problem).certificate.extended_report.pd

        def lowered(jets, *geometry):
            flat = _structured_flat(jets, *geometry)
            flat[corners, corners] -= drop
            return flat

        monkeypatch.setattr(uniqueness_module, "_structured_flat", lowered)
        with pytest.raises(RankMismatch, match="^completed extension failed to be positive definite"):
            decide(problem)


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

    def test_the_first_missed_corner_is_reported_with_its_scalar_residual(self, monkeypatch):
        # Both corners are checked in one pass; the refusal names the first
        # that misses, with |miss| and its bound as abs() of the complex
        # entries reads them.  Here the first corner misses by 2e-17 of its
        # scale and the second by 1.5e-16, whose abs() differs from the
        # array np.abs in the last bit.
        import blaschkepick.uniqueness as uniqueness_module

        tol = 7e-17
        b, points, orders = make_blaschke([-0.66 - 0.35j, 0.44 - 0.32j, 0.09 - 0.28j]), (1.0, -1.0), (4, 2)
        cert = decide(ContactProblem(b=b, points=points, contact_orders=orders)).certificate
        data = extract_data(b, points, [5, 3])
        rows = [list(row) for row in data.values]
        for i, value in cert.supplementary:
            rows[i][2 * (orders[i] // 2) + 1] = value
        redone = sp_boundary_structured(rows, points, [3, 2]).flat
        completed = cert.completion.modified.flat
        residuals, bounds = [], []
        for j in cert.completion.complementary:
            residuals.append(abs(complex(redone[j, j] - completed[j, j])))
            bounds.append(tol * max(1.0, abs(complex(completed[j, j]))))
        assert residuals[0] <= bounds[0] and residuals[1] > bounds[1]
        monkeypatch.setattr(uniqueness_module, "SUPPLEMENTARY_RESIDUAL_TOL", tol)
        with pytest.raises(Inconclusive) as exc:
            decide(ContactProblem(b=b, points=points, contact_orders=orders))
        assert str(exc.value) == f"supplemented corner misses its target by {residuals[1]}, above {bounds[1]}"
        assert (exc.value.value, exc.value.limit) == (residuals[1], bounds[1])


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


def test_an_oversize_jet_gather_is_refused_before_the_plan(monkeypatch):
    # Ten points of contact order 578 at degree 3 gather 3 x 10 x 578^2
    # entries, above the limit, while the plan of orders 289, with 2,890^2
    # entries, is within it and would allocate its arrays first.
    import blaschkepick.uniqueness as uniqueness_module

    def refused(*args):
        raise AssertionError("decide must not plan an oversize problem")

    monkeypatch.setattr(uniqueness_module, "_structured_geometry", refused)
    points = tuple(cmath.exp(2j * math.pi * j / 10) for j in range(10))
    problem = ContactProblem(b=make_blaschke([0.1, 0.2j, -0.3]), points=points, contact_orders=(578,) * 10)
    with pytest.raises(ValueError, match=f"^the jet gather would hold {3 * 10 * 578**2} entries"):
        decide(problem)


@pytest.mark.parametrize(
    "call",
    [
        lambda order: ContactProblem(b=make_blaschke([0.5]), points=(1.0,), contact_orders=(order,)),
        lambda order: sp_boundary_structured(extract_data(make_blaschke([0.5]), [1.0], [5]).values, [1.0], [order]),
        lambda order: taylor_jet(make_blaschke([0.5]), 1.0, order),
        lambda order: psi_matrix(1.0, order),
        lambda order: corner_value([1.0] * 6, 1.0, order),
        lambda order: criterion([order], 1),
        lambda order: criterion([3], order),
        lambda order: derivative_orders([order]),
        lambda order: extract_data(make_blaschke([0.5]), [1.0], [order]),
        lambda order: admissible(extract_data(make_blaschke([0.5]), [1.0], [5]), [order]),
        lambda order: sp_boundary_radial(make_blaschke([0.5]), [1.0], [order]),
        lambda order: sp_via_realization(realize(make_blaschke([0.5])), [1.0], [order]),
        lambda order: resolvent_rows(realize(make_blaschke([0.5])), [1.0], [order]),
    ],
    ids=[
        "contact-problem",
        "structured",
        "taylor-jet",
        "psi-matrix",
        "corner-value",
        "criterion",
        "criterion-degree",
        "derivative-orders",
        "extract-data",
        "admissible",
        "radial",
        "via-realization",
        "resolvent-rows",
    ],
)
def test_orders_must_be_integral(call):
    for order in (2, np.int64(2)):
        call(order)
    for order in (2.5, 1.9, 2.0):
        with pytest.raises(TypeError):
            call(order)
