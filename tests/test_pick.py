"""Pick matrices from raw boundary data and corner algebra."""

import cmath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blaschkepick import (
    CoincidentPoints,
    InsufficientJet,
    JetData,
    SchwarzPickMatrix,
    admissible,
    corner_value,
    extract_data,
    make_blaschke,
    realize,
    sp_boundary_structured,
    sp_via_realization,
    taylor_jet,
)
from blaschkepick.schwarz_pick import _structured_flat, _structured_geometry
from helpers import random_blaschke, random_circle_points


class TestJetData:
    def test_point_off_circle_rejected(self):
        with pytest.raises(ValueError):
            JetData(points=(0.5,), values=((1.0,),))

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            JetData(points=(1.0, 1.0), values=((1.0,), (1.0,)))

    def test_empty_value_row_rejected(self):
        with pytest.raises(ValueError):
            JetData(points=(1.0,), values=((),))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JetData(points=(1.0,), values=((1.0,), (1.0,)))

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError):
            JetData(points=(1.0,), values=((complex("nan"),),))


class TestExtractAndBuild:
    def test_extract_reads_jets(self):
        b = make_blaschke([0.5])
        data = extract_data(b, [1.0, -1.0], [3, 1])
        assert data.points == (1.0, -1.0)
        assert len(data.values[0]) == 4
        assert len(data.values[1]) == 2
        assert_allclose(data.values[0], taylor_jet(b, 1.0, 3))

    def test_extract_rejects_negative_order(self):
        with pytest.raises(ValueError):
            extract_data(make_blaschke([0.5]), [1.0], [-1])

    def test_extract_of_no_points_is_empty(self):
        data = extract_data(make_blaschke([0.5]), [], [])
        assert data == JetData(points=(), values=())

    @pytest.mark.parametrize(
        ("points", "max_orders", "error"),
        [
            ([1.0, -1.0], [3], ValueError),
            ([1.0], [3, 1], ValueError),
            ([0.5], [1], ValueError),
            ([1.0, -1.0, 1.0], [1, 1, 1], CoincidentPoints),
            ([complex("nan")], [1], ValueError),
            ([complex(1.0, float("inf"))], [1], ValueError),
            ([1.0, -1.0], [1, -2], ValueError),
        ],
        ids=["fewer-orders", "fewer-points", "off-circle", "coincident", "nan-point", "inf-point", "negative-second"],
    )
    def test_extract_rejects_invalid_input(self, points, max_orders, error):
        with pytest.raises(error):
            extract_data(make_blaschke([0.5, -0.2j]), points, max_orders)

    def test_extract_rejects_overflowing_jet(self):
        # |1 - conj(a) t| = 2e-12 at t = 1: the coefficients grow like
        # (5e11)^j and overflow well before order 30.
        b = make_blaschke([1.0 - 2e-12])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            extract_data(b, [1.0, -1.0], [30, 1])

    def test_build_matches_realization_gram(self):
        rng = np.random.default_rng(41)
        b = random_blaschke(rng, 4)
        pts = random_circle_points(rng, 2)
        ks = (2, 1)
        data = extract_data(b, pts, [2 * k - 1 for k in ks])
        p = sp_boundary_structured(data.values, pts, ks)
        gram = sp_via_realization(realize(b), pts, ks)
        scale = max(1.0, float(np.max(np.abs(gram))))
        assert np.max(np.abs(p.flat - gram)) <= 1e-9 * scale

    def test_raw_data_matches_block_definition_in_mpmath(self):
        # Coefficients that are jets of no function: only the block
        # definition itself fixes the off-diagonal blocks.
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        rng = np.random.default_rng(42)
        ks = (3, 1, 2)
        pts = random_circle_points(rng, len(ks))
        values = [tuple(complex(*rng.normal(size=2)) for _ in range(2 * k)) for k in ks]
        p = sp_boundary_structured(values, pts, ks).flat

        t = [mp.mpc(z) for z in pts]
        c = [[mp.mpc(v) for v in row] for row in values]

        def block(i, j):
            if i == j:
                h = mp.matrix(ks[i], ks[i])
                for r in range(ks[i]):
                    for ell in range(ks[i]):
                        h[r, ell] = c[i][r + ell + 1]
            else:
                h = mp.matrix(ks[i], ks[j])
                dt = t[i] - t[j]
                for r in range(ks[i]):
                    for ell in range(ks[j]):
                        h[r, ell] = sum(
                            (-1) ** (r - a) * mp.binomial(ell + r - a, ell) * c[i][a] / dt ** (ell + r - a + 1)
                            for a in range(r + 1)
                        ) - sum(
                            (-1) ** r * mp.binomial(ell + r - b, r) * c[j][b] / dt ** (ell + r - b + 1)
                            for b in range(ell + 1)
                        )
            psi = mp.matrix(ks[j], ks[j])
            tstar = mp.matrix(ks[j], ks[j])
            for r in range(ks[j]):
                for ell in range(r, ks[j]):
                    psi[r, ell] = (-1) ** ell * mp.binomial(ell, r) * t[j] ** (ell + r + 1)
                    tstar[r, ell] = mp.conj(c[j][ell - r])
            return h * psi * tstar

        offsets = np.cumsum((0,) + ks)
        want = np.zeros_like(p)
        for i in range(len(ks)):
            for j in range(len(ks)):
                b = block(i, j)
                for r in range(ks[i]):
                    for ell in range(ks[j]):
                        want[offsets[i] + r, offsets[j] + ell] = complex(b[r, ell])
        assert np.max(np.abs(p - want)) <= 1e-12 * np.max(np.abs(want))

    def test_row_index_and_blocks(self):
        p = SchwarzPickMatrix(flat=np.arange(9.0).reshape(3, 3), points=(1.0, -1.0), orders=(2, 1))
        assert p.offsets == (0, 2)
        assert p.row_index(0, 1) == 1
        assert p.row_index(1, 0) == 2
        with pytest.raises(IndexError):
            p.row_index(1, 1)
        assert_allclose(p.flat[p.offsets[0] : p.offsets[0] + 2, p.offsets[1] : p.offsets[1] + 1], [[2.0], [5.0]])

    def test_truncated_matrix_is_principal_submatrix_of_extension(self):
        # Entry ((i, x), (j, y)) reads coefficients through index x + y + 1
        # only, so raising orders appends rows and columns and changes no
        # existing entry, on raw data that is the jet of no function.
        rng = np.random.default_rng(48)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            ks = tuple(int(k) for k in rng.integers(1, 6, size=n))
            extend = [i for i in range(n) if rng.uniform() < 0.5] or [int(rng.integers(0, n))]
            values = tuple(tuple(complex(*rng.normal(size=2)) for _ in range(2 * k + 2)) for k in ks)
            data = JetData(points=tuple(random_circle_points(rng, n)), values=values)
            p = sp_boundary_structured(data.values, data.points, ks).flat
            extended = sp_boundary_structured(data.values, data.points, [k + (i in extend) for i, k in enumerate(ks)])
            corners = {extended.row_index(i, ks[i]) for i in extend}
            keep = [j for j in range(extended.flat.shape[0]) if j not in corners]
            sub = extended.flat[np.ix_(keep, keep)]
            assert np.max(np.abs(sub - p)) <= 1e-14 * max(1.0, float(np.max(np.abs(p))))

    def test_coefficients_from_index_2k_on_are_never_read(self):
        # Row i of the jets is read below index 2 k_i only, so junk in every
        # column from there on, in the rows given to sp_boundary_structured
        # or in the (n, 2 max(ks)) jets given to _structured_flat, with no
        # zero column anywhere, leaves the matrix bit for bit as it was.
        rng = np.random.default_rng(50)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            ks = tuple(int(k) for k in rng.integers(1, 6, size=n))
            pts = tuple(random_circle_points(rng, n))
            values = [[complex(*rng.normal(size=2)) for _ in range(2 * k + int(rng.integers(1, 6)))] for k in ks]
            clean = sp_boundary_structured(values, pts, ks).flat
            width = 2 * max(ks)
            jets = np.empty((n, width), dtype=complex)
            for i, (row, k) in enumerate(zip(values, ks)):
                junk = rng.normal(size=(width, 2)) @ [1.0, 1j] * 10.0 ** rng.integers(-300, 300, size=width)
                row[2 * k :] = junk[: len(row) - 2 * k].tolist()
                jets[i, : 2 * k] = row[: 2 * k]
                jets[i, 2 * k :] = junk[: width - 2 * k]
            assert np.all(jets != 0.0)
            junk_rows = sp_boundary_structured(values, pts, ks).flat
            assert np.array_equal(junk_rows, clean)
            assert np.array_equal(_structured_flat(jets, *_structured_geometry(pts, ks)), clean)

    def test_top_coefficient_moves_its_corner_alone(self):
        # Replacing b_{2k+1} at an extended point moves the bottom diagonal
        # entry of its block by (-1)^k t^(2k+1) conj(b_0) times the change,
        # and no other entry of the extended matrix.
        rng = np.random.default_rng(49)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            ks = tuple(int(k) for k in rng.integers(1, 6, size=n))
            pts = tuple(random_circle_points(rng, n))
            values = [[complex(*rng.normal(size=2)) for _ in range(2 * k + 2)] for k in ks]
            i = int(rng.integers(0, n))
            raised = [k + (j == i) for j, k in enumerate(ks)]
            before = sp_boundary_structured(values, pts, raised)
            step = complex(*rng.normal(size=2))
            values[i][2 * ks[i] + 1] += step
            after = sp_boundary_structured(values, pts, raised)
            corner = before.row_index(i, ks[i])
            moved = after.flat - before.flat
            slope = (-1.0) ** ks[i] * pts[i] ** (2 * ks[i] + 1) * values[i][0].conjugate()
            scale = max(1.0, float(np.max(np.abs(before.flat))))
            assert abs(moved[corner, corner] - step * slope) <= 1e-14 * scale
            moved[corner, corner] = 0.0
            assert np.max(np.abs(moved)) <= 1e-14 * scale


class TestAdmissible:
    def test_genuine_data_is_admissible(self):
        rng = np.random.default_rng(42)
        b = random_blaschke(rng, 3)
        pts = random_circle_points(rng, 2)
        data = extract_data(b, pts, [3, 1])
        report = admissible(data, (2, 1))
        assert report
        assert report.modulus_ok and report.pick.psd
        assert all(d <= 1e-10 for d in report.modulus_defects)

    def test_submodular_leading_value_fails(self):
        data = JetData(points=(1.0,), values=((0.5, 1.0),))
        report = admissible(data, (1,))
        assert not report
        assert not report.modulus_ok

    def test_overflowing_matrix_is_refused(self):
        # b_1 conj(b_0) overflows, so the 1 x 1 matrix holds inf and NaN;
        # it must not read as a spectrum [inf] with defect NaN.
        data = JetData(points=(1.0,), values=((1e200, 1e200),))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            admissible(data, [1])

    def test_indefinite_data_fails_psd(self):
        data = JetData(points=(1.0,), values=((1.0, -1.0),))
        report = admissible(data, (1,))
        assert not report
        assert report.modulus_ok
        assert not report.pick.psd
        assert report.pick.lambda_min == pytest.approx(-1.0)


class TestCornerValue:
    def test_identity_map_corner_vanishes(self):
        # b(z) = z has coefficients (1, 1, 0, 0) at t = 1; nothing survives
        # in the extension row.
        assert corner_value([1.0, 1.0, 0.0, 0.0], 1.0, 1) == 0.0

    def test_matches_extended_diagonal_corner(self):
        rng = np.random.default_rng(43)
        b = random_blaschke(rng, 4)
        t = cmath.exp(0.6j)
        k = 2
        vals = taylor_jet(b, t, 2 * k + 1)
        corner = corner_value(vals, t, k)
        extended = sp_boundary_structured([vals], [t], (k + 1,))
        assert corner == pytest.approx(complex(extended.flat[k, k]), rel=1e-12)

    def test_affine_slope_in_top_coefficient(self):
        rng = np.random.default_rng(44)
        t = cmath.exp(1.9j)
        b0 = cmath.exp(-0.3j)
        for k in (0, 1, 2):
            vals = [b0] + list(rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k))
            g0 = corner_value(vals + [0.0], t, k)
            g1 = corner_value(vals + [1.0], t, k)
            want = (-1.0) ** k * t ** (2 * k + 1) * b0.conjugate()
            assert g1 - g0 == pytest.approx(want, rel=1e-12)

    def test_too_few_values_rejected(self):
        with pytest.raises(InsufficientJet):
            corner_value([1.0, 1.0], 1.0, 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            corner_value([1.0, 1.0], 1.0, -1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("inf"))])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            corner_value([1.0, bad, 0.0, 0.0], 1.0, 1)

    @pytest.mark.parametrize("row", [[None, 1.0, 0.0, 0.0], [[1.0, 2.0], 1.0, 0.0, 0.0]], ids=["none", "nested"])
    @pytest.mark.parametrize(
        "read",
        [
            lambda row: corner_value(row, 1.0, 1),
            lambda row: sp_boundary_structured([row], [1.0], [1]),
            lambda row: JetData(points=(1.0,), values=(tuple(row),)),
        ],
        ids=["corner_value", "sp_boundary_structured", "JetData"],
    )
    def test_non_numeric_value_is_a_type_error(self, read, row):
        with pytest.raises(TypeError):
            read(row)
