"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line with its measured margin, so a full run reads
as a short report.  The 200-instance random suite is generated once, with
the structured boundary matrix of every instance, and shared by the first
three criteria; its construction time counts toward the first criterion's
budget.
"""

import cmath
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blaschkepick import (
    ContactProblem,
    NonUniqueCertificate,
    check_minimality,
    decide,
    extract_data,
    level_set,
    make_blaschke,
    make_report,
    realize,
    resolvent_rows,
    sp_boundary_radial,
    sp_boundary_structured,
    sp_via_realization,
    taylor_jet,
    unitarity_defect,
)
from helpers import random_blaschke, random_circle_points

SUITE_SEED = 20260822
SUITE_SIZE = 200


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(SUITE_SEED)
    start = time.perf_counter()
    instances = []
    for _ in range(SUITE_SIZE):
        d = int(rng.integers(0, 7))
        n = int(rng.integers(1, 4))
        b = random_blaschke(rng, d)
        pts = random_circle_points(rng, n)
        ks = [int(rng.integers(1, 4)) for _ in range(n)]
        jets = [taylor_jet(b, t, 2 * k - 1) for t, k in zip(pts, ks)]
        structured = sp_boundary_structured(jets, pts, ks)
        instances.append({"b": b, "points": pts, "orders": ks, "structured": structured.flat})
    build_time = time.perf_counter() - start
    return {"instances": instances, "build_time": build_time}


def test_criterion_1_rank_law(suite, capsys):
    start = time.perf_counter()
    failures = 0
    for inst in suite["instances"]:
        expected = min(sum(inst["orders"]), inst["b"].degree)
        report = make_report(inst["structured"], rank_tol=1e-8, strict=False)
        if report.numerical_rank != expected:
            failures += 1
    elapsed = suite["build_time"] + (time.perf_counter() - start)
    assert failures == 0
    assert elapsed < 10.0
    with capsys.disabled():
        print(
            f"\nPASS criterion 1: rank min(sum k, d) on {SUITE_SIZE} random instances, "
            f"0 failures, {elapsed:.2f}s"
        )


def test_criterion_2_route_agreement(suite, capsys):
    worst_gram = 0.0
    worst_radial = 0.0
    radial_cases = 0
    for inst in suite["instances"]:
        structured = inst["structured"]
        gram = sp_via_realization(realize(inst["b"]), inst["points"], inst["orders"])
        if structured.size:
            worst_gram = max(worst_gram, float(np.max(np.abs(structured - gram))))
        if all(k <= 2 for k in inst["orders"]):
            radial_cases += 1
            est, _ = sp_boundary_radial(inst["b"], inst["points"], inst["orders"])
            scale = max(1.0, float(np.max(np.abs(structured))))
            gap = float(np.max(np.abs(est.flat - structured))) / scale
            worst_radial = max(worst_radial, gap)
    assert worst_gram <= 1e-8
    assert radial_cases >= 20
    assert worst_radial <= 1e-3
    with capsys.disabled():
        print(
            f"PASS criterion 2: structured vs realization worst {worst_gram:.2e} (limit 1e-8); "
            f"radial contour worst {worst_radial:.2e} relative over {radial_cases} "
            f"order<=2 instances (limit 1e-3)"
        )


def test_criterion_3_hermitian(suite, capsys):
    worst = 0.0
    for inst in suite["instances"]:
        p = inst["structured"]
        scale = max(1.0, float(np.max(np.abs(p))))
        defect = float(np.max(np.abs(p - p.conj().T))) / scale
        worst = max(worst, defect)
    assert worst <= 1e-9
    with capsys.disabled():
        print(
            f"PASS criterion 3: hermitian defect worst {worst:.2e} relative "
            f"(limit 1e-9) on {SUITE_SIZE} instances"
        )


def test_criterion_4_identity_map_third_order(capsys):
    problem = ContactProblem(b=make_blaschke([0.0]), points=(1.0,), contact_orders=(3,))
    start = time.perf_counter()
    verdict = decide(problem)
    elapsed = time.perf_counter() - start
    assert verdict.unique
    assert verdict.pick.matrix.shape == (2, 2)
    assert verdict.pick.psd and not verdict.pick.pd
    assert verdict.certificate.rank == 1
    assert_allclose(verdict.pick.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert elapsed < 0.1
    with capsys.disabled():
        print(
            f"PASS criterion 4: b(z) = z with third-order contact at 1 is unique, "
            f"2x2 singular PSD of rank 1, {elapsed * 1e3:.1f}ms"
        )


def test_criterion_5_level_set_contact(capsys):
    rng = np.random.default_rng(SUITE_SEED + 5)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        b = random_blaschke(rng, d)
        tau = cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi))
        pts = level_set(b, tau)
        orders = (3,) + (1,) * (d - 1)
        problem = ContactProblem(b=b, points=tuple(pts), contact_orders=orders)
        verdict = decide(problem)
        assert verdict.unique
    with capsys.disabled():
        print(
            "PASS criterion 5: 20 random level-set problems with orders (3, 1, ..., 1) "
            "all unique"
        )


def test_criterion_6_non_unique_certificates(suite, capsys):
    rng = np.random.default_rng(SUITE_SEED + 6)
    worst_roundtrip = 0.0
    done = 0
    while done < 50:
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        ks = [int(rng.integers(1, 3)) for _ in range(n)]
        if sum(ks) > d:
            continue
        # Radius 0.5 and derivative orders up to 2 keep the boundary jet
        # coefficients (which grow like (1 - radius)^-j with j up to 2k + 1)
        # small enough that the absolute roundtrip bound below is meaningful
        # rather than rounding-dominated, and keep the truncated matrix
        # comfortably clear of the positivity cutoff when sum(ks) == d.
        b = random_blaschke(rng, d, radius=0.5)
        pts = random_circle_points(rng, n)
        # Contact order 2k - 1 gives derivative order k and an odd point;
        # 2k gives the same k at an even point.  Mix both parities.
        ms = [2 * k - int(rng.integers(0, 2)) for k in ks]
        problem = ContactProblem(b=b, points=tuple(pts), contact_orders=tuple(ms))
        verdict = decide(problem)
        assert not verdict.unique
        assert verdict.pick.lambda_min > 1e-10 * verdict.pick.lambda_max
        cert = verdict.certificate
        assert isinstance(cert, NonUniqueCertificate)
        assert cert.extended_report.pd

        # Rebuild the extension from the certificate's own numbers and
        # compare against the completed matrix it claims to realize.
        data = extract_data(b, pts, [2 * k + 1 for k in ks])
        rows = [list(r) for r in data.values]
        for i, value in cert.supplementary:
            rows[i][2 * ks[i] + 1] = value
        even = [i for i, _ in cert.supplementary]
        redone = sp_boundary_structured(rows, pts, [k + (i in even) for i, k in enumerate(ks)])
        gap = float(np.max(np.abs(redone.flat - cert.completion.modified.flat)))
        worst_roundtrip = max(worst_roundtrip, gap)
        assert gap <= 1e-9
        done += 1
    with capsys.disabled():
        print(
            f"PASS criterion 6: 50 non-unique certificates, PD truncated and extended "
            f"matrices, worst independent roundtrip {worst_roundtrip:.2e} (limit 1e-9)"
        )


def test_criterion_7_first_order_boundary_value(capsys):
    rng = np.random.default_rng(SUITE_SEED + 7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(0, 7))
        b = random_blaschke(rng, d)
        t = random_circle_points(rng, 1)[0]
        jet = taylor_jet(b, t, 1)
        value = sp_boundary_structured([jet], [t], [1]).flat[0, 0]
        closed = sum((1.0 - abs(a) ** 2) / abs(t - a) ** 2 for a in b.zeros)
        worst = max(worst, abs(value - closed))
    assert worst <= 1e-10
    with capsys.disabled():
        print(
            f"PASS criterion 7: 1x1 boundary value vs derivative-sum closed form, "
            f"worst {worst:.2e} over 100 instances (limit 1e-10)"
        )


def test_criterion_8_completion_worked_example(capsys):
    # b(z) = (z - 0.5) / (1 - 0.5 z) with second-order contact at t = 1:
    # P = [3] is PD and P~ = [[3, 3], [3, 3]] is PSD and singular, so the
    # margin max(1, lambda_max(P~)) = 6 on the corner completes it.
    verdict = decide(ContactProblem(b=make_blaschke([0.5]), points=(1.0,), contact_orders=(2,)))
    completion = verdict.certificate.completion
    assert not verdict.unique
    assert_allclose(verdict.pick.matrix, [[3.0]], atol=1e-12)
    assert completion.complementary == (1,)
    assert completion.shift == pytest.approx(6.0, abs=1e-12)
    assert_allclose(completion.modified.flat, [[3.0, 3.0], [3.0, 9.0]], atol=1e-12)
    assert completion.report.pd
    assert np.linalg.det(completion.modified.flat) == pytest.approx(18.0, abs=1e-12)
    with capsys.disabled():
        print(
            "PASS criterion 8: P~ = [[3, 3], [3, 3]] of b = (z - 0.5) / (1 - 0.5 z) at t = 1 completes "
            "over its corner to [[3, 3], [3, 9]] with shift = margin = 6, PD, det 18"
        )


def test_criterion_9_realization_quality(capsys):
    rng = np.random.default_rng(SUITE_SEED + 9)
    worst_defect = 0.0
    for _ in range(100):
        d = int(rng.integers(0, 11))
        b = random_blaschke(rng, d)
        r = realize(b)
        worst_defect = max(worst_defect, unitarity_defect(r))
        s = np.linalg.svd(resolvent_rows(r, [0.0], [d]), compute_uv=False) if d else np.array([])
        rank = int(np.count_nonzero(s > 1e-8 * max(1.0, float(s[0])))) if d else 0
        assert rank == d
        assert check_minimality(r)
    assert worst_defect <= 1e-12
    with capsys.disabled():
        print(
            f"PASS criterion 9: 100 realizations (degree <= 10), worst unitarity defect "
            f"{worst_defect:.2e} (limit 1e-12), observability rank always the degree"
        )
