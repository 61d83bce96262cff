"""Command line interface: analyze, crosscheck, fuzz.

Problem files are JSON objects of the form

    {
      "blaschke": {"zeros": [[re, im], ...], "u": [re, im]},
      "points":   [[re, im], {"angle": 1.5707963}, ...],
      "orders":   [3, 1],
      "tolerances": {"rank": 1e-8, "pd": 1e-10}
    }

`analyze` reads `orders` as contact orders m_i; `crosscheck` reads them as
derivative orders k_i.  Reports carry a top-level "schema": 2 and encode
complex numbers as [re, im] pairs.  Exit codes: 0 success, 2 validation
error, 3 rank mismatch, 4 cross-route residual breach, 5 fuzz
counterexample found, 6 inconclusive.  Commands raise their refusals, and
:func:`main` alone turns each into its exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from ._pcg64 import PCG64Stream
from .blaschke import BlaschkeProduct, _finite_jets, _require_jet_gather, _require_layout, make_blaschke
from .errors import BlaschkePickError, Inconclusive, RankMismatch
from .hermitian import HERMITIAN_DEFECT_TOL, HermitianReport, make_report
from .pick import ADMISSIBLE_TOL
from .realization import realize, sp_via_realization
from .schwarz_pick import CONTOUR_NODES, SchwarzPickMatrix, _structured_flat, _structured_geometry, sp_boundary_radial
from .uniqueness import (
    ContactProblem,
    NonUniqueCertificate,
    Tolerances,
    UniqueCertificate,
    Verdict,
    decide,
    derivative_orders,
)

ROUTE_RESIDUAL_LIMIT = 1e-8
POINT_MODULUS_SLACK = 1e-6
SCHEMA = 2
# Fuzz points are redrawn until they sit FUZZ_SPACING radians apart.  The
# acceptance rate collapses with the point count: a draw takes over a tenth
# of a second from 11 points and never ends from 18 (18 * 0.35 > 2 pi).
FUZZ_SPACING = 0.35
FUZZ_POINTS_MAX = 10
# The jets of a draw hold a Toeplitz gather of degree x points x (2 order)^2
# complex entries.  The worst draw at all three bounds, degree 100 and ten
# points of order 32, checks in 0.11-0.15 s and peaks at 94 MB (five runs,
# 2-vCPU x86-64 host, numpy 2.4).
FUZZ_DEGREE_MAX = 100
FUZZ_ORDER_MAX = 32

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RANK_MISMATCH = 3
EXIT_RESIDUAL = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_INCONCLUSIVE = 6


class ProblemFileError(Exception):
    """Problem file is missing, malformed, or semantically invalid."""


# ---------------------------------------------------------------- parsing


def _real(value, where: str) -> float:
    """A finite JSON number; booleans and strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ProblemFileError(f"{where}: expected a finite number, got {json.dumps(value)}")
    return float(value)


def _pair(obj, where: str) -> complex:
    """A JSON [re, im] pair of finite numbers as a complex number."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise ProblemFileError(f"{where}: expected an [re, im] pair, got {json.dumps(obj)}")
    return complex(_real(obj[0], f"{where}[0]"), _real(obj[1], f"{where}[1]"))


def _parse_point(obj, where: str) -> complex:
    if isinstance(obj, dict):
        if set(obj.keys()) != {"angle"}:
            raise ProblemFileError(f"{where}: point objects must be {{\"angle\": radians}}")
        theta = _real(obj["angle"], f"{where}.angle")
        return complex(math.cos(theta), math.sin(theta))
    if isinstance(obj, list) and len(obj) == 2:
        t = _pair(obj, where)
        if abs(abs(t) - 1.0) > POINT_MODULUS_SLACK:
            raise ProblemFileError(f"{where}: |t| = {abs(t)} is not within {POINT_MODULUS_SLACK} of 1")
        return t / abs(t)
    raise ProblemFileError(f"{where}: points must be [re, im] or {{\"angle\": radians}}")


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProblemFileError("problem file must be a JSON object")
    for key in ("blaschke", "points", "orders"):
        if key not in obj:
            raise ProblemFileError(f"missing required key {key!r}")
    braw = obj["blaschke"]
    if not isinstance(braw, dict) or "zeros" not in braw or "u" not in braw:
        raise ProblemFileError("\"blaschke\" must contain \"zeros\" and \"u\"")
    if not isinstance(braw["zeros"], list):
        raise ProblemFileError("blaschke.zeros: expected a list of [re, im] pairs")
    zeros = [_pair(a, f"blaschke.zeros[{i}]") for i, a in enumerate(braw["zeros"])]
    b = make_blaschke(zeros, _pair(braw["u"], "blaschke.u"))
    raw_points = obj["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise ProblemFileError("\"points\" must be a nonempty list")
    points = [_parse_point(p, f"points[{i}]") for i, p in enumerate(raw_points)]
    raw_orders = obj["orders"]
    if not isinstance(raw_orders, list) or len(raw_orders) != len(points):
        raise ProblemFileError("\"orders\" must be a list matching \"points\" in length")
    for i, m in enumerate(raw_orders):
        if isinstance(m, bool) or not isinstance(m, int):
            raise ProblemFileError(f"orders[{i}]: expected an integer, got {json.dumps(m)}")
    tol = obj.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ProblemFileError("\"tolerances\" must be an object")
    for key in tol:
        if key not in ("rank", "pd"):
            raise ProblemFileError(f"tolerances: unknown key {json.dumps(key)}; expected \"rank\" or \"pd\"")
    tol = {
        key: _real(tol[key], f"tolerances.{key}")
        for key in ("rank", "pd")
        if tol.get(key) is not None
    }
    return b, points, raw_orders, tol


# ---------------------------------------------------------------- reports


def complex_to_pair(z: complex) -> list[float]:
    """A complex number as its JSON [re, im] pair."""
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> list[list[list[float]]]:
    """A matrix as row-major nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(entry) for entry in row] for row in m]


def _report_json(report: HermitianReport) -> dict:
    return {
        "matrix": matrix_to_json(report.matrix),
        "eigenvalues": [float(w) for w in report.eigenvalues],
        "numerical_rank": report.numerical_rank,
        "psd": report.psd,
        "pd": report.pd,
        "rank_tolerance": report.rank_tol,
        "pd_tolerance": report.pd_tol,
        "hermitian_defect": report.defect,
    }


def _certificate_json(verdict: Verdict) -> dict:
    cert = verdict.certificate
    if isinstance(cert, UniqueCertificate):
        return {
            "type": "singular_pick",
            "rank": cert.rank,
            "order_total": sum(verdict.derivative_orders),
            "degree": verdict.degree,
        }
    assert isinstance(cert, NonUniqueCertificate)
    comp = cert.completion
    even = [i for i, _ in cert.supplementary]
    return {
        "type": "completed_extension",
        "diagonal_shift": comp.shift,
        "margin": comp.margin,
        "complementary_indices": list(comp.complementary),
        "corner_values": [
            {"point_index": i, "value": complex_to_pair(comp.modified.flat[j, j])}
            for i, j in zip(even, comp.complementary)
        ],
        "supplementary_values": [
            {
                "point_index": i,
                "coefficient_index": 2 * verdict.derivative_orders[i] + 1,
                "value": complex_to_pair(v),
            }
            for i, v in cert.supplementary
        ],
        "partition": {
            "odd": [i for i in range(len(verdict.derivative_orders)) if i not in even],
            "even": even,
        },
        "roundtrip_residual": cert.roundtrip_residual,
        "extended": _report_json(cert.extended_report),
    }


def _compare_routes(
    b: BlaschkeProduct, points, ks
) -> tuple[np.ndarray, SchwarzPickMatrix, np.ndarray, float, float]:
    """The leading values w_0 of b at the points, the structured and
    realization matrices, their max-abs difference, and the largest
    structured entry, whose 1 + scales the difference (:func:`_residual`).

    The structured matrix is built as `decide` builds it: the jet gather's
    size rule, the structured geometry, then one jet evaluation of all
    points.  Points and orders get the layout check of every route, so a
    bad layout is refused with the type and message of
    :func:`sp_boundary_structured` and :func:`sp_boundary_radial`."""
    pts, ks = _require_layout(points, ks, "orders")
    _require_jet_gather(b, len(pts), 2 * max(ks) - 1)
    geometry = _structured_geometry(pts, ks)
    jets = _finite_jets(b, pts, 2 * max(ks) - 1)
    structured = SchwarzPickMatrix(flat=_structured_flat(jets, *geometry), points=pts, orders=ks)
    via_real = sp_via_realization(realize(b), pts, ks)
    diff = float(np.max(np.abs(structured.flat - via_real)))
    norm = float(np.max(np.abs(structured.flat)))
    return jets[:, 0], structured, via_real, diff, norm


def _residual(diff: float, norm: float) -> float:
    """The route residual: a max-abs difference relative to 1 + norm."""
    return diff / (1.0 + norm)


def _render_text(value, indent: int = 0, label: str | None = None) -> list[str]:
    pad = "  " * indent
    head = f"{pad}{label}: " if label is not None else pad
    if isinstance(value, dict):
        lines = [f"{pad}{label}:"] if label is not None else []
        for key, sub in value.items():
            lines.extend(_render_text(sub, indent + (1 if label is not None else 0), key))
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [head + json.dumps(value)]
        lines = [f"{pad}{label}:"] if label is not None else []
        for idx, sub in enumerate(value):
            lines.extend(_render_text(sub, indent + 1, f"[{idx}]"))
        return lines
    return [head + json.dumps(value)]


def _emit(report: dict, fmt: str) -> None:
    """Print the report.  A reader that has gone (as after `| head`) ends
    the output quietly: the rest goes to os.devnull, so that the flush at
    shutdown raises nothing, and the command keeps its exit code."""
    try:
        if fmt == "json":
            print(json.dumps(report, indent=2))
        else:
            print("\n".join(_render_text(report)))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------- commands


def cmd_analyze(args) -> int:
    b, points, orders, file_tol = _load_problem(args.problem)
    # The flags given override the file's tolerances; defaults fill the rest.
    flags = {"rank": args.tol_rank, "pd": args.tol_pd}
    tol = Tolerances(**{**file_tol, **{k: v for k, v in flags.items() if v is not None}})
    problem = ContactProblem(b=b, points=tuple(points), contact_orders=tuple(orders))
    # The routes first, so that a problem too large for them is refused before a verdict is computed.
    _, _, _, diff, norm = _compare_routes(b, problem.points, derivative_orders(problem.contact_orders))
    start = time.perf_counter()
    verdict = decide(problem, tol)
    elapsed = time.perf_counter() - start
    report = {
        "schema": SCHEMA,
        "command": "analyze",
        "verdict": verdict.tag,
        "contact_orders": list(problem.contact_orders),
        "derivative_orders": list(verdict.derivative_orders),
        "order_total": sum(verdict.derivative_orders),
        "degree": verdict.degree,
        "points": [complex_to_pair(t) for t in problem.points],
        "pick": _report_json(verdict.pick),
        "certificate": _certificate_json(verdict),
        "route_residuals": {"structured_vs_realization_max_abs": diff, "structured_vs_realization": _residual(diff, norm)},
        "wall_time_seconds": elapsed,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    b, points, orders, _ = _load_problem(args.problem)
    start = time.perf_counter()
    _, structured, via_real, diff_real, norm = _compare_routes(b, points, orders)
    residual = _residual(diff_real, norm)
    radial, diags = sp_boundary_radial(b, points, orders)
    elapsed = time.perf_counter() - start
    radial_gap = float(np.max(np.abs(structured.flat - radial.flat)))
    report = {
        "schema": SCHEMA,
        "command": "crosscheck",
        "degree": b.degree,
        "points": [complex_to_pair(t) for t in structured.points],
        "orders": list(structured.orders),
        "structured": matrix_to_json(structured.flat),
        "realization": matrix_to_json(via_real),
        "radial": matrix_to_json(radial.flat),
        "structured_vs_realization_max_abs": diff_real,
        "structured_vs_realization": residual,
        "residual_limit": ROUTE_RESIDUAL_LIMIT,
        "radial_gap_max_abs": radial_gap,
        "radial_contour_radius": diags.radius,
        "radial_nodes": CONTOUR_NODES,
        "radial_error_estimate": diags.estimate,
        "radial_converged": diags.converged,
        "wall_time_seconds": elapsed,
    }
    _emit(report, args.format)
    return EXIT_OK if residual <= ROUTE_RESIDUAL_LIMIT else EXIT_RESIDUAL


# ---------------------------------------------------------------- fuzzing


def _random_instance(rng: PCG64Stream, degree_max: int, points_max: int, order_max: int) -> dict:
    d = rng.integers(0, degree_max + 1)
    zeros = []
    for _ in range(d):
        radius = 0.75 * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        zeros.append(radius * complex(math.cos(theta), math.sin(theta)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    u = complex(math.cos(phi), math.sin(phi))
    n = rng.integers(1, points_max + 1)
    while True:
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
        # The gaps around the circle, the last one across the wrap.
        ahead = angles[1:] + [angles[0] + 2.0 * math.pi]
        if min(b - a for a, b in zip(angles, ahead)) >= FUZZ_SPACING:
            break
    points = [complex(math.cos(a), math.sin(a)) for a in angles]
    orders = [rng.integers(1, order_max + 1) for _ in range(n)]
    return {"zeros": zeros, "u": u, "points": points, "orders": orders}


def _check_instance(inst) -> tuple[str, str] | None:
    ks = inst["orders"]
    try:
        b = make_blaschke(inst["zeros"], inst["u"])
        leading, sp, _, diff, norm = _compare_routes(b, inst["points"], ks)
        structured = sp.flat
        # One report serves every property: the rank law reads the default
        # rank cutoff (also 1e-8), and admissibility the PSD test that
        # `admissible` makes on the same matrix at its default tolerance.
        report = make_report(structured, rank_tol=ADMISSIBLE_TOL, pd_tol=ADMISSIBLE_TOL, strict=False)
    except (BlaschkePickError, ValueError) as exc:
        # A drawn instance is valid, so a refusal is a finding, not a bad flag.
        return ("refused", f"{type(exc).__name__}: {exc}")

    if report.defect > HERMITIAN_DEFECT_TOL * max(1.0, norm):
        return ("hermitian", f"defect {report.defect} exceeds {HERMITIAN_DEFECT_TOL * max(1.0, norm)}")

    expected = min(sum(ks), b.degree)
    if report.numerical_rank != expected:
        # A spectrum can straddle any single cutoff when sum(ks) and the
        # degree collide, so call the law broken only when no cutoff in a
        # wide band reads the expected rank.
        certain = report.rank_at(1e-6)
        plausible = report.rank_at(1e-10)
        if not certain <= expected <= plausible:
            return (
                "rank_law",
                f"rank {report.numerical_rank}, expected {expected}, "
                f"bracket [{certain}, {plausible}]",
            )

    if _residual(diff, norm) > ROUTE_RESIDUAL_LIMIT:
        return (
            "route_agreement",
            f"max abs diff {diff} exceeds {ROUTE_RESIDUAL_LIMIT * (1.0 + norm)}",
        )

    modulus_ok = bool(np.all(np.abs(np.abs(leading) - 1.0) <= ADMISSIBLE_TOL))
    if not (modulus_ok and report.psd):
        return ("admissibility", f"modulus_ok={modulus_ok} psd_ok={report.psd}")
    return None


def _shrink_candidates(inst):
    n = len(inst["points"])
    if n > 1:
        for i in range(n):
            yield {
                "zeros": inst["zeros"],
                "u": inst["u"],
                "points": inst["points"][:i] + inst["points"][i + 1 :],
                "orders": inst["orders"][:i] + inst["orders"][i + 1 :],
            }
    for i in range(n):
        if inst["orders"][i] > 1:
            orders = list(inst["orders"])
            orders[i] -= 1
            yield {**inst, "orders": orders}
    for j in range(len(inst["zeros"])):
        yield {**inst, "zeros": inst["zeros"][:j] + inst["zeros"][j + 1 :]}


def _minimize(inst, failure):
    while True:
        for cand in _shrink_candidates(inst):
            cand_failure = _check_instance(cand)
            if cand_failure is not None:
                inst, failure = cand, cand_failure
                break
        else:
            return inst, failure


def _instance_json(inst) -> dict:
    return {
        "blaschke": {"zeros": [complex_to_pair(a) for a in inst["zeros"]], "u": complex_to_pair(inst["u"])},
        "points": [complex_to_pair(t) for t in inst["points"]],
        "orders": list(inst["orders"]),
    }


def cmd_fuzz(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if not 0 <= args.degree_max <= FUZZ_DEGREE_MAX:
        raise ValueError(f"--degree-max must be between 0 and {FUZZ_DEGREE_MAX}")
    if not 1 <= args.order_max <= FUZZ_ORDER_MAX:
        raise ValueError(f"--order-max must be between 1 and {FUZZ_ORDER_MAX}")
    if not 1 <= args.points_max <= FUZZ_POINTS_MAX:
        raise ValueError(f"--points-max must be between 1 and {FUZZ_POINTS_MAX}")
    if args.seed < 0:
        raise ValueError("--seed must be at least 0")
    rng = PCG64Stream(args.seed)
    start = time.perf_counter()
    for trial in range(args.trials):
        inst = _random_instance(rng, args.degree_max, args.points_max, args.order_max)
        failure = _check_instance(inst)
        if failure is not None:
            inst, failure = _minimize(inst, failure)
            code, outcome = EXIT_COUNTEREXAMPLE, {
                "trials_run": trial + 1,
                "property": failure[0],
                "detail": failure[1],
                "counterexample": _instance_json(inst),
            }
            break
    else:
        code, outcome = EXIT_OK, {
            "trials": args.trials,
            "failures": 0,
            "properties": ["hermitian", "rank_law", "route_agreement", "admissibility"],
        }
    head = {"schema": SCHEMA, "command": "fuzz", "seed": args.seed}
    _emit({**head, **outcome, "wall_time_seconds": time.perf_counter() - start}, args.format)
    return code


# ---------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text", help="report format")
    parser = argparse.ArgumentParser(
        prog="blaschkepick",
        description="Boundary Schwarz-Pick and Pick matrices for finite Blaschke products",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze",
        parents=[common],
        help="decide uniqueness of a boundary contact problem (orders are contact orders m)",
    )
    p_analyze.add_argument("problem", help="path to a JSON problem file")
    p_analyze.add_argument("--tol-rank", type=float, default=None, help="numerical rank cutoff")
    p_analyze.add_argument("--tol-pd", type=float, default=None, help="positive definiteness cutoff")
    p_analyze.set_defaults(func=cmd_analyze)

    p_cross = sub.add_parser(
        "crosscheck",
        parents=[common],
        help="compare the three boundary routes (orders are derivative orders k)",
    )
    p_cross.add_argument("problem", help="path to a JSON problem file")
    p_cross.set_defaults(func=cmd_crosscheck)

    p_fuzz = sub.add_parser(
        "fuzz", parents=[common], help="randomized self-checks of the matrix laws"
    )
    p_fuzz.add_argument("--trials", type=int, default=100, help="at least 1")
    p_fuzz.add_argument("--degree-max", type=int, default=6, help=f"0 to {FUZZ_DEGREE_MAX}")
    p_fuzz.add_argument("--points-max", type=int, default=3, help=f"1 to {FUZZ_POINTS_MAX}")
    p_fuzz.add_argument("--order-max", type=int, default=3, help=f"1 to {FUZZ_ORDER_MAX}")
    p_fuzz.add_argument("--seed", type=int, default=0, help="at least 0")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The one table of refusals, subclasses before their bases.  Any other
    # exception is a bug, and its traceback is the report.
    try:
        return args.func(args)
    except RankMismatch as exc:
        code, message = EXIT_RANK_MISMATCH, f"rank mismatch: {exc}"
    except Inconclusive as exc:
        code, message = EXIT_INCONCLUSIVE, f"inconclusive: {exc}"
    except (ProblemFileError, BlaschkePickError, ValueError) as exc:
        code, message = EXIT_VALIDATION, f"error: {exc}"
    print(message, file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())
