"""Per-operation correctness checks.

Each check returns None when the output is right and a short failure tag
otherwise.  The limits are the package's own acceptance limits; where an
absolute limit would depend on the matrix scale it is made relative to
max(1, largest entry).
"""

from __future__ import annotations

import blaschkepick as bp
import numpy as np

ROUTE_RESIDUAL_LIMIT = 1e-8  # structured vs realization, relative to 1 + norm
HERMITIAN_DEFECT_LIMIT = 1e-9  # relative to max(1, norm)
ROUNDTRIP_LIMIT = 1e-9  # relative to max(1, largest completed entry)
RADIAL_MAX_CONVERGENT_ORDER = 2  # sp_boundary_radial promises convergence for k <= 2


def expected_unique(contact_orders, degree: int) -> bool:
    """The sharp counting criterion: sum of floor((m + 1) / 2) > degree."""
    return sum((int(m) + 1) // 2 for m in contact_orders) > degree


def _max_abs(m) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def check_decision(
    problem: dict, unique: bool, rank=None, extended_pd=None, roundtrip=None, completed=()
) -> str | None:
    """Shared verdict check for the library `Verdict` and the CLI report."""
    degree = len(problem["zeros"])
    if unique != expected_unique(problem["orders"], degree):
        return "verdict"
    if unique:
        return None if rank == degree else "rank"
    if extended_pd is not True:
        return "extended_pd"
    if not isinstance(roundtrip, float) or not roundtrip <= ROUNDTRIP_LIMIT * max(1.0, _max_abs(completed)):
        return "roundtrip"
    return None


def check_verdict(problem: dict, verdict) -> str | None:
    cert = verdict.certificate
    if verdict.unique:
        if not isinstance(cert, bp.UniqueCertificate):
            return "certificate"
        return check_decision(problem, True, rank=cert.rank)
    if not isinstance(cert, bp.NonUniqueCertificate):
        return "certificate"
    return check_decision(
        problem,
        False,
        extended_pd=cert.extended_report.pd,
        roundtrip=cert.roundtrip_residual,
        completed=cert.completion.modified.flat,
    )


def check_routes(problem: dict, structured, realization, radial_converged: bool) -> str | None:
    """Structured vs realization agreement, Hermitian defect, radial convergence."""
    s = np.asarray(structured)
    norm = _max_abs(s)
    if not _max_abs(s - np.asarray(realization)) <= ROUTE_RESIDUAL_LIMIT * (1.0 + norm):
        return "route_residual"
    if not _max_abs(s - s.conj().T) <= HERMITIAN_DEFECT_LIMIT * max(1.0, norm):
        return "hermitian"
    if max(problem["orders"]) <= RADIAL_MAX_CONVERGENT_ORDER and not radial_converged:
        return "radial_unconverged"
    return None


def _matrix(rows) -> np.ndarray:
    """A CLI report matrix of [re, im] pairs."""
    if not rows:
        return np.zeros((0, 0), dtype=complex)
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def check_analyze_report(problem: dict, report: dict) -> str | None:
    verdict = report.get("verdict")
    if verdict not in ("unique", "non-unique"):
        return "verdict"
    cert = report.get("certificate", {})
    if verdict == "unique":
        return check_decision(problem, True, rank=cert.get("rank"))
    ext = cert.get("extended", {})
    return check_decision(
        problem,
        False,
        extended_pd=ext.get("pd"),
        roundtrip=cert.get("roundtrip_residual"),
        completed=_matrix(ext.get("matrix", [])),
    )


def check_crosscheck_report(problem: dict, report: dict) -> str | None:
    return check_routes(
        problem,
        _matrix(report["structured"]),
        _matrix(report["realization"]),
        report["radial_converged"],
    )
