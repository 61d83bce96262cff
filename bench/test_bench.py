"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import blaschkepick as bp  # noqa: E402
from checks import check_analyze_report, check_routes, check_verdict  # noqa: E402
from inputs import digest, from_problem_file, make_pool, to_problem_file  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    MIN_PASSES,
    MIX,
    WORKLOADS,
    call_decide,
    cli_pass,
    pass_count,
    per_layer_spec,
    turned,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generator_is_deterministic():
    a = make_pool("decide-mix", 3, MIX, 50)
    b = make_pool("decide-mix", 3, MIX, 50)
    assert a == b
    assert digest(a) == digest(b)
    assert digest(a) != digest(make_pool("decide-mix", 4, MIX, 50))
    assert digest(a) != digest(make_pool("crosscheck-radial", 3, MIX, 50))


def test_generator_respects_regime():
    for p in make_pool("decide-mix", 0, MIX, 200):
        assert MIX.degree_min <= len(p["zeros"]) <= MIX.degree_max
        assert all(abs(a) < 0.75 for a in p["zeros"])
        assert 1 <= len(p["points"]) <= MIX.points_max
        assert all(abs(abs(t) - 1.0) < 1e-15 for t in p["points"])
        assert all(1 <= m <= MIX.order_max for m in p["orders"])


def test_problem_file_roundtrip():
    p = make_pool("cli-analyze", 1, MIX, 1)[0]
    q = from_problem_file(json.loads(json.dumps(to_problem_file(p))))
    assert q["orders"] == p["orders"]
    assert max(abs(x - y) for x, y in zip(q["points"] + q["zeros"], p["points"] + p["zeros"])) < 1e-15


def test_cli_pass_is_deterministic():
    assert cli_pass(5)[1] == cli_pass(5)[1] != cli_pass(6)[1]


def test_turned_problem_keeps_the_verdict():
    problem = make_pool("decide-mix", 2, MIX, 1)[0]
    assert turned(problem, 0, 0) is problem
    other = turned(problem, 3, 7)
    assert other["orders"] == problem["orders"]
    assert [abs(a) for a in other["zeros"]] == pytest.approx([abs(a) for a in problem["zeros"]])
    assert all(abs(abs(t) - 1.0) < 1e-15 for t in other["points"])
    assert other["points"] != problem["points"]
    assert call_decide(other).unique == call_decide(problem).unique


def test_runs_repeat_the_same_operations():
    workload = WORKLOADS["decide-mix"]
    pool = make_pool("decide-mix", 1, MIX, 5)
    a, b = workload.loop(pool, 2), workload.loop(pool, 2)
    assert a.attempted == b.attempted == 10
    assert [(op.key, op.outcome) for op in a.ops] == [(op.key, op.outcome) for op in b.ops]
    assert pass_count(30, 1.2) == pass_count(30.0, 1.2) >= MIN_PASSES
    assert pass_count(1, 100.0) == MIN_PASSES


UNIQUE = {"zeros": [0.0], "u": 1.0, "points": [1.0], "orders": [3]}
NON_UNIQUE = {"zeros": [0.0], "u": 1.0, "points": [1.0], "orders": [2]}


@pytest.mark.parametrize("problem", [UNIQUE, NON_UNIQUE])
def test_checker_accepts_program_output(problem):
    assert check_verdict(problem, call_decide(problem)) is None


@pytest.mark.parametrize("problem", [UNIQUE, NON_UNIQUE])
def test_checker_rejects_tampered_verdict(problem):
    verdict = call_decide(problem)
    assert check_verdict(problem, dataclasses.replace(verdict, unique=not verdict.unique)) is not None


def test_checker_rejects_tampered_rank():
    verdict = call_decide(UNIQUE)
    cert = dataclasses.replace(verdict.certificate, rank=verdict.certificate.rank + 1)
    assert check_verdict(UNIQUE, dataclasses.replace(verdict, certificate=cert)) == "rank"


def test_checker_rejects_tampered_roundtrip():
    verdict = call_decide(NON_UNIQUE)
    cert = dataclasses.replace(verdict.certificate, roundtrip_residual=1e-3)
    assert check_verdict(NON_UNIQUE, dataclasses.replace(verdict, certificate=cert)) == "roundtrip"


def test_checker_rejects_tampered_cli_report():
    report = {"verdict": "non-unique", "certificate": {"rank": 1}}
    assert check_analyze_report(UNIQUE, report) == "verdict"
    report = {"verdict": "unique", "certificate": {"rank": 0}}
    assert check_analyze_report(UNIQUE, report) == "rank"


def test_route_check():
    s = [[2.0, 1.0j], [-1.0j, 1.0]]
    problem = {"orders": [1, 1]}
    assert check_routes(problem, s, s, True) is None
    assert check_routes(problem, s, [[2.0, 1.0j], [-1.0j, 1.1]], True) == "route_residual"
    assert check_routes(problem, s, s, False) == "radial_unconverged"
    assert check_routes({"orders": [3, 1]}, s, s, False) is None


def test_tracer_counts_nested_calls_and_restores():
    original = bp.hermitian.eigen_h
    tracer = Tracer()
    tracer.install()
    try:
        assert bp.hermitian.eigen_h is not original
        call_decide(NON_UNIQUE)
    finally:
        tracer.uninstall()
    assert bp.hermitian.eigen_h is original
    m = layer_metrics(tracer.state(), 1)
    assert m["uniqueness.decide.calls"][0] == 1
    assert m["hermitian.eigen_h.calls"][0] >= 2  # reached through make_report as well
    assert m["hermitian.eigen_h.calls_per_decide"][0] == m["hermitian.eigen_h.calls"][0]
    assert all(v >= 0 for v, _ in m.values())


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_spec()


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_every_workload_records_why():
    for w in SPEC["workloads"]:
        assert w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200
        assert w["why"] == WORKLOADS[w["name"]].why
