"""Command line interface: analyze, crosscheck, fuzz."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import blaschkepick.cli as cli
import blaschkepick.schwarz_pick as schwarz_pick
import blaschkepick.uniqueness as uniqueness
from blaschkepick import (
    BlaschkePickError,
    CoincidentPoints,
    ContactProblem,
    Inconclusive,
    JetData,
    RankMismatch,
    SingularResolvent,
    admissible,
    decide,
    extract_data,
    make_blaschke,
    realize,
    sp_boundary_radial,
    sp_boundary_structured,
    sp_via_realization,
)
from blaschkepick._pcg64 import PCG64Stream
from blaschkepick.blaschke import ARRAY_ENTRIES_MAX
from blaschkepick.cli import main
from helpers import CLUSTERED_PROBLEMS, random_blaschke, random_circle_points


def write_problem(tmp_path, name="problem.json", **overrides):
    obj = {
        "blaschke": {"zeros": [[0.0, 0.0]], "u": [1.0, 0.0]},
        "points": [[1.0, 0.0]],
        "orders": [3],
    }
    obj.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestAnalyze:
    def test_unique_verdict_json(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        assert main(["analyze", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 3
        assert report["command"] == "analyze"
        assert report["verdict"] == "unique"
        assert report["derivative_orders"] == [2]
        assert report["degree"] == 1
        assert report["certificate"]["type"] == "singular_pick"
        assert report["certificate"]["rank"] == 1
        assert report["order_total"] == report["certificate"]["order_total"] == 2
        assert report["pick"]["numerical_rank"] == 1
        assert report["route_residuals"]["structured_vs_realization"] <= 1e-10

    def test_non_unique_verdict_json(self, tmp_path, capsys):
        path = write_problem(tmp_path, orders=[2])
        assert main(["analyze", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "non-unique"
        cert = report["certificate"]
        assert cert["type"] == "completed_extension"
        assert cert["diagonal_shift"] == pytest.approx(1.0)
        assert "margin" not in cert
        assert cert["supplementary_values"][0]["coefficient_index"] == 3
        assert cert["supplementary_values"][0]["value"] == pytest.approx([-1.0, 0.0])
        assert cert["roundtrip_residual"] <= 1e-12
        assert cert["extended"]["pd"] is True

    def test_certificate_layout_matches_the_library(self, tmp_path, capsys):
        # Contact orders (2, 1, 4): points 0 and 2 are even and extended, so
        # the built orders are (2, 1, 3) and the corners sit at flat rows 1
        # and 5; point 1 is odd.
        zeros = [0.3, -0.2j, 0.1 + 0.4j, 0.5, -0.4]
        points, orders = [1.0, 1j, -1.0], [2, 1, 4]
        path = write_problem(
            tmp_path,
            blaschke={"zeros": [[complex(a).real, complex(a).imag] for a in zeros], "u": [1.0, 0.0]},
            points=[[complex(t).real, complex(t).imag] for t in points],
            orders=orders,
        )
        assert main(["analyze", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        problem = ContactProblem(b=make_blaschke(zeros), points=tuple(points), contact_orders=tuple(orders))
        verdict = decide(problem)
        cert = verdict.certificate
        completed = cert.completion.modified.flat
        assert not verdict.unique and report["verdict"] == "non-unique"
        assert report["order_total"] == sum(verdict.derivative_orders) == 4
        got = report["certificate"]
        assert got["complementary_indices"] == list(cert.completion.complementary) == [1, 5]
        assert got["corner_values"] == [
            {"point_index": 0, "value": [completed[1, 1].real, completed[1, 1].imag]},
            {"point_index": 2, "value": [completed[5, 5].real, completed[5, 5].imag]},
        ]
        assert [v["point_index"] for v in got["supplementary_values"]] == [i for i, _ in cert.supplementary] == [0, 2]
        assert [v["coefficient_index"] for v in got["supplementary_values"]] == [3, 5]
        assert got["partition"] == {"odd": [1], "even": [0, 2]}

    def test_text_format_default(self, tmp_path, capsys):
        path = write_problem(tmp_path)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "schema: 3"
        assert 'verdict: "unique"' in out

    def test_angle_form_points(self, tmp_path, capsys):
        path = write_problem(tmp_path, points=[{"angle": math.pi}], orders=[3])
        assert main(["analyze", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["points"][0][0] == pytest.approx(-1.0)
        assert report["points"][0][1] == pytest.approx(0.0, abs=1e-12)

    def test_rank_tolerance_from_file_forces_mismatch(self, tmp_path, capsys):
        path = write_problem(tmp_path, tolerances={"rank": 1e30})
        assert main(["analyze", path]) == 3
        assert "rank mismatch" in capsys.readouterr().err


class TestValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "nokey.json"
        path.write_text(json.dumps({"points": [[1.0, 0.0]], "orders": [1]}))
        assert main(["analyze", str(path)]) == 2
        assert "blaschke" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, message",
        [
            (None, "problem file must be a JSON object"),
            ({"blaschke": {"zeros": []}}, '"blaschke" must contain "zeros" and "u"'),
            ({"points": []}, '"points" must be a nonempty list'),
            ({"points": [{"angle": 0.0, "radius": 1.0}]}, 'points[0]: point objects must be {"angle": radians}'),
            ({"points": [[1.0, 0.0], 1.0], "orders": [1, 1]}, 'points[1]: points must be [re, im] or {"angle": radians}'),
            ({"tolerances": [1e-8]}, '"tolerances" must be an object'),
        ],
        ids=["array", "no-u", "no-points", "point-key", "point-kind", "tolerances"],
    )
    def test_a_malformed_field_is_named(self, tmp_path, capsys, fields, message):
        # fields replace those of a valid problem; None writes a top-level array.
        if fields is None:
            path = tmp_path / "array.json"
            path.write_text(json.dumps([[1.0, 0.0]]))
        else:
            path = write_problem(tmp_path, **fields)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    def test_zero_contact_order(self, tmp_path, capsys, command):
        # analyze reads contact orders, crosscheck derivative orders; the
        # library refuses either below one.
        message = {
            "analyze": "contact orders must be at least one, got 0",
            "crosscheck": "orders must be at least one, got 0",
        }[command]
        path = write_problem(tmp_path, orders=[0])
        assert main([command, path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_point_off_circle(self, tmp_path, capsys):
        path = write_problem(tmp_path, points=[[0.5, 0.0]])
        assert main(["analyze", path]) == 2
        assert "not within" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    @pytest.mark.parametrize("orders", [[2.7], [True], [3.0], ["3"]])
    def test_non_integer_orders(self, tmp_path, capsys, command, orders):
        path = write_problem(tmp_path, orders=orders)
        assert main([command, path]) == 2
        assert "orders[0]: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    @pytest.mark.parametrize(
        "point", [{"angle": "abc"}, {"angle": None}, {"angle": True}, ["x", 0], [1.0, None]]
    )
    def test_non_numeric_point(self, tmp_path, capsys, command, point):
        path = write_problem(tmp_path, points=[point], orders=[1])
        assert main([command, path]) == 2
        assert "expected a finite number" in capsys.readouterr().err

    def test_non_numeric_tolerance(self, tmp_path, capsys):
        path = write_problem(tmp_path, tolerances={"rank": "abc"})
        assert main(["analyze", path]) == 2
        assert "tolerances.rank" in capsys.readouterr().err

    def test_orders_length_mismatch(self, tmp_path, capsys):
        path = write_problem(tmp_path, orders=[1, 1])
        assert main(["analyze", path]) == 2
        capsys.readouterr()

    def test_invalid_blaschke_description(self, tmp_path, capsys):
        path = write_problem(tmp_path, blaschke={"zeros": [[2.0, 0.0]], "u": [1.0, 0.0]})
        assert main(["analyze", path]) == 2
        assert "zero (2+0j) has modulus 2.0, not strictly inside the disk" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    def test_boolean_blaschke_description(self, tmp_path, capsys, command):
        # Read as numbers this would be the valid product z.
        path = write_problem(tmp_path, blaschke={"zeros": [[False, 0.0]], "u": [True, False]}, orders=[1])
        assert main([command, path]) == 2
        assert "blaschke.zeros[0][0]: expected a finite number, got false" in capsys.readouterr().err

    def test_shallow_radial_depth(self, tmp_path, capsys):
        # The radial route has no schedule, so crosscheck takes no depth,
        # shallow or at the former default.
        path = write_problem(tmp_path, orders=[1])
        for depth in ("4", "20"):
            with pytest.raises(SystemExit) as exc:
                main(["crosscheck", path, "--radial-depth", depth])
            assert exc.value.code == 2
            assert "unrecognized arguments: --radial-depth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tol-rank", "nan"),
            ("--tol-rank", "-1"),
            ("--tol-rank", "inf"),
            ("--tol-pd", "-1"),
            ("--tol-pd", "nan"),
        ],
    )
    def test_invalid_tolerance_flag(self, tmp_path, capsys, flag, value):
        path = write_problem(tmp_path)
        assert main(["analyze", path, flag, value, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("tolerances", [{"rank": -1.0}, {"pd": -0.5}, {"pd": -1}])
    def test_invalid_tolerance_in_file(self, tmp_path, capsys, tolerances):
        path = write_problem(tmp_path, tolerances=tolerances)
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and nonnegative" in captured.err

    def test_unknown_tolerance_key_in_file(self, tmp_path, capsys):
        # A misspelled key would otherwise leave the default in force unnoticed.
        path = write_problem(tmp_path, tolerances={"rnak": 1e30})
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"rnak"' in captured.err

    def test_null_tolerance_means_default(self, tmp_path, capsys):
        path = write_problem(tmp_path, tolerances={"rank": None, "pd": None})
        assert main(["analyze", path, "--format", "json"]) == 0
        pick = json.loads(capsys.readouterr().out)["pick"]
        assert (pick["rank_tolerance"], pick["pd_tolerance"]) == (1e-8, 1e-10)

    @pytest.mark.parametrize("flag", ["--tol-rank", "--tol-pd"])
    def test_tolerance_flags_belong_to_analyze(self, tmp_path, capsys, flag):
        path = write_problem(tmp_path)
        assert main(["analyze", path, flag, "1e-8"]) == 0
        capsys.readouterr()
        for argv in (["crosscheck", path], ["fuzz", "--trials", "1"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "1e30"])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


class TestProblemFileProduct:
    """The product of a problem file: each zero and u an [re, im] pair of
    JSON numbers, read by the one pair reader of points and tolerances."""

    def test_written_instance_reads_back_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(19)
        zeros = [complex(z) for z in 0.9 * rng.random(5) * np.exp(2j * np.pi * rng.random(5))]
        u = complex(np.exp(2j * np.pi * rng.random()))
        inst = {"zeros": zeros, "u": u, "points": [1j], "orders": [2]}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(cli._instance_json(inst)))
        b, _, _, _ = cli._load_problem(str(path))
        assert repr(b.zeros) == repr(tuple(zeros))
        assert repr(b.unimodular_constant) == repr(u)

    def test_integer_parts_are_numbers(self, tmp_path):
        path = write_problem(tmp_path, blaschke={"zeros": [[0, 0]], "u": [0, 1]})
        b, _, _, _ = cli._load_problem(path)
        assert b == make_blaschke([0.0], 1j)

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    @pytest.mark.parametrize(
        "blaschke, field",
        [
            ({"zeros": [[True, 0.0]], "u": [1.0, 0.0]}, "blaschke.zeros[0][0]"),
            ({"zeros": [[0.5, "0.5"]], "u": [1.0, 0.0]}, "blaschke.zeros[0][1]"),
            ({"zeros": [[0.5, 0.0], [float("nan"), 0.0]], "u": [1.0, 0.0]}, "blaschke.zeros[1][0]"),
            ({"zeros": [], "u": [1.0, True]}, "blaschke.u[1]"),
            ({"zeros": [], "u": ["0.5", 0.0]}, "blaschke.u[0]"),
            ({"zeros": [], "u": [float("nan"), 0.0]}, "blaschke.u[0]"),
        ],
    )
    def test_a_part_that_is_not_a_finite_number_is_named(self, tmp_path, capsys, command, blaschke, field):
        path = write_problem(tmp_path, blaschke=blaschke, orders=[1])
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: expected a finite number, got ")

    @pytest.mark.parametrize(
        "blaschke, message",
        [
            ({"zeros": [[0.5]], "u": [1.0, 0.0]}, "blaschke.zeros[0]: expected an [re, im] pair, got [0.5]"),
            ({"zeros": [], "u": 1.0}, "blaschke.u: expected an [re, im] pair, got 1.0"),
            ({"zeros": {"a": 1}, "u": [1.0, 0.0]}, "blaschke.zeros: expected a list of [re, im] pairs"),
        ],
    )
    def test_a_malformed_pair_is_named(self, tmp_path, capsys, blaschke, message):
        path = write_problem(tmp_path, blaschke=blaschke, orders=[1])
        assert main(["analyze", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    def test_a_zero_outside_the_disk_is_refused(self, tmp_path, capsys, command):
        path = write_problem(tmp_path, blaschke={"zeros": [[0.0, 1.5]], "u": [1.0, 0.0]}, orders=[1])
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not strictly inside the disk" in captured.err


class TestRefusals:
    """main turns each refusal a command raises into its exit code and a
    prefixed line on stderr; nothing reaches stdout."""

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (cli.ProblemFileError("refused"), 2, "error: "),
            (ValueError("refused"), 2, "error: "),
            (CoincidentPoints("refused"), 2, "error: "),
            (RankMismatch("refused"), 3, "rank mismatch: "),
            (Inconclusive("refused", 2.0e-7, 1e-9), 6, "inconclusive: "),
        ],
        ids=["problem-file", "value", "library", "rank-mismatch", "inconclusive"],
    )
    def test_each_refusal_has_its_exit_code(self, tmp_path, capsys, monkeypatch, command, error, code, prefix):
        # Both commands compare the routes, analyze after `decide`.
        def refuse(*args):
            raise error

        monkeypatch.setattr(cli, "_compare_routes", refuse)
        assert main([command, write_problem(tmp_path), "--format", "json"]) == code
        assert capsys.readouterr() == ("", f"{prefix}refused\n")

    @pytest.mark.parametrize("command", ["analyze", "crosscheck", "fuzz"])
    def test_an_unexpected_exception_propagates(self, tmp_path, monkeypatch, command):
        # A TypeError is a bug, and its traceback is the report, also on a
        # fuzz instance.
        def broken(*args):
            raise TypeError("not a refusal")

        monkeypatch.setattr(cli, "_compare_routes", broken)
        argv = ["fuzz", "--trials", "3"] if command == "fuzz" else [command, write_problem(tmp_path)]
        with pytest.raises(TypeError, match="not a refusal"):
            main(argv)

    def test_a_missed_supplemented_corner_is_inconclusive(self, capsys, monkeypatch):
        # No corner can meet a negative bound: the build failed on valid
        # data, which is exit 6, not a validation error.
        monkeypatch.setattr(uniqueness, "SUPPLEMENTARY_RESIDUAL_TOL", -1.0)
        path = str(Path(__file__).resolve().parents[1] / "problems" / "nonunique.json")
        assert main(["analyze", path]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("inconclusive: supplemented corner misses its target by ")

    @pytest.mark.parametrize("zeros, angles, orders", CLUSTERED_PROBLEMS, ids=["two-points", "three-points"])
    def test_clustered_points_are_inconclusive(self, tmp_path, capsys, zeros, angles, orders):
        path = write_problem(
            tmp_path,
            blaschke={"zeros": [[a.real, a.imag] for a in zeros], "u": [1.0, 0.0]},
            points=[{"angle": a} for a in angles],
            orders=orders,
        )
        assert main(["analyze", path, "--format", "json"]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("inconclusive: the Pick matrix is not Hermitian") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "zero, points, analyze_orders, crosscheck_orders",
        [
            (0.5, [{"angle": 0.3}, {"angle": 0.31}], [160, 160], [160, 160]),
            (1.0 - 2e-12, [[1.0, 0.0]], [30], [15]),
        ],
        ids=["close-points", "overflowed-jet"],
    )
    def test_an_overflowed_build_is_inconclusive(
        self, tmp_path, capsys, monkeypatch, zero, points, analyze_orders, crosscheck_orders
    ):
        # Points 0.01 rad apart at contact orders 160 overflow the structured
        # matrix that decide and the route comparison share, and so do jets
        # through index 29 at 2e-12 from a pole, which the build reads: a
        # valid problem, so both commands exit 6, not 2, before the
        # realization is built.
        monkeypatch.setattr(cli, "realize", None)
        for command, orders in (("analyze", analyze_orders), ("crosscheck", crosscheck_orders)):
            path = write_problem(
                tmp_path, blaschke={"zeros": [[zero, 0.0]], "u": [1.0, 0.0]}, points=points, orders=orders
            )
            assert main([command, path]) == 6
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                "inconclusive: the structured matrix has a non-finite entry, "
                "so it cannot back a verdict or a route comparison\n"
            )

    def test_an_overflowed_jet_no_row_reads_is_decided(self, tmp_path, capsys):
        # At t = 1 the build reads w_0 and w_1 only, so the jets that
        # overflow there, evaluated for t = -1 at contact order 30, refuse
        # nothing.
        path = write_problem(
            tmp_path,
            blaschke={"zeros": [[1.0 - 2e-12, 0.0]], "u": [1.0, 0.0]},
            points=[[1.0, 0.0], [-1.0, 0.0]],
            orders=[2, 30],
        )
        assert main(["analyze", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "unique" and report["pick"]["numerical_rank"] == 1

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    def test_a_huge_order_is_refused_before_any_allocation(self, tmp_path, capsys, command):
        path = write_problem(tmp_path, orders=[1000000])
        start = time.perf_counter()
        assert main([command, path]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        # The jet gather's size rule is read before the shape plan is built.
        assert captured.err.startswith("error: the jet gather would hold ")
        assert captured.err.endswith(f" entries, above the limit of {ARRAY_ENTRIES_MAX}\n")

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    def test_forty_thousand_zeros_are_refused_at_the_realization(self, tmp_path, capsys, command):
        zeros = [[0.5 * math.cos(0.001 * j), 0.5 * math.sin(0.001 * j)] for j in range(40000)]
        path = write_problem(tmp_path, blaschke={"zeros": zeros, "u": [1.0, 0.0]}, orders=[1])
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the realization's run products would hold {40002**2} entries, "
            f"above the limit of {ARRAY_ENTRIES_MAX}\n"
        )

    @pytest.mark.parametrize("order, code", [(1030, 6), (1031, 2), (1100, 2)])
    def test_contact_orders_stop_where_the_binomials_overflow(self, tmp_path, capsys, order, code):
        # Contact order 1,030 is derivative order 515, the largest whose
        # binomials stay finite: its matrix is built and read as Inconclusive.
        path = write_problem(tmp_path, blaschke={"zeros": [[0.5, 0.0]], "u": [1.0, 0.0]}, orders=[order])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["analyze", path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        if code == 2:
            assert captured.err == f"error: derivative order {(order + 1) // 2} is above the limit of 515\n"

    def test_eight_hundred_points_are_refused_at_the_radial_stack(self, tmp_path, capsys):
        points = [{"angle": 2.0 * math.pi * m / 800} for m in range(800)]
        path = write_problem(tmp_path, points=points, orders=[1] * 800)
        assert main(["crosscheck", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the radial kernel stack would hold {16 * 800**2} entries, above the limit of {ARRAY_ENTRIES_MAX}\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "crosscheck"])
    def test_degree_1500_at_four_points_is_refused_at_the_resolvent_stack(self, tmp_path, capsys, monkeypatch, command):
        # analyze compares the routes first, so decide never runs.
        monkeypatch.setattr(cli, "decide", lambda *args: pytest.fail("decide ran"))
        zeros = [[0.5 * math.cos(j), 0.5 * math.sin(j)] for j in range(1500)]
        points = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        path = write_problem(tmp_path, blaschke={"zeros": zeros, "u": [1.0, 0.0]}, points=points, orders=[1] * 4)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the resolvent stack would hold {4 * 1500**2} entries, above the limit of {ARRAY_ENTRIES_MAX}\n"
        )


class TestCrosscheck:
    def test_routes_agree(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            blaschke={"zeros": [[0.5, 0.0]], "u": [1.0, 0.0]},
            points=[[1.0, 0.0], [-1.0, 0.0]],
            orders=[1, 1],
        )
        assert main(["crosscheck", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 3
        assert report["command"] == "crosscheck"
        assert report["orders"] == [1, 1]
        assert report["structured_vs_realization"] <= 1e-10
        assert report["residual_limit"] == 1e-8
        assert report["radial_converged"] is True
        assert report["radial_nodes"] == 32
        # Worked values: the structured matrix for this instance.
        top_left = report["structured"][0][0]
        assert top_left == pytest.approx([3.0, 0.0])

    def test_contour_fields_reported(self, tmp_path, capsys):
        path = write_problem(tmp_path, blaschke={"zeros": [[0.5, 0.0]], "u": [1.0, 0.0]}, orders=[2])
        assert main(["crosscheck", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # The pole at 2 is a distance 1 away in h, the cap on the contour's reach.
        assert report["radial_contour_radius"] == pytest.approx(1.0 / 6.0)
        assert report["radial_nodes"] == 32
        assert 0.0 < report["radial_error_estimate"] <= 1e-8
        assert report["radial_converged"] is True
        assert "radial_depth" not in report and "radial_final_radius" not in report

    def test_third_order_radial_converges(self, tmp_path, capsys):
        # b(z) = z at t = 1 with k = 3, as in problems/unique.json.
        path = write_problem(tmp_path)
        assert main(["crosscheck", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["radial_converged"] is True
        assert report["radial_gap_max_abs"] <= 1e-12
        assert report["radial_error_estimate"] <= 1e-8

    @pytest.mark.parametrize(
        "zero, points, orders",
        [
            (0.3, [{"angle": 0.4}, {"angle": 0.400001}], [20, 20]),
            (0.3, [{"angle": 0.4}, {"angle": 0.400001}], [24, 24]),
            (1.0 - 2e-12, [[1.0, 0.0], [-1.0, 0.0]], [2, 30]),
        ],
        ids=["20", "24", "pole-unread"],
    )
    def test_overflowing_radial_mean_is_refused(self, tmp_path, capsys, zero, points, orders):
        # Points 1e-6 rad apart leave the radial contour a radius near 8e-8,
        # where the rounding term (order 24: also the kernel recurrence)
        # overflows; the report would otherwise carry Infinity, which is not
        # JSON.  A zero 2e-12 inside t = 1 leaves a radius near 3e-13, where
        # the contour's jets through order 29 overflow, after a structured
        # and a realization matrix whose unread coefficients and powers
        # overflow at t = 1.  A valid problem, so the refusal is
        # inconclusive, not a validation error, and no numpy warning.
        path = write_problem(
            tmp_path, blaschke={"zeros": [[zero, 0.0]], "u": [1.0, 0.0]}, points=points, orders=orders
        )
        assert main(["crosscheck", path, "--format", "json"]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("inconclusive: the contour mean at radius ") and err.count("\n") == 1


class TestFuzz:
    def test_small_run_finds_nothing(self, capsys):
        assert main(["fuzz", "--trials", "5", "--seed", "1", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 5
        assert report["failures"] == 0
        assert set(report["properties"]) == {
            "hermitian",
            "rank_law",
            "route_agreement",
            "admissibility",
        }

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--trials", "0"),
            ("--trials", "-3"),
            ("--degree-max", "-1"),
            ("--degree-max", str(cli.FUZZ_DEGREE_MAX + 1)),
            ("--degree-max", "1000000000"),
            ("--order-max", "0"),
            ("--order-max", str(cli.FUZZ_ORDER_MAX + 1)),
            ("--order-max", "1000000"),
            ("--points-max", "0"),
            ("--points-max", "11"),
            ("--points-max", "18"),
            ("--seed", "-1"),
        ],
    )
    def test_out_of_range_bound_is_refused(self, capsys, flag, value):
        start = time.perf_counter()
        assert main(["fuzz", flag, value, "--format", "json"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_the_worst_draw_fits_the_size_limit(self):
        # Every flag at its bound: the jets of the ten points gather degree x
        # points x (2 order)^2 entries, within ARRAY_ENTRIES_MAX, so the
        # check runs its laws instead of refusing the instance.
        assert cli.FUZZ_DEGREE_MAX * cli.FUZZ_POINTS_MAX * (2 * cli.FUZZ_ORDER_MAX) ** 2 <= ARRAY_ENTRIES_MAX
        rng = np.random.default_rng(5)
        radii, angles = 0.75 * np.sqrt(rng.random(cli.FUZZ_DEGREE_MAX)), rng.random(cli.FUZZ_DEGREE_MAX)
        inst = {
            "zeros": [complex(z) for z in radii * np.exp(2j * np.pi * angles)],
            "u": 1.0 + 0j,
            "points": [complex(np.exp(2j * np.pi * i / cli.FUZZ_POINTS_MAX)) for i in range(cli.FUZZ_POINTS_MAX)],
            "orders": [cli.FUZZ_ORDER_MAX] * cli.FUZZ_POINTS_MAX,
        }
        failure = cli._check_instance(inst)
        assert failure is None or failure[0] != "refused", failure

    def test_rank_property_tolerates_a_threshold_straddle(self):
        # Degree 6 with two third-order points: the matrix is full rank in
        # exact arithmetic, but its smallest eigenvalue lands between the
        # tight and the default rank cutoffs.  The bracket must absorb it.
        inst = {
            "zeros": [
                complex(-0.1194357182270583, 0.3248667924070275),
                complex(-0.20518635868386714, 0.535788409009272),
                complex(0.3663740232432639, 0.28128790513386026),
                complex(0.46194945851795455, 0.0738588396164526),
                complex(0.2990499534436708, -0.19118190083568506),
                complex(-0.052033694166373164, 0.3939914482844443),
            ],
            "u": complex(-0.42996787899375044, -0.9028441853573714),
            "points": [
                complex(-0.28408167804198176, 0.958800083542368),
                complex(-0.7129858285401944, 0.7011784425528585),
            ],
            "orders": [3, 3],
        }
        assert cli._check_instance(inst) is None

    def test_a_refusal_is_a_counterexample(self, monkeypatch, capsys):
        # A drawn instance is valid, so the library refusing it is a finding
        # about the library, shrunk and reported like a broken law.
        def refuse(*args):
            raise SingularResolvent("refused")

        monkeypatch.setattr(cli, "_compare_routes", refuse)
        assert main(["fuzz", "--trials", "3", "--format", "json"]) == 5
        report = json.loads(capsys.readouterr().out)
        assert report["property"] == "refused"
        assert report["detail"] == "SingularResolvent: refused"
        assert report["trials_run"] == 1
        assert len(report["counterexample"]["points"]) == 1
        assert report["counterexample"]["orders"] == [1]

    def test_rank_property_fires_on_a_robustly_wrong_matrix(self, monkeypatch, capsys):
        def identity_instead(jets, plan, m, psi):
            return np.eye(len(m), dtype=complex)

        monkeypatch.setattr(schwarz_pick, "_structured_flat", identity_instead)
        code = main(
            ["fuzz", "--trials", "1", "--seed", "0", "--degree-max", "0", "--format", "json"]
        )
        assert code == 5
        report = json.loads(capsys.readouterr().out)
        assert report["property"] == "rank_law"
        assert "bracket" in report["detail"]

    @pytest.mark.parametrize(
        "prop, index, tamper",
        [
            # An anti-Hermitian part, defect 2, far above the limit.
            ("hermitian", 1, lambda sp: dataclasses.replace(sp, flat=sp.flat + 1j * np.eye(len(sp.flat)))),
            ("route_agreement", 3, lambda diff: 1.0),
            ("admissibility", 0, lambda leading: 0.5 * leading),
        ],
        ids=["hermitian", "route_agreement", "admissibility"],
    )
    def test_each_property_fires_on_its_own_fault(self, monkeypatch, capsys, prop, index, tamper):
        # The routes are computed, then one of leading values, structured
        # matrix, realization, difference and norm is spoiled.
        compare = cli._compare_routes

        def tampered(*args):
            routes = list(compare(*args))
            routes[index] = tamper(routes[index])
            return tuple(routes)

        monkeypatch.setattr(cli, "_compare_routes", tampered)
        assert main(["fuzz", "--trials", "1", "--seed", "0", "--format", "json"]) == 5
        assert json.loads(capsys.readouterr().out)["property"] == prop

    def test_admissibility_reads_as_admissible_on_a_spoiled_instance(self, monkeypatch):
        # A constant b has the zero matrix at any equal leading values, so
        # halving them spoils the modulus alone; the fuzz's verdict and
        # detail are those of `admissible` on the same spoiled jet data.
        inst = {"zeros": [], "u": 1j, "points": [1.0, -1.0], "orders": [2, 1]}
        compare = cli._compare_routes

        def spoiled(*args):
            leading, *routes = compare(*args)
            return (0.5 * leading, *routes)

        monkeypatch.setattr(cli, "_compare_routes", spoiled)
        data = extract_data(make_blaschke([], 1j), inst["points"], [3, 1])
        data = JetData(data.points, tuple((0.5 * row[0], *row[1:]) for row in data.values))
        report = admissible(data, inst["orders"])
        assert not report and not report.modulus_ok and report.pick.psd
        assert report.modulus_defects == (0.5, 0.5)
        assert cli._check_instance(inst) == (
            "admissibility",
            f"modulus_ok={report.modulus_ok} psd_ok={report.pick.psd}",
        )


def _numpy_random_instance(rng, degree_max, points_max, order_max):
    """The fuzz draw as it was written on numpy's Generator, kept as the
    reference that the package's own stream must reproduce."""
    d = int(rng.integers(0, degree_max + 1))
    zeros = []
    for _ in range(d):
        radius = 0.75 * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        zeros.append(radius * complex(math.cos(theta), math.sin(theta)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    u = complex(math.cos(phi), math.sin(phi))
    n = int(rng.integers(1, points_max + 1))
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        wrap = np.concatenate([np.diff(angles), [angles[0] + 2.0 * math.pi - angles[-1]]])
        if n == 1 or float(np.min(wrap)) >= cli.FUZZ_SPACING:
            break
    points = [complex(math.cos(a), math.sin(a)) for a in angles]
    orders = [int(rng.integers(1, order_max + 1)) for _ in range(n)]
    return {"zeros": zeros, "u": u, "points": points, "orders": orders}


class TestFuzzStream:
    @pytest.mark.parametrize("flags", [(6, 3, 3), (0, 1, 1), (12, 10, 8), (3, 10, 2**40)], ids=str)
    def test_drawn_instances_are_those_of_numpys_default_rng(self, flags):
        for seed in range(200):
            want = _numpy_random_instance(np.random.default_rng(seed), *flags)
            assert cli._random_instance(PCG64Stream(seed), *flags) == want, seed

    def test_fuzz_does_not_load_numpy_random(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys; from blaschkepick.cli import main; "
            "code = main(['fuzz', '--trials', '3', '--format', 'json']); "
            "print(code, 'numpy.random' in sys.modules, file=sys.stderr)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stderr == "0 False\n"


class TestRouteComparison:
    def test_structured_matrix_is_that_of_the_public_entry(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            b = random_blaschke(rng, int(rng.integers(0, 9)))
            pts = random_circle_points(rng, int(rng.integers(1, 5)))
            ks = [int(k) for k in rng.integers(1, 5, size=len(pts))]
            data = extract_data(b, pts, [2 * k - 1 for k in ks])
            want = sp_boundary_structured(data.values, pts, ks)
            leading, got, via_real, diff, norm = cli._compare_routes(b, pts, ks)
            assert_array_equal(got.flat, want.flat)
            assert diff == np.max(np.abs(want.flat - via_real))
            assert norm == np.max(np.abs(want.flat))
            assert (got.points, got.orders) == (want.points, want.orders)
            assert_array_equal(leading, [row[0] for row in data.values])
            assert_array_equal(via_real, sp_via_realization(realize(b), pts, ks))

    @pytest.mark.parametrize(
        "pts, ks",
        [
            ([1.0, 1.0], [1, 1]),
            ([0.5], [1]),
            ([1.0, float("nan")], [1, 1]),
            ([], []),
            ([1.0], [0]),
            ([1.0, -1.0], [1]),
        ],
        ids=["coincident", "off-circle", "non-finite", "empty", "zero-order", "count"],
    )
    def test_refusals_are_those_of_the_public_entry(self, pts, ks):
        # One row per point, long enough for every order: only the layout
        # is at fault.
        b = make_blaschke([0.5])
        with pytest.raises((BlaschkePickError, ValueError)) as want:
            sp_boundary_structured([[1.0, 0.5]] * len(pts), pts, ks)
        for entry in (cli._compare_routes, sp_boundary_radial):
            with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                entry(b, pts, ks)

    def test_the_structured_matrix_is_one_structured_build(self, monkeypatch):
        calls, build = [], schwarz_pick._structured_build

        def counted(b, pts, ks):
            calls.append((pts, ks))
            return build(b, pts, ks)

        monkeypatch.setattr(cli, "_structured_build", counted)
        b = make_blaschke([0.3, -0.2j])
        _, structured, _, _, _ = cli._compare_routes(b, [1.0, -1.0], [2, 1])
        assert calls == [((1.0 + 0j, -1.0 + 0j), (2, 1))]
        assert_array_equal(structured.flat, build(b, *calls[0])[2])

    def test_orders_are_checked(self):
        b = make_blaschke([0.5])
        with pytest.raises(ValueError, match="orders must be at least one"):
            cli._compare_routes(b, [1.0], [0])
        with pytest.raises(ValueError, match="2 points but 1 orders"):
            cli._compare_routes(b, [1.0, -1.0], [1])


class TestParser:
    def test_version_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "blaschkepick" in capsys.readouterr().out

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestClosedStdout:
    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize(
        ("argv", "code"),
        [
            (["analyze", "problems/nonunique.json", "--format", "json"], 0),
            (["analyze", "problems/unique.json"], 0),
            (["fuzz", "--trials", "200", "--seed", "1", "--format", "json"], 5),
        ],
        ids=["analyze-json", "analyze-text", "fuzz-counterexample"],
    )
    def test_reader_that_leaves_early(self, argv, code):
        # As with `| head -n 1`: read one line, close the pipe, and expect
        # no traceback and the exit code of an uninterrupted run.
        src = str(self.ROOT / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "blaschkepick", *argv],
            cwd=self.ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
        assert err == b""
