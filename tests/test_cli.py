"""Command-line contract: subcommands, formats, exit codes, guards."""
import argparse
import contextlib
import decimal
import gc
import io
import json
import math
import sys
import time
from collections import Counter
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumer.bijection
import rumer.brackets
import rumer.cli
import rumer.diagrams
import rumer.oracle
from rumer.brackets import BracketPolynomial, straighten
from rumer.cli import build_parser, main
from rumer.counting import rho_closed, triangle_range

#: A diagram whose edge list nests 3,000 arrays deep, past json's recursion limit.
NESTED_JSON = '{"n": 4, "edges": ' + "[" * 3000 + "]" * 3000 + "}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_formula_default(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--m", "2")
        assert code == 0
        assert out.strip() == "20"

    def test_method_all_agrees(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--m", "2", "--method", "all")
        assert code == 0
        assert "agree: true" in out
        assert out.count("20") == 4

    def test_multidegree_recurrence(self, capsys):
        code, out, _ = run(capsys, "count", "--multidegree", "1,1,1,1")
        assert code == 0
        assert out.strip() == "2"

    def test_two_vertices_many_bonds(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--m", "50")
        assert code == 0
        assert out.strip() == "1"

    def test_json_single_document(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "3", "--m", "2", "--method", "all", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == {"formula": 6, "product": 6, "recurrence": 6, "enumerate": 6}
        assert doc["agree"] is True

    def test_csv_table(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "4", "--m", "1", "--method", "all", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,count"
        assert "formula,6" in lines
        assert "agree,true" in lines

    def test_guard_refusal_names_flag(self, capsys):
        code, out, err = run(
            capsys, "count", "--n", "10", "--m", "12", "--method", "enumerate",
            "--max-schemes", "1000",
        )
        assert code == 2
        assert out == ""
        assert "--max-schemes" in err

    def test_recurrence_on_many_vertices(self, capsys):
        code, out, err = run(
            capsys, "count", "--n", "1500", "--m", "1", "--method", "recurrence",
            "--format", "json",
        )
        assert code == 0, err
        assert json.loads(out)["count"] == rho_closed(1500, 1)

    def test_product_needs_three_vertices(self, capsys):
        code, _, err = run(capsys, "count", "--n", "2", "--m", "1", "--method", "product")
        assert code == 2
        assert "n >= 3" in err

    @pytest.mark.parametrize("method", ["product", "all"])
    def test_product_is_guarded(self, capsys, method):
        # n - 3 steps; with --method all the product runs before the recurrence
        n = 10**20
        code, out, err = run(capsys, "count", "--n", str(n), "--m", "1", "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: {n - 3} product steps exceed the --max-schemes guard (10000000)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count"],
            ["count", "--method", "formula"],
            ["count", "--method", "all"],
            ["count", "--method", "enumerate"],
            ["enumerate"],
            ["enumerate", "--format", "json"],
        ],
    )
    def test_formula_is_guarded(self, capsys, argv):
        # min(m, n - 1) multiplications of the binomial; math.comb raised
        # OverflowError on these before any guard was reached
        n = m = 10**20 - 1
        code, out, err = run(capsys, *argv, "--n", str(n), "--m", str(m))
        assert (code, out) == (2, "")
        assert err == f"error: {n - 1} formula steps exceed the --max-schemes guard (10000000)\n"

    def test_product_guard_is_never_below_its_default(self, capsys, monkeypatch):
        argv = ("count", "--n", "14", "--m", "1", "--method", "product")
        monkeypatch.setattr(rumer.cli, "DEFAULT_MAX_SCHEMES", 10)
        assert run(capsys, *argv)[2] == (
            "error: 11 product steps exceed the --max-schemes guard (10)\n"
        )
        assert run(capsys, *argv, "--max-schemes", "1")[2].endswith("guard (10)\n")
        assert run(capsys, *argv, "--max-schemes", "11") == (0, "91\n", "")

    @pytest.mark.parametrize("subcommand", ["count", "enumerate"])
    def test_multidegree_excludes_nm(self, capsys, subcommand):
        code, out, err = run(capsys, subcommand, "--multidegree", "1,1", "--n", "2")
        assert code == 2
        assert out == ""
        assert err == "error: --multidegree excludes --n/--m\n"

    @pytest.mark.parametrize("subcommand", ["count", "enumerate"])
    def test_usage_error_without_inputs(self, capsys, subcommand):
        code, out, err = run(capsys, subcommand)
        assert code == 2
        assert out == ""
        assert err == "error: need --n and --m, or --multidegree\n"

    @pytest.mark.parametrize(
        "argv,steps",
        [
            (["--n", "3", "--m", "3000", "--method", "recurrence"], 2 * 3001 * 6001),
            (["--n", "3", "--m", "30000", "--method", "recurrence"], 2 * 30001 * 60001),
            # the folds of 20000 into the live merged degrees 20000, 0..40000, 0..20000
            (["--multidegree", "20000,20000,20000,20000"], 20001 * (1 + 40001 + 20001)),
            (
                ["--multidegree", "20000,20000,20000,20000", "--method", "all"],
                20001 * (1 + 40001 + 20001),
            ),
        ],
    )
    def test_recurrence_is_guarded(self, capsys, argv, steps):
        code, out, err = run(capsys, "count", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {steps} recurrence steps exceed the --max-schemes guard (10000000)\n"

    def test_multidegree_enumeration_guards_its_prediction(self, capsys):
        # the diagram guard's count comes from the recurrence, which is guarded first
        code, out, err = run(capsys, "enumerate", "--multidegree", "20000,20000,20000,20000")
        assert (code, out) == (2, "")
        assert err == "error: 1200120003 recurrence steps exceed the --max-schemes guard (10000000)\n"

    def test_multidegree_guard_follows_the_live_degrees(self, capsys):
        # one merged degree is live, so the fold takes 20,001 steps, not 400,040,001
        assert run(capsys, "count", "--multidegree", "20000,20000") == (0, "1\n", "")

    @pytest.mark.parametrize("method", ["formula", "product"])
    def test_nm_methods_refuse_multidegree(self, capsys, method):
        code, out, err = run(capsys, "count", "--multidegree", "1,1", "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: method '{method}' applies to --n/--m, not --multidegree\n"

    def test_recurrence_guard_is_never_below_its_default(self, capsys, monkeypatch):
        # (n - 1)(m + 1)(2m + 1) = 30 steps at (3, 2)
        argv = ("count", "--n", "3", "--m", "2", "--method", "recurrence")
        monkeypatch.setattr(rumer.cli, "DEFAULT_MAX_SCHEMES", 10)
        assert run(capsys, *argv)[2] == (
            "error: 30 recurrence steps exceed the --max-schemes guard (10)\n"
        )
        assert run(capsys, *argv, "--max-schemes", "1")[2].endswith("guard (10)\n")
        assert run(capsys, *argv, "--max-schemes", "30")[:2] == (0, "6\n")

    def test_enumerate_many_parallel_bonds(self, capsys):
        # 1,500 parallel bonds: the ballot walk takes one step per vertex, not per bond
        code, out, err = run(
            capsys, "count", "--multidegree", "1500,1500", "--method", "enumerate"
        )
        assert (code, out, err) == (0, "1\n", "")


class TestEnumerate:
    def test_text_listing_with_count_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--multidegree", "1,1,1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["n=4; (1,2)(3,4)", "n=4; (1,4)(2,3)", "count: 2"]

    def test_by_n_and_m(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--m", "1")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[-1] == "count: 3"
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "argv", [["--multidegree", "1500,1500"], ["--n", "2", "--m", "1500"]]
    )
    def test_many_parallel_bonds(self, capsys, argv):
        # 1,500 parallel bonds: the ballot walk takes one step per vertex, not per bond
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, out, err) == (0, "n=2; " + "(1,2)" * 1500 + "\ncount: 1\n", "")

    def test_many_vertices(self, capsys):
        # the ballot walk keeps one frame per vertex
        degrees = ",".join(["1"] + ["0"] * 2998 + ["1"])
        code, out, err = run(capsys, "enumerate", "--multidegree", degrees)
        assert (code, out, err) == (0, "n=3000; (1,3000)\ncount: 1\n", "")

    def test_infeasible_is_empty(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--multidegree", "1,0")
        assert code == 0
        assert out.strip() == "count: 0"

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--m", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 6
        assert {"n": 4, "edges": [[1, 2]]} in doc["diagrams"]

    @pytest.mark.parametrize(
        "label",
        [{"n": n, "m": m} for n in range(1, 13) for m in range(4)]
        + [{"multidegree": d} for d in ([1, 1, 2, 2, 3, 3], [2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 2, 2],
                                        [3, 1])],  # the last has no diagram
        ids=lambda label: "-".join(f"{key}{value}".replace(" ", "")
                                   for key, value in label.items()),
    )
    def test_json_is_the_indented_dump(self, capsys, tmp_path, label):
        # the listing is written without json.dumps; to_json_dict is its reference
        if "multidegree" in label:
            argv = ["--multidegree", ",".join(map(str, label["multidegree"]))]
            diagrams = rumer.diagrams.enumerate_rumer_by_multidegree(label["multidegree"])
        else:
            argv = ["--n", str(label["n"]), "--m", str(label["m"])]
            diagrams = rumer.diagrams.enumerate_rumer(label["n"], label["m"])
        document = {**label, "count": len(diagrams),
                    "diagrams": [d.to_json_dict() for d in diagrams]}
        expected = json.dumps(document, indent=2) + "\n"
        assert run(capsys, "enumerate", *argv, "--format", "json") == (0, expected, "")
        out = tmp_path / "listing.json"
        assert run(capsys, "enumerate", *argv, "--format", "json", "--out", str(out)) == (0, "", "")
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize(
        "label",
        [{"n": n, "m": m} for n in (1, 3, 12) for m in range(4)]
        + [{"multidegree": d} for d in ([2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 2, 2], [0], [3, 1])],
        ids=lambda label: "-".join(f"{key}{value}".replace(" ", "")
                                   for key, value in label.items()),
    )
    def test_text_is_each_diagrams_text(self, capsys, label):
        # the listing formats each distinct chord once; to_text is its reference
        if "multidegree" in label:
            argv = ["--multidegree", ",".join(map(str, label["multidegree"]))]
            diagrams = rumer.diagrams.enumerate_rumer_by_multidegree(label["multidegree"])
        else:
            argv = ["--n", str(label["n"]), "--m", str(label["m"])]
            diagrams = rumer.diagrams.enumerate_rumer(label["n"], label["m"])
        lines = [d.to_text() for d in diagrams] + [f"count: {len(diagrams)}"]
        assert run(capsys, "enumerate", *argv) == (0, "\n".join(lines) + "\n", "")

    @pytest.mark.parametrize(
        "argv,steps",
        [
            # one empty diagram, but the ballot walk keeps one frame per vertex
            (["--n", "100000000", "--m", "0"], 100000000),
            (["--n", "2", "--m", "100000000"], 100000002),
        ],
    )
    def test_walk_is_guarded(self, capsys, argv, steps):
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {steps} walk steps (diagrams x (n + m)) exceed the --max-schemes "
            "guard (10000000)\n"
        )

    @pytest.mark.parametrize(
        "argv,steps",
        # 20 diagrams of 4 vertices and 2 bonds; 3 of 4 vertices and 4 bonds
        [(["--n", "4", "--m", "2"], 120), (["--multidegree", "2,2,2,2"], 24)],
    )
    def test_walk_guard_edge(self, capsys, argv, steps):
        assert run(capsys, "enumerate", *argv, "--max-schemes", str(steps))[0] == 0
        assert run(capsys, "enumerate", *argv, "--max-schemes", str(steps - 1))[1:] == ("", (
            f"error: {steps} walk steps (diagrams x (n + m)) exceed the --max-schemes "
            f"guard ({steps - 1})\n"
        ))


def int_text_limit():
    """The interpreter's int/str digit limit, or None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestExactIntegerText:
    """Counts and coefficients past CPython's 4,300-digit int/str limit print
    and parse in full, and main restores the limit when it returns."""

    def test_count_prints_in_full(self, capsys):
        limit = int_text_limit()
        code, out, err = run(capsys, "count", "--n", "5000", "--m", "5000", "--format", "json")
        assert (code, err) == (0, "")
        assert int_text_limit() == limit
        count = json.loads(out, parse_int=decimal.Decimal)["count"]  # Decimal has no limit
        assert len(str(count)) > 4300
        assert count == rho_closed(5000, 5000)

    def test_straighten_parses_a_long_literal_exactly(self, capsys):
        limit = int_text_limit()
        nines = "9" * 5000
        code, out, err = run(capsys, "straighten", f"{nines}*[2,1]", "--n", "2")
        assert (code, err) == (0, "")
        assert out == f"-{nines}*[1,2]\n"
        assert int_text_limit() == limit


class TestStraighten:
    def test_crossing_rewrite(self, capsys):
        code, out, _ = run(capsys, "straighten", "[1,3][2,4]", "--n", "4")
        assert code == 0
        assert out.strip() == "[1,2][3,4] + [1,4][2,3]"

    def test_identity_collapses_to_zero(self, capsys):
        code, out, _ = run(
            capsys, "straighten", "[1,2][3,4]-[1,3][2,4]+[1,4][2,3]", "--n", "4"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_sign_normalization(self, capsys):
        code, out, _ = run(capsys, "straighten", "[2,1]", "--n", "2")
        assert code == 0
        assert out.strip() == "-[1,2]"

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "straighten", "[1,3][2,4]", "--n", "4", "--verify")
        assert code == 0
        assert "verify: pass" in out

    def test_json_terms(self, capsys):
        code, out, _ = run(
            capsys, "straighten", "[1,3][2,4]", "--n", "4", "--format", "json", "--verify"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["verified"] is True
        assert {"coeff": 1, "factors": [[1, 2], [3, 4]]} in doc["terms"]

    def test_deep_split_off_chain(self, capsys):
        # 1500 parallel [1,2] factors are split off before the exchange rule
        # applies; a recursion one level per factor ended in a RecursionError
        code, out, err = run(capsys, "straighten", "[1,2]" * 1500 + "[1,3][2,4]", "--n", "4")
        assert code == 0
        assert err == ""
        assert out == "[1,2]" * 1501 + "[3,4] + " + "[1,2]" * 1500 + "[1,4][2,3]\n"

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "straighten", "[1,5]", "--n", "4")
        assert code == 2
        assert "position" in err

    def test_superscript_digit_is_one_line_usage_error(self, capsys):
        code, out, err = run(capsys, "straighten", "[²,1]", "--n", "4")
        assert (code, out) == (2, "")
        assert err == "error: unexpected character '²' (at position 1)\n"

    def test_verify_expands_only_the_vertices_used(self, capsys, monkeypatch):
        coded = []  # the vertices given x1 and x2 codes, per expansion
        expansions = rumer.oracle._expansions

        def recorded(edge_lists, x1, x2):
            coded.append((sorted(x1), sorted(x2)))
            return expansions(edge_lists, x1, x2)

        monkeypatch.setattr(rumer.oracle, "_expansions", recorded)
        start = time.perf_counter()
        code, out, _ = run(capsys, "straighten", "[1,2]", "--n", "100000000", "--verify")
        assert time.perf_counter() - start < 1
        # straightening leaves [1,2] alone: the difference is zero, and nothing is coded
        assert (code, out, coded) == (0, "[1,2]\nverify: pass\n", [])
        code, out, _ = run(capsys, "straighten", "[9,3][7,12]", "--n", "20", "--verify")
        used = [3, 7, 9, 12]
        assert (code, out, coded) == (
            0, "-[3,7][9,12] - [3,12][7,9]\nverify: pass\n", [(used, used)]
        )
        coded.clear()
        code, out, _ = run(capsys, "straighten", "0*[1,2]", "--n", "5", "--verify")
        assert (code, out, coded) == (0, "0\nverify: pass\n", [])

    def test_verify_of_many_disjoint_chords_is_instant(self, capsys):
        """22 disjoint chords form a Rumer diagram, which straightening leaves
        alone; expanding both sides would make 2^22 terms each."""
        chords = "".join(f"[{2 * k - 1},{2 * k}]" for k in range(1, 23))
        start = time.perf_counter()
        code, out, _ = run(capsys, "straighten", chords, "--n", "44", "--verify")
        assert time.perf_counter() - start < 2
        assert (code, out) == (0, f"{chords}\nverify: pass\n")

    @staticmethod
    def crossing_pairs(k):
        """k disjoint pairs of crossing chords, [1,3][2,4][5,7][6,8]..., on 4k points."""
        return "".join(f"[{4 * i + 1},{4 * i + 3}][{4 * i + 2},{4 * i + 4}]" for i in range(k))

    def test_verify_refuses_an_expansion_over_the_bound(self, capsys):
        """9 crossing pairs straighten to 2^9 terms of 18 chords each: the
        difference of input and output would expand 2^18 + 2^27 terms."""
        start = time.perf_counter()
        code, out, err = run(capsys, "straighten", self.crossing_pairs(9), "--n", "36", "--verify")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: --verify would expand 134479872 terms, over the bound 10000000\n"

    def test_verify_under_the_bound_still_expands(self, capsys):
        # 2^14 + 2^7 * 2^14 = 2,113,536 terms
        code, out, err = run(capsys, "straighten", self.crossing_pairs(7), "--n", "28", "--verify")
        assert (code, out.splitlines()[-1], err) == (0, "verify: pass", "")

    def test_verify_estimates_nothing_for_what_straightening_leaves_alone(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(rumer.cli, "DEFAULT_MAX_SCHEMES", 0)
        chords = "".join(f"[{2 * k - 1},{2 * k}]" for k in range(1, 23))
        for text, n in (("[1,2]", "100000000"), (chords, "44")):
            code, out, err = run(capsys, "straighten", text, "--n", n, "--verify")
            assert (code, out, err) == (0, f"{text}\nverify: pass\n", "")
        # [1,3][2,4] - [1,2][3,4] - [1,4][2,3]: three monomials of two chords
        code, out, err = run(capsys, "straighten", "[1,3][2,4]", "--n", "4", "--verify")
        assert (code, out) == (2, "")
        assert err == "error: --verify would expand 12 terms, over the bound 0\n"

    @pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--verify"]])
    def test_stats_go_to_stderr_only(self, capsys, extra):
        """Seven crossing diameters: 977 rewrites from the weight 7 * 7 * 7 of
        the input down to 429 output terms, and with --verify the expansion
        estimate.  tests/test_brackets.py holds the bucket peak to a
        reference straightener."""
        argv = ("straighten", "".join(f"[{i},{i + 7}]" for i in range(1, 8)), "--n", "14", *extra)
        code, plain, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, *argv, "--stats")
        assert (code, out) == (0, plain)
        (line,) = err.splitlines()
        stats = json.loads(line)
        keys = ["rewrites", "heaviest_weight", "peak_bucket", "terms_in", "terms_out"]
        assert list(stats) == keys + ["verify_terms"] * ("--verify" in extra)
        assert [stats[key] for key in keys if key != "peak_bucket"] == [977, 343, 1, 429]
        assert 1 <= stats["peak_bucket"] <= 429
        if "--verify" in extra:
            # the difference: the input's 2^7 terms and each output term's 2^7
            assert stats["verify_terms"] == 2**7 * (1 + 429)

    def test_stats_of_what_straightening_leaves_alone(self, capsys):
        code, out, err = run(capsys, "straighten", "[1,2][3,4] - [1,2][3,4]", "--n", "4", "--stats")
        assert (code, out) == (0, "0\n")
        assert json.loads(err) == {"rewrites": 0, "heaviest_weight": 0, "peak_bucket": 0,
                                   "terms_in": 0, "terms_out": 0}
        code, out, err = run(capsys, "straighten", "[1,2][3,4]", "--n", "4", "--stats", "--verify")
        assert (code, out) == (0, "[1,2][3,4]\nverify: pass\n")
        assert json.loads(err) == {"rewrites": 0, "heaviest_weight": 6, "peak_bucket": 1,
                                   "terms_in": 1, "terms_out": 1, "verify_terms": 0}

    @pytest.mark.parametrize(
        "broken",
        [
            lambda flat: BracketPolynomial._of(flat.n, dict(list(flat.terms.items())[1:])),
            lambda flat: flat + BracketPolynomial.monomial(flat.n, [(5, 6)]),
        ],
        ids=["drops-a-term", "adds-an-unused-vertex"],
    )
    def test_verify_fails_a_wrong_straightening(self, capsys, monkeypatch, broken):
        monkeypatch.setattr(rumer.cli, "straighten", lambda p, stats: broken(straighten(p, stats)))
        code, out, _ = run(capsys, "straighten", "[1,3][2,4]", "--n", "6", "--verify")
        assert code == 1
        assert out.splitlines()[-1] == "verify: FAIL"
        code, out, _ = run(
            capsys, "straighten", "[1,3][2,4]", "--n", "6", "--verify", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["verified"] is False


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2..4", "--m", "0..3")
        assert code == 0
        assert "all checks passed" in out
        assert "n=4 m=3: ok" in out

    def test_single_cell_json_has_full_rank(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4..4", "--m", "2..2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["cells"][0]["basis"]["full_rank"] == 20

    def test_two_vertex_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2..2", "--m", "0..6")
        assert code == 0
        assert "rho=1" in out

    def test_guard_refusal(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n", "8..8", "--m", "6..6", "--max-schemes", "100"
        )
        assert code == 2
        assert "--max-schemes" in err

    @pytest.mark.parametrize(
        "grid,refusal",
        [
            # the recurrence of (2, 6000) takes 6001 * 12001 steps
            (["2..2", "6000..6000"], "72018001 recurrence steps"),
            # (n, 0) has one scheme, but listing it walks all C(n, 2) edges
            (["100000..100000", "0..0"], "4999950000 schemes up to (n=100000, m=0)"),
            (["2..3000", "0..0"], "10039316 schemes up to (n=392, m=0)"),
            (["2..100000000", "0..0"], "99999999 cells"),
            (["1..1", "0..100000000"], "100000001 cells"),
        ],
    )
    def test_grid_is_guarded_before_any_cell_runs(self, capsys, grid, refusal):
        code, out, err = run(capsys, "verify", "--n", grid[0], "--m", grid[1])
        assert (code, out) == (2, "")
        assert err == f"error: {refusal} exceed the --max-schemes guard (10000000)\n"

    @pytest.mark.parametrize(
        "argv,work,refusal",
        [
            # (n, 0) counts its C(n, 2) edges: 1 + 3 + 6 schemes
            (["--n", "2..4", "--m", "0..0"], 10, "10 schemes up to (n=4, m=0)"),
            # 2 * 3 * 5 recurrence steps; 6 schemes
            (["--n", "3..3", "--m", "2..2"], 30, "30 recurrence steps"),
            (["--n", "1..1", "--m", "0..4"], 5, "5 cells"),
        ],
    )
    def test_grid_guard_edge(self, capsys, monkeypatch, argv, work, refusal):
        # lowered by the default: the recurrence guard never falls below it
        monkeypatch.setattr(rumer.cli, "DEFAULT_MAX_SCHEMES", work)
        assert run(capsys, "verify", *argv)[0] == 0
        monkeypatch.setattr(rumer.cli, "DEFAULT_MAX_SCHEMES", work - 1)
        assert run(capsys, "verify", *argv)[1:] == (
            "", f"error: {refusal} exceed the --max-schemes guard ({work - 1})\n"
        )

    def test_enumerates_each_cell_once(self, capsys, monkeypatch):
        calls = []
        enumerate_rumer = rumer.oracle.enumerate_rumer

        def counted(n, m):
            calls.append((n, m))
            return enumerate_rumer(n, m)

        for module in (rumer.cli, rumer.oracle):
            monkeypatch.setattr(module, "enumerate_rumer", counted)
        code, out, _ = run(capsys, "verify", "--n", "2..3", "--m", "0..1", "--format", "json")
        assert code == 0
        assert calls == [(2, 0), (2, 1), (3, 0), (3, 1)]
        assert [cell["counts"]["enumerate"] for cell in json.loads(out)["cells"]] == [1, 1, 1, 3]

    def test_builds_each_object_once(self, capsys, monkeypatch):
        """verify enumerates each cell once and checks it by one exchange per
        crossing scheme over its block's rows, with no elimination on a clean
        cell.  At (5, 4) each cell enumerator is called once, and the valence
        schemes of each cell (4, k), k <= 4, once more for the merge check;
        each valence scheme of the cell is scanned by first_crossing once,
        for both checks; nothing is expanded through expand, the row of every
        valence scheme of a block with more than one is built exactly once,
        and a block of one scheme builds none; no row goes into the echelon
        form, the backtracker by multidegree is never called, and the walk by
        multidegree sees each merged prescription exactly once."""
        calls = {}

        def counting(owner, name, record):
            real, log = getattr(owner, name), calls.setdefault(name, [])

            def counted(*args):
                log.append(record(*args))
                return real(*args)

            for module in (rumer.cli, rumer.oracle, rumer.bijection):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)

        for name in ("enumerate_rumer", "enumerate_valence_schemes"):
            counting(rumer.diagrams, name, lambda n, m: (n, m))
        for name in ("enumerate_rumer_by_multidegree", "enumerate_valence_schemes_by_multidegree"):
            counting(rumer.diagrams, name, tuple)
        counting(rumer.oracle, "expand", lambda poly: poly)
        counting(rumer.oracle, "_insert", lambda pivots, terms: len(terms))
        counting(rumer.diagrams, "first_crossing", lambda scheme: scheme)
        rows, block_rows = [], rumer.oracle._block_rows

        def recorded(d, width, edge_lists):
            edge_lists = list(edge_lists)
            for edges, row in zip(edge_lists, block_rows(d, width, edge_lists)):
                rows.append(edges)
                yield row

        monkeypatch.setattr(rumer.oracle, "_block_rows", recorded)
        code, out, _ = run(capsys, "verify", "--n", "5..5", "--m", "4..4")
        assert code == 0
        assert "n=5 m=4: ok" in out
        assert calls["enumerate_rumer"] == [(5, 4)]
        assert calls["enumerate_valence_schemes"] == [(5, 4)] + [(4, k) for k in range(5)]
        assert len(calls["expand"]) == 0  # a clean cell never leaves the coded rows
        assert len(calls["_insert"]) == 0
        schemes = list(rumer.diagrams.enumerate_valence_schemes(5, 4))
        assert sorted(calls["first_crossing"]) == schemes
        sizes = Counter(s.multidegree() for s in schemes)
        assert sorted(rows) == [s.edges for s in schemes if sizes[s.multidegree()] > 1]
        assert min(sizes.values()) == 1
        assert calls["enumerate_valence_schemes_by_multidegree"] == []
        merged = {
            d[:-2] + (mu,)
            for d in {s.multidegree() for s in schemes}
            for mu in triangle_range(d[-2], d[-1])
        }
        prescriptions = calls["enumerate_rumer_by_multidegree"]
        assert sorted(prescriptions) == sorted(merged)  # each merged prescription once

    def test_lower_cell_losing_a_rumer_scheme_fails(self, capsys, monkeypatch):
        """verify takes the brute-force Rumer lists of the merged prescriptions
        from the cells one vertex down, so a scheme missing there is caught
        by comparing the walk by multidegree with it."""
        real = rumer.oracle.enumerate_valence_schemes
        dropped = rumer.diagrams.ValenceScheme(3, [(1, 2), (1, 2)])  # the first Rumer scheme

        def lossy(n, m):
            return [s for s in real(n, m) if s != dropped]

        monkeypatch.setattr(rumer.oracle, "enumerate_valence_schemes", lossy)
        code, out, _ = run(capsys, "verify", "--n", "4..4", "--m", "2..2", "--format", "json")
        assert code == 1
        failures = json.loads(out)["cells"][0]["bijection_failures"]
        assert {
            "multidegree": [2, 2, 0],
            "reason": "generator disagrees with the brute-force filter",
            "missing": [],
            "extra": ["n=3; (1,2)(1,2)"],
        } in [example for report in failures for example in report["counterexamples"]]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_stats_go_to_stderr_only(self, capsys, fmt):
        argv = ("verify", "--n", "2..4", "--m", "0..3", "--format", fmt)
        code, plain, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, *argv, "--stats")
        assert code == 0
        assert out == plain
        (line,) = err.splitlines()
        stats = json.loads(line)
        assert list(stats["seconds"]) == ["enumerate", "expand", "divide", "straighten",
                                          "fallback", "psi"]
        assert all(spent >= 0 for spent in stats["seconds"].values())
        cells = [(n, m) for n in range(2, 5) for m in range(4)]
        assert stats["schemes"] == sum(math.comb(math.comb(n, 2) + m - 1, m) for n, m in cells)
        diagrams = sum(rho_closed(n, m) for n, m in cells)
        assert stats["rumer_diagrams"] == stats["pivots"] == diagrams
        assert stats["fallback_blocks"] == 0 < stats["blocks"]
        # one table rewrite per scheme that is not a Rumer diagram
        assert stats["rewrites"] == stats["schemes"] - diagrams

    def test_clean_cells_take_the_division(self, capsys):
        """No block of a clean cell with n <= 6, m <= 4 needs elimination."""
        code, _, err = run(capsys, "verify", "--n", "1..6", "--m", "0..4", "--stats")
        assert code == 0
        stats = json.loads(err)
        assert stats["fallback_blocks"] == 0
        assert stats["seconds"]["fallback"] == 0

    def test_broken_straightener_takes_the_exact_route(self, capsys, monkeypatch):
        """An exchange rule that adds the crossing pair itself to the children
        of [1,3][2,4], a child that does not weigh less, breaks one block of
        (4, 2), and only that block falls back."""
        real = rumer.brackets._exchange
        monkeypatch.setattr(rumer.brackets, "_exchange", lambda e, f: (*real(e, f), (e, f)))
        code, _, err = run(capsys, "verify", "--n", "4..4", "--m", "2..2", "--stats")
        assert code == 1
        assert json.loads(err)["fallback_blocks"] == 1

    def test_bad_range_syntax(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "verify", "--n", "3..2", "--m", "0..1")
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            run(capsys, "verify", "--n", "1..2..3", "--m", "0..1")
        assert info.value.code == 2

    def test_generator_dropping_a_diagram_fails(self, capsys, monkeypatch):
        walk = rumer.diagrams._ballot_walk
        monkeypatch.setattr(
            rumer.diagrams, "_ballot_walk", lambda n, moves: islice(walk(n, moves), 1, None)
        )
        code, out, _ = run(capsys, "verify", "--n", "3..3", "--m", "2..2", "--format", "json")
        assert code == 1
        failures = json.loads(out)["cells"][0]["bijection_failures"]
        assert any(
            example.get("multidegree") == report["multidegree"]
            and example["reason"] == "generator disagrees with the brute-force filter"
            for report in failures
            for example in report["counterexamples"]
        )


    def test_merged_walk_repeating_a_diagram_fails(self, capsys, monkeypatch):
        """verify compares the by-multidegree walk, on each merged prescription,
        list for list with the brute-force filter, so a repeat is caught."""
        walk = rumer.bijection.enumerate_rumer_by_multidegree
        monkeypatch.setattr(
            rumer.bijection, "enumerate_rumer_by_multidegree", lambda d: walk(d)[:1] + walk(d)
        )
        code, out, _ = run(capsys, "verify", "--n", "3..3", "--m", "2..2", "--format", "json")
        assert code == 1
        failures = json.loads(out)["cells"][0]["bijection_failures"]
        assert any(
            example["reason"] == "generator disagrees with the brute-force filter"
            for report in failures
            for example in report["counterexamples"]
        )


class TestRender:
    def test_text_form(self, capsys):
        code, out, _ = run(capsys, "render", "--diagram", "n=4; (1,2)(3,4)")
        assert code == 0
        assert out.startswith("<?xml")
        assert out.count("<line") == 2

    def test_json_form(self, capsys):
        code, out, _ = run(
            capsys, "render", "--diagram", '{"n": 2, "edges": [[1,2],[1,2]]}'
        )
        assert code == 0
        assert out.count("<path") == 2

    def test_bad_diagram(self, capsys):
        code, _, err = run(capsys, "render", "--diagram", "nope")
        assert code == 2
        assert "bad diagram" in err

    def test_deeply_nested_json_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "render", "--diagram", NESTED_JSON)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad diagram")
        assert "Traceback" not in err

    def test_non_integral_json_is_one_line_usage_error(self, capsys):
        # JSON true and false are not vertex numbers, although they act as 1 and 0
        for diagram in (
            '{"n": 4.9, "edges": [[1,2]]}',
            '{"n": 3, "edges": [[true, 2]]}',
            '{"n": true, "edges": []}',
        ):
            code, out, err = run(capsys, "render", "--diagram", diagram)
            assert code == 2, diagram
            assert out == ""
            assert err.startswith("error: bad diagram") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--diagram", "n=2;", "--size", "1" + "0" * 400],
            ["--diagram", "n=1" + "0" * 4000 + ";"],
            ["--diagram", '{"n": 1' + "0" * 4000 + ', "edges": [[1, 2]]}'],
        ],
    )
    def test_huge_drawing_is_one_line_usage_error(self, capsys, argv):
        # the coordinates are floats; a size or vertex count past their range
        # ended in an OverflowError traceback
        code, out, err = run(capsys, "render", *argv)
        assert (code, out) == (2, "")
        assert err == "error: --size and the vertex count must fit a float\n"

    @pytest.mark.parametrize("n", [100000000, 860])
    def test_vertices_under_a_pixel_apart_are_refused(self, capsys, n):
        # the circle of the default --size 360 is 2 pi 0.38 360 = 859.5 pixels long
        code, out, err = run(capsys, "render", "--diagram", f"n={n};")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {n} vertices would sit less than a pixel apart (at most 859 at --size 360)\n"
        )

    def test_vertices_a_pixel_apart_render(self, capsys):
        code, out, err = run(capsys, "render", "--diagram", "n=859;")
        assert (code, err) == (0, "")
        assert out.count("<text") == 859
        assert run(capsys, "render", "--diagram", "n=860;", "--size", "361")[0] == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "diagram.svg"
        code, out, _ = run(
            capsys, "render", "--diagram", "n=3;", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("<?xml")


def test_repeated_calls_leave_no_cyclic_garbage():
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["count", "--n", "2", "--m", "1"])

    call()  # the first call may build the parser
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            call()
    finally:
        gc.enable()
    assert gc.collect() < 20


def test_default_guard_is_read_per_call(capsys):
    # the parser is built once; its --max-schemes default must not freeze
    argv = ("count", "--n", "4", "--m", "2", "--method", "enumerate")
    assert run(capsys, *argv)[0] == 0
    with mock.patch.object(rumer.cli, "DEFAULT_MAX_SCHEMES", 2):
        code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {rho_closed(4, 2)} diagrams exceed the --max-schemes guard (2)\n"
    assert run(capsys, *argv)[0] == 0


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


#: a valid call of each subcommand that takes --out
OUT_ARGV = {
    "count": ["count", "--n", "2", "--m", "1"],
    "enumerate": ["enumerate", "--n", "2", "--m", "1"],
    "straighten": ["straighten", "[1,2]", "--n", "2"],
    "verify": ["verify", "--n", "2..2", "--m", "1..1"],
    "render": ["render", "--diagram", "n=2; (1,2)"],
}


def test_out_argv_lists_every_subcommand_with_out():
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    with_out = {
        name
        for name, parser in subparsers.choices.items()
        if any("--out" in a.option_strings for a in parser._actions)
    }
    assert with_out == set(OUT_ARGV)


@pytest.mark.parametrize("subcommand", sorted(OUT_ARGV))
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_is_one_line_usage_error(capsys, tmp_path, subcommand, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "x"
    code, out, err = run(capsys, *OUT_ARGV[subcommand], "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "0", "--m", "1"],
        ["count", "--n", "2", "--m", "-1"],
        ["count", "--n", "4", "--m", "2", "--method", "enumerate", "--max-schemes", "-1"],
        ["enumerate", "--n", "3", "--m", "-2"],
        ["enumerate", "--multidegree", "1,1", "--max-schemes", "-1"],
        ["straighten", "[1,2]", "--n", "0"],
        ["verify", "--n", "0..2", "--m", "0..1"],
        ["verify", "--n", "2..2", "--m=-1..1"],
        ["verify", "--n", "2..2", "--m", "0..0", "--max-schemes", "-1"],
        ["render", "--diagram", "n=2; (1,2)", "--size", "0"],
    ],
)
def test_out_of_range_value_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at least" in err


@pytest.mark.parametrize(
    "argv,predicted",
    [
        (["count", "--n", "6", "--m", "5", "--method", "enumerate"], 5292),
        (["count", "--multidegree", "2,2,2,2", "--method", "all"], 3),
        (["enumerate", "--n", "6", "--m", "5"], 5292),
        (["enumerate", "--multidegree", "2,2,2,2"], 3),
    ],
)
def test_max_schemes_guard_message(capsys, argv, predicted):
    code, out, err = run(capsys, *argv, "--max-schemes", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: {predicted} diagrams exceed the --max-schemes guard (2)\n"


#: Per subcommand: the flag sets that make a working call, then the optional flags.
REQUIRED = {
    "count": [["--n", "--m"], ["--multidegree"]],
    "enumerate": [["--n", "--m"], ["--multidegree"]],
    "straighten": [["--n"]],
    "verify": [["--n", "--m"]],
    "render": [["--diagram"]],
}
OPTIONAL = {
    "count": ["--method", "--format", "--max-schemes"],
    "enumerate": ["--format", "--max-schemes"],
    "straighten": ["--verify", "--format", "--stats"],
    "verify": ["--format", "--max-schemes", "--stats"],
    "render": ["--size", "--format"],
}
#: Values a flag accepts, by subcommand where that matters.
GOOD = {
    "--n": [str(k) for k in range(1, 7)],
    "--m": [str(k) for k in range(0, 7)],
    "straighten --n": ["4", "5", "6"],
    "verify --n": ["2..4", "1..3", "2", "5", "6"],
    "verify --m": ["0..2", "1..3", "0", "4", "6"],
    "--max-schemes": ["100", "6", "0"],
    "--size": ["100", "6", "1"],
    "--multidegree": ["1,1,2", "2,2,2,2", "0", "3,3", "1,2,1,2"],
    "--method": ["all", "formula", "product", "recurrence", "enumerate"],
    "--format": ["text", "json"],
    "count --format": ["text", "json", "csv"],
    "render --format": ["svg"],
    "--diagram": ["n=4; (1,3)(2,4)", "n=5; (1,2)(1,2)(3,5)", '{"n": 3, "edges": [[1, 2]]}'],
}
#: Values that parse but must be refused, then junk any flag may get instead.
BAD = {
    "straighten --n": ["1", "2", "3"],
    "verify --n": ["3..1", "2..", "0..2"],
    "verify --m": ["3..1", "2..", "0..2"],
    "--multidegree": ["1,-1", ",", "1,x"],
    "--diagram": [
        "n=3; (1,1)", "n=2; (1,3)", "n=0;", '{"n": 2.5, "edges": []}', '{"edges": 1}',
        '{"n": 3, "edges": [[1]]}', "[]", "n=1" + "0" * 4000 + ";",
        '{"n": 1' + "0" * 400 + ', "edges": [[1, 2]]}', NESTED_JSON,
    ],
    "--size": ["1" + "0" * 400, "9" * 4000],
    "--n": ["9" * 20],
    "--m": ["9" * 20],
}
#: Flags whose BAD values may be drawn together in one argv.
BOTH = ("--n", "--m")
JUNK = [str(k) for k in range(-2, 1)] + ["", "x", "-", "--", "--help", "--bogus", "7..", "1.5"]
POLYNOMIALS = [
    "[1,3][2,4]", "2*[3,1]-[2,1]", "[1,2][1,2][3,5]", "-[2,1]", "[1,", "[6,6]", "0", "[²,1]"
]


@st.composite
def argvs(draw):
    """A subcommand with its flags, at most one of them given a bad or junk
    value, or a bad value on both --n and --m, or else sometimes one loose
    token anywhere; integers run over -2..6, and --out is never drawn, so
    nothing is written."""
    sub = draw(st.sampled_from(sorted(REQUIRED)))
    argv = [sub]
    if sub == "straighten":
        argv.append(draw(st.sampled_from(POLYNOMIALS)))
    flags = draw(st.sampled_from(REQUIRED[sub])) + draw(
        st.lists(st.sampled_from(OPTIONAL[sub]), max_size=3)
    )
    faulty = draw(st.sampled_from([None] * len(flags) + list(range(len(flags)))))
    # a bad --n or --m may bring its partner's bad values along: the 20-digit
    # ones together parse, and only the formula route's guard stops them
    both = faulty is not None and flags[faulty] in BOTH and draw(st.booleans())
    for k, flag in enumerate(flags):
        argv.append(flag)
        if flag in ("--verify", "--stats"):
            continue
        key = f"{sub} {flag}" if f"{sub} {flag}" in GOOD else flag
        if both and key in BOTH:
            values = BAD[key]
        else:
            values = BAD.get(key, []) + JUNK if k == faulty else GOOD[key]
        argv.append(draw(st.sampled_from(values)))
    if faulty is None and draw(st.sampled_from([False] * 4 + [True])):
        loose = draw(st.sampled_from(JUNK + POLYNOMIALS + sorted(REQUIRED)))
        argv.insert(draw(st.integers(0, len(argv))), loose)
    return argv


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argvs())
def test_fuzzed_argv_only_ends_in_an_exit_code(argv):
    """Any argv built from a small token alphabet ends in exit code 0, 1 or 2,
    never in another exception.  The --max-schemes default is lowered so that
    no single example runs a large cell."""
    with mock.patch.object(rumer.cli, "DEFAULT_MAX_SCHEMES", 800), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
