import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from hooktrees import cli, gfparse, hookcalc, treeoracle
from hooktrees.errors import ExpressionError, ParseError
from hooktrees.series import TruncatedSeries


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesCommand:
    def test_increasing_polyalpha(self, capsys):
        code, out, err = run_cli(
            capsys, "series", "--model", "inc", "--phi", "1/(1-t)^a",
            "--param", "a=1", "--order", "4",
        )
        assert code == 0
        assert out == "coefficients 0 1 1/2 1/2 5/8\ncounts _ 1 1 3 15\n"

    def test_simply_generated_binary(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--model", "sg", "--phi", "binary", "--order", "4"
        )
        assert code == 0
        assert out == "coefficients 0 1 2 5 14\n"

    def test_degenerate_family_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "series", "--model", "sg", "--phi", "1+t", "--order", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "degenerate" in err and "--allow-degenerate" in err

    def test_degenerate_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--model", "sg", "--phi", "1+t", "--order", "3",
            "--allow-degenerate",
        )
        assert code == 0
        # phi = 1+t only builds paths: T = z/(1-z)
        assert out == "coefficients 0 1 1 1\n"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--model", "inc", "--phi", "plane", "--order", "3",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["series"] == ["0", "1", "1/2", "1/2"]
        assert payload["counts"] == [None, "1", "1", "3"]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--model", "sg", "--phi", "plane", "--order", "2",
            "--output", "csv",
        )
        assert code == 0
        assert out == "n,coefficient\n0,0\n1,1\n2,1\n"

    def test_builtin_spec_may_space_its_arguments(self, capsys):
        spaced = run_cli(capsys, "series", "--model", "sg", "--phi", "kary: 3", "--order", "3")
        assert spaced == (0, "coefficients 0 1 3 12\n", "")
        assert spaced == run_cli(
            capsys, "series", "--model", "sg", "--phi", "kary:3", "--order", "3"
        )

    def test_bad_order(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--model", "sg", "--phi", "binary", "--order", "0"
        )
        assert code == 2
        assert "order" in err


BUILTIN_SPECS = ["binary", "kary:3", "plane", "labelled", "yang:1/2,3", "polyalpha:2"]


class TestRhoCommand:
    def test_from_model_inc(self, capsys):
        # the inc model weighs a hook of length h by 1/h, whatever the family
        expected = " ".join(["1"] + [f"1/{n}" for n in range(2, 41)]) + "\n"
        for phi in BUILTIN_SPECS:
            got = run_cli(capsys, "rho", "--phi", phi, "--from-model", "inc", "--order", "40")
            assert got == (0, expected, ""), phi

    def test_from_model_sg(self, capsys):
        # the sg model weighs every hook 1, whatever the family
        expected = " ".join(["1"] * 40) + "\n"
        for phi in BUILTIN_SPECS:
            got = run_cli(capsys, "rho", "--phi", phi, "--from-model", "sg", "--order", "40")
            assert got == (0, expected, ""), phi

    @pytest.mark.parametrize(
        "phi,model",
        [
            # d_3 = phi_1 F_2 + phi_2 F_1^2 = 1 - 1 for sg (F_1 = F_2 = 1)
            ("1+t-t^2+t^3", "sg"),
            # and 1/2 - 1/2 for inc (F_1 = 1, F_2 = 1/2)
            ("1+t-(t^2)/2+t^3", "inc"),
        ],
    )
    def test_from_model_vanishing_at_n_3_exits_3(self, capsys, phi, model):
        assert run_cli(capsys, "rho", "--phi", phi, "--from-model", model, "--order", "5") == (
            3,
            "",
            f"warning: {phi}: negative weights at 1 of degrees 0..5: 2 "
            "(identities remain formal)\n"
            "error: rho(3) is undefined: denominator coefficient vanishes "
            "([z^2] phi(F) = 0)\n",
        )

    @pytest.mark.parametrize("model", ["sg", "inc"])
    def test_from_model_solves_through_series_from_rho_once(self, capsys, monkeypatch, model):
        calls = []
        real = hookcalc.series_from_rho

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hookcalc, "series_from_rho", counted)
        code, _, _ = run_cli(
            capsys, "rho", "--from-model", model, "--phi", "binary", "--order", "6"
        )
        assert (code, len(calls)) == (0, 1)

    def test_negative_weight_warning_is_one_short_line(self, capsys):
        code, _, err = run_cli(
            capsys, "rho", "--phi", "yang:1/2,3/2", "--from-model", "sg", "--order", "60"
        )
        assert code == 0
        # (1 + t/2)^(3/2) has negative coefficients at the odd degrees 3..59
        assert err == (
            "warning: yang:1/2,3/2: negative weights at 29 of degrees 0..60: "
            "3, 5, 7, 9, 11, ... (identities remain formal)\n"
        )

    def test_exactly_one_source_required(self, capsys):
        code, _, err = run_cli(
            capsys, "rho", "--phi", "binary", "--order", "4"
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "rho", "--phi", "binary", "--order", "4",
            "--from-model", "sg", "--F", "t",
        )
        assert code == 2

    def test_vanishing_denominator_exits_3(self, capsys):
        # (1+F)^2 loses its z^2 coefficient for F = 2z - 2z^2 + ...
        code, out, err = run_cli(
            capsys, "rho", "--phi", "binary", "--F", "2*t-2*t^2+t^3", "--order", "3"
        )
        assert code == 3
        assert "rho(3)" in err
        assert out == ""
        assert err == (
            "error: rho(3) is undefined: denominator coefficient vanishes "
            "([z^2] phi(F) = 0)\n"
        )

    @pytest.mark.parametrize("order", [2, 7, 30])
    def test_from_model_walks_phi_of_F_once(self, capsys, monkeypatch, order):
        # validate expands phi to degree N: N extends; the walk that solves
        # F and supplies the quotients' denominators: N - 1 more
        calls = []
        extend = gfparse.OnlineSeries.extend

        def counted(self, f):
            calls.append(f)
            return extend(self, f)

        monkeypatch.setattr(gfparse.OnlineSeries, "extend", counted)
        code, out, _ = run_cli(
            capsys, "rho", "--from-model", "sg", "--phi", "labelled",
            "--order", str(order),
        )
        assert (code, out) == (0, " ".join(["1"] * order) + "\n")
        assert len(calls) == 2 * order - 1

    @pytest.mark.parametrize("order", [2, 7, 30])
    def test_forest_walks_phi_of_F_once(self, capsys, monkeypatch, order):
        # --G to order N and validate: N extends each; the walk peeks at
        # every n and steps from n = 2 on: 2N - 1 more
        calls = []
        extend = gfparse.OnlineSeries.extend

        def counted(self, f):
            calls.append(f)
            return extend(self, f)

        monkeypatch.setattr(gfparse.OnlineSeries, "extend", counted)
        code, out, _ = run_cli(
            capsys, "rho-forest", "--phi", "labelled", "--G", "1/(1-t)",
            "--order", str(order),
        )
        expected = " ".join(["1"] + [f"1/{n}" for n in range(2, order + 1)])
        assert (code, out) == (0, expected + "\n")
        assert len(calls) == 4 * order - 1

    @pytest.mark.parametrize("argv, out", [
        # the sg model weighs every hook 1 up to the top order
        pytest.param(["--from-model", "sg", "--phi", "labelled", "--order", "300"],
                     " ".join(["1"] * 300), id="sg-labelled-300"),
        # and the inc model a hook of length h by 1/h
        pytest.param(["--from-model", "inc", "--phi", "binary", "--order", "300"],
                     " ".join(["1"] + [f"1/{n}" for n in range(2, 301)]), id="inc-binary-300"),
        pytest.param(["--phi", "binary", "--F", "t/(1-t)", "--order", "4"], "1 1/2 1/3 1/4",
                     id="binary-from-F"),
        pytest.param(["--phi", "plane", "--F", "t/(1-t)", "--order", "4"], "1 1 1/2 1/4",
                     id="plane-from-F"),
    ])
    def test_prints_the_table(self, capsys, argv, out):
        assert run_cli(capsys, "rho", *argv) == (0, out + "\n", "")

    def test_json_round_trips_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho", "--phi", "labelled", "--from-model", "inc",
            "--order", "5", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"rho": ["1", "1/2", "1/3", "1/4", "1/5"]}


class TestRhoForestCommand:
    def test_param_read_by_the_forest_series_only(self, capsys):
        code, out, err = run_cli(
            capsys, "rho-forest", "--phi", "labelled", "--G", "exp(a*t)",
            "--param", "a=1", "--order", "3",
        )
        assert (code, out, err) == (0, "1 0 0\n", "")

    def test_constant_mismatch(self, capsys):
        assert run_cli(
            capsys, "rho-forest", "--phi", "labelled", "--G", "2/(1-t)", "--order", "4"
        ) == (2, "", "error: --G: G(0) = 2 but the family has phi_0 = 1\n")

    @pytest.mark.parametrize("argv, out", [
        # G = 1/(1-t) for labelled gives rho(n) = 1/n, up to the top order
        pytest.param(["--phi", "labelled", "--order", "4"], "1 1/2 1/3 1/4\n",
                     id="labelled-4"),
        pytest.param(["--phi", "labelled", "--order", "300"],
                     " ".join(["1"] + [f"1/{n}" for n in range(2, 301)]) + "\n",
                     id="labelled-300"),
        pytest.param(["--phi", "binary", "--order", "4", "--output", "csv"],
                     "n,rho\n1,1/2\n2,3/8\n3,5/16\n4,35/128\n", id="binary-csv"),
        pytest.param(["--phi", "binary", "--order", "4", "--output", "json"],
                     '{"rho": ["1/2", "3/8", "5/16", "35/128"]}\n', id="binary-json"),
    ])
    def test_geometric_G_prints_the_table(self, capsys, argv, out):
        assert run_cli(capsys, "rho-forest", "--G", "1/(1-t)", *argv) == (0, out, "")

    def test_vanishing_denominator_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "rho-forest", "--phi", "plane", "--G", "1+t^2+t^3", "--order", "3"
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: rho(2) is undefined: denominator coefficient vanishes "
            "([z^1] G = 0)\n"
        )


class TestVerifyCommand:
    def test_binary_inverse_hooks(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1/n", "--max-n", "7"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        assert lines[0] == "n=1 lhs=1 rhs=1 equal=true"
        assert all(line.endswith("equal=true") for line in lines)

    def test_plane_unweighted(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "plane", "--rho", "1", "--max-n", "7",
            "--output", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [row["lhs"] for row in rows] == ["1", "1", "2", "5", "14", "42", "132"]
        assert all(row["equal"] for row in rows)

    def test_explicit_rho_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "labelled", "--rho", "1,1/2,1/3,1/4",
            "--max-n", "4",
        )
        assert code == 0

    @pytest.mark.parametrize("output, expected", [
        ("plain", "n=1 lhs=1 rhs=1 equal=true\nn=2 lhs=2 rhs=3 equal=false\n"
                  "n=3 lhs=5 rhs=5 equal=true\n"),
        ("csv", "n,lhs,rhs,equal\n1,1,1,true\n2,2,3,false\n3,5,5,true\n"),
        ("json", '{"n": 1, "lhs": "1", "rhs": "1", "equal": true}\n'
                 '{"n": 2, "lhs": "2", "rhs": "3", "equal": false}\n'
                 '{"n": 3, "lhs": "5", "rhs": "5", "equal": true}\n'),
    ])
    def test_perturbed_rhs_is_falsified(self, capsys, monkeypatch, output, expected):
        # a line with unequal sides prints each side's own value
        real = hookcalc.series_from_rho

        def perturbed(rho, family, order):
            series = real(rho, family, order)
            coeffs = list(series.coefficients)
            coeffs[2] += 1
            return TruncatedSeries(coeffs)

        monkeypatch.setattr(hookcalc, "series_from_rho", perturbed)
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1", "--max-n", "3",
            "--output", output,
        )
        assert (code, out) == (1, expected)

    def test_one_tally_pass(self, capsys, monkeypatch):
        from hooktrees.treeoracle import tally

        passes = []
        grouped_sizes = tally._grouped_sizes

        def counted(n):
            passes.append(n)
            return grouped_sizes(n)

        monkeypatch.setattr(tally, "_indexed", {})
        monkeypatch.setattr(tally, "_grouped_sizes", counted)
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "plane", "--rho", "1", "--max-n", "12"
        )
        assert code == 0
        assert out.count("equal=true") == 12
        assert passes == [12]

    @pytest.mark.parametrize("rho", ["x+1/n", "1,x"])
    def test_rho_is_parsed_at_most_once(self, capsys, monkeypatch, rho):
        # an expression in n is parsed once, for its parameters and its
        # values alike; a comma table is never parsed as an expression
        parsed = []
        parse = gfparse.parse

        def counted(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(gfparse, "parse", counted)
        code, _, err = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", rho, "--param", "x=1",
            "--max-n", "2",
        )
        assert parsed.count(rho) == ("," not in rho)
        if "," in rho:  # the table reads no parameter, and "x" is no rational
            assert code == 2 and err == "error: no expression reads --param 'x'\n"
        else:
            assert code == 0

    def test_max_n_bound(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1", "--max-n", "13"
        )
        assert code == 2
        assert "max-n" in err

    def test_postnikov_from_an_expression(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1+1/n", "--max-n", "12"
        )
        assert code == 0
        postnikov = [Fraction(2**n * (n + 1) ** (n - 1), factorial(n)) for n in range(1, 13)]
        assert out.splitlines() == [
            f"n={n} lhs={v} rhs={v} equal=true" for n, v in enumerate(postnikov, 1)
        ]

    def test_param_read_by_rho_only(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "x+1/n", "--param", "x=-3/7",
            "--max-n", "12",
        )
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 12)
        assert all(line.endswith(" equal=true") for line in lines)

    def test_rational_table_at_the_largest_n(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--phi", "yang:1/2,3", "--max-n", "12",
            "--rho", "1,1/2,2/3,3/4,4/5,5/6,6/7,7/8,8/9,9/10,10/11,11/12",
        )
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 12)
        assert all(line.endswith(" equal=true") for line in lines)

    def test_n_in_rho_is_the_hook_length(self, capsys):
        # --param n binds the n of --phi only
        bound = run_cli(
            capsys, "verify", "--phi", "(1+t)^n", "--param", "n=2", "--rho", "n",
            "--max-n", "6",
        )
        assert bound == run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1,2,3,4,5,6", "--max-n", "6"
        )
        assert bound[0] == 0

    @pytest.mark.parametrize("output", ["plain", "json", "csv"])
    @pytest.mark.parametrize("text, table", [
        ("1", "1,1,1,1,1,1,1,1"),
        ("1/n", "1,1/2,1/3,1/4,1/5,1/6,1/7,1/8"),
        ("n", "1,2,3,4,5,6,7,8"),
    ])
    def test_expression_prints_the_bytes_of_its_table(self, capsys, output, text, table):
        argv = ("verify", "--phi", "yang:1/2,3", "--max-n", "8", "--output", output)
        expression = run_cli(capsys, *argv, "--rho", text)
        assert expression == run_cli(capsys, *argv, "--rho", table)
        assert expression[0] == 0

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1", "--max-n", "2",
            "--output", "csv",
        )
        assert code == 0
        assert out == "n,lhs,rhs,equal\n1,1,1,true\n2,2,2,true\n"


class TestLabellingsCommand:
    @pytest.mark.parametrize("word, out", [
        ("((())())", "tree ((())())\nn 4\nhooks 4 2 1 1\nhook-formula 3\nrecursive 3\n"
                     "bruteforce 3\nagree true\n"),
        # the largest size the brute force runs at
        ("(((()())(()))())", "tree (((()())(()))())\nn 8\nhooks 8 6 3 1 1 2 1 1\n"
                             "hook-formula 140\nrecursive 140\nbruteforce 140\nagree true\n"),
    ], ids=["4-vertices", "8-vertices"])
    def test_small_tree_prints_every_count(self, capsys, word, out):
        assert run_cli(capsys, "labellings", "--tree", word) == (0, out, "")

    def test_single_node(self, capsys):
        code, out, _ = run_cli(
            capsys, "labellings", "--tree", "()", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hook_formula"] == "1"
        assert payload["recursive"] == 1
        assert payload["bruteforce"] == 1
        assert payload["agree"] is True

    def test_unbalanced_tree_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "labellings", "--tree", "(()")
        assert code == 2
        assert "offset" in err

    def test_large_tree_skips_bruteforce(self, capsys):
        for leaves in (8, 9):  # 9 and 10 vertices, past BRUTE_FORCE_LIMIT
            code, out, _ = run_cli(capsys, "labellings", "--tree", "(" + "()" * leaves + ")")
            assert code == 0
            assert "\nbruteforce skipped\n" in out
            assert "agree true" in out

    @pytest.mark.parametrize("output", ["plain", "csv", "json"])
    @pytest.mark.parametrize("counter, field", [
        ("labellings_hook", "hook-formula"),
        ("labellings_recursive", "recursive"),
        ("labellings_bruteforce", "bruteforce"),
    ])
    def test_disagreement_prints_each_count(self, capsys, monkeypatch, counter, field, output):
        # one counter is off by one: it prints its own value, the others 3
        real = getattr(treeoracle, counter)
        monkeypatch.setattr(treeoracle, counter, lambda tree: real(tree) + 1)
        code, out, _ = run_cli(capsys, "labellings", "--tree", "((())())", "--output", output)
        counts = {name: 4 if name == field else 3
                  for name in ("hook-formula", "recursive", "bruteforce")}
        fields = [("tree", "((())())"), ("n", "4"), ("hooks", "4 2 1 1"),
                  *((name, str(count)) for name, count in counts.items()), ("agree", "false")]
        if output == "plain":
            expected = "".join(f"{name} {value}\n" for name, value in fields)
        elif output == "csv":
            expected = "".join(f"{name},{value}\n" for name, value in [("field", "value"), *fields])
        else:
            expected = json.dumps({
                "tree": "((())())", "n": 4, "hooks": [4, 2, 1, 1],
                "hook_formula": str(counts["hook-formula"]),
                "recursive": counts["recursive"], "bruteforce": counts["bruteforce"],
                "agree": False,
            }) + "\n"
        assert (code, out) == (1, expected)

    @pytest.mark.parametrize("argv, conversions", [
        (["labellings", "--tree", "(" + "()" * 8 + ")"], 1),
        (["labellings", "--tree", "((())())"], 1),
        # the json object still writes the ints n, recursive and bruteforce
        (["labellings", "--tree", "((())())", "--output", "json"], 4),
        (["verify", "--phi", "binary", "--rho", "1", "--max-n", "6"], 6),
    ])
    def test_each_distinct_count_is_converted_once(self, capsys, monkeypatch, argv, conversions):
        calls = []
        convert = cli.rational_to_string

        def counted(value):
            calls.append(value)
            return convert(value)

        monkeypatch.setattr(cli, "rational_to_string", counted)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == conversions


class TestContract:
    def test_determinism_byte_identical(self, capsys):
        args = ("verify", "--phi", "kary:3", "--rho", "1/n", "--max-n", "6",
                "--output", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert "hooktrees" in capsys.readouterr().out

    def test_console_script_is_run(self):
        # only run() exits 141 on a closed pipe and 4 on a failed write
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
        scripts = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]*)"', section[1], re.M))
        assert list(scripts) == ["hooktrees"]
        module, _, name = scripts["hooktrees"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run

    def test_internal_error_exits_4_with_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("no such state")

        monkeypatch.setitem(cli._COMMANDS, "series", (*cli._COMMANDS["series"][:2], broken))
        code, out, err = run_cli(
            capsys, "series", "--model", "sg", "--phi", "plane", "--order", "3"
        )
        assert (code, out) == (4, "")
        assert err == "error: internal error: RuntimeError: no such state\n"

    def test_interrupt_is_not_an_internal_error(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "verify", (*cli._COMMANDS["verify"][:2], interrupted))
        with pytest.raises(KeyboardInterrupt):
            cli.main(["verify", "--phi", "plane", "--rho", "1", "--max-n", "3"])

    def test_usage_error_exits_2_with_one_line(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["series", "--model", "sg", "--phi", "binary", "--order", "x"])
        assert (info.value.code, *capsys.readouterr()) == (
            2, "", "error: --order needs an integer, got 'x'\n")

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    def test_errors_go_to_stderr_not_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "rho", "--phi", "binary", "--F", "1+t", "--order", "3"
        )
        assert code == 2
        assert out == ""
        assert err != ""

    def test_bad_param_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--model", "sg", "--phi", "(1+t)^k",
            "--param", "k:3", "--order", "3",
        )
        assert code == 2
        assert "param" in err

    def test_unbound_parameter_message(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--model", "sg", "--phi", "(1+t)^k", "--order", "3"
        )
        assert code == 2
        assert "k" in err


class TestInputBounds:
    """Each bounded resource and each bad rational exits 2 with one line; an
    undefined rho(h) exits 3 with one line that names h."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["series", "--model", "sg", "--order", "5", "--phi", "(1+s*t)^m",
              "--param", "s=1/0", "--param", "m=3"], "zero denominator"),
            (["verify", "--phi", "plane", "--rho", "1,1/0,1", "--max-n", "3"],
             "zero denominator"),
            (["labellings", "--tree", "(" * 1200 + ")" * 1200], "levels deep"),
            (["series", "--model", "sg", "--order", "5",
              "--phi", "(" * 1200 + "1+t^2" + ")" * 1200], "levels deep"),
            (["series", "--model", "sg", "--order", "5", "--phi", "1" + "+t^2" * 1500],
             "levels deep"),
            (["series", "--model", "sg", "--order", str(cli.MAX_ORDER + 1), "--phi", "plane"],
             "at most"),
            (["rho", "--from-model", "inc", "--order", str(cli.MAX_ORDER + 1),
              "--phi", "binary"], "at most"),
            (["rho-forest", "--G", "1/(1-t)", "--order", str(cli.MAX_ORDER + 1),
              "--phi", "labelled"], "at most"),
            (["series", "--model", "sg", "--order", "5", "--phi", "1+t+2^(10^9)*t^2"],
             "too large"),
            (["series", "--model", "sg", "--order", "5", "--phi", "(1+t)^(2^100)"],
             "too large"),
            (["series", "--model", "sg", "--order", "6", "--phi", "a", "--param", "a=0"],
             "not positive; degenerate family"),
            (["series", "--model", "sg", "--phi", "1+t^2", "--param", "t=1", "--order", "3"],
             "cannot bind 't'"),
            (["rho", "--from-model", "sg", "--phi", "plane", "--param", "exp=1", "--order", "3"],
             "cannot bind 'exp'"),
            (["verify", "--phi", "(1+a*t)^2", "--param", "a=1", "--param", "log=2",
              "--rho", "1", "--max-n", "3"], "cannot bind 'log'"),
            (["series", "--model", "sg", "--phi", "binary", "--param", "q=1", "--order", "3"],
             "no expression reads --param 'q'"),
            (["series", "--model", "sg", "--phi", "kary:3", "--param", "k=3", "--order", "3"],
             "no expression reads --param 'k'"),
            (["series", "--model", "sg", "--phi", "1+a*t^2", "--param", "a=1",
              "--param", "b=5", "--order", "3"], "no expression reads --param 'b'\n"),
            (["verify", "--phi", "binary", "--rho", "x+1/n", "--param", "x=1",
              "--param", "y=2", "--max-n", "3"], "no expression reads --param 'y'\n"),
            # in --rho, n is the hook length and never a parameter
            (["verify", "--phi", "binary", "--rho", "n", "--param", "n=5", "--max-n", "3"],
             "no expression reads --param 'n'\n"),
            (["verify", "--phi", "plane", "--rho", "n^(1/2)", "--max-n", "4"],
             "--rho: a power in rho(n) is not rational"),
            (["verify", "--phi", "plane", "--rho", "1+t", "--max-n", "4"],
             "--rho: the variable t may not appear in rho(n)"),
            (["verify", "--phi", "plane", "--rho", "exp(n)", "--max-n", "4"],
             "--rho: exp/log are not allowed in rho(n)"),
            (["verify", "--phi", "plane", "--rho", "log(n)", "--max-n", "4"],
             "--rho: exp/log are not allowed in rho(n)"),
            (["verify", "--phi", "plane", "--rho", "n^(10^9)", "--max-n", "4"],
             "too large"),
        ],
    )
    def test_exits_2_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "argv,line",
        [
            # 1 + F^2 has no z^1 term, since F(0) = 0
            (["rho", "--phi", "1+t^2", "--from-model", "sg", "--order", "4"],
             "rho(2) is undefined: denominator coefficient vanishes ([z^1] phi(F) = 0)"),
            (["rho", "--phi", "1+t^2", "--from-model", "inc", "--order", "4"],
             "rho(2) is undefined: denominator coefficient vanishes ([z^1] phi(F) = 0)"),
            (["verify", "--phi", "plane", "--rho", "1/(n-2)", "--max-n", "4"],
             "--rho: rho(2) is undefined: division by zero in rho(n) (at offsets 0..6)"),
            (["verify", "--phi", "binary", "--rho", "x+(n-3)^(-1)", "--param", "x=1",
              "--max-n", "5"],
             "--rho: rho(3) is undefined: zero raised to a negative power (at offsets 3..11)"),
            (["verify", "--phi", "plane", "--rho", "0^(n-3)", "--max-n", "4"],
             "--rho: rho(1) is undefined: zero raised to a negative power (at offsets 0..6)"),
        ],
    )
    def test_undefined_rho_exits_3_with_one_line(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (3, "", f"error: {line}\n")

    def test_deepest_tree_and_largest_order_still_run(self, capsys):
        depth = treeoracle.MAX_TREE_DEPTH
        code, out, _ = run_cli(capsys, "labellings", "--tree", "(" * depth + ")" * depth)
        assert code == 0
        assert "agree true" in out
        code, out, _ = run_cli(
            capsys, "series", "--model", "sg", "--order", str(cli.MAX_ORDER), "--phi", "plane"
        )
        assert code == 0
        assert out.split()[-1] == str(comb(2 * cli.MAX_ORDER - 2, cli.MAX_ORDER - 1) // cli.MAX_ORDER)



class TestExpressionErrorsNameTheFlag:
    """A parse, evaluation or series error in an expression, or a bad
    value, names the flag whose text it came from once, in one line, and
    exits 2.  An error about the family as a whole names no flag."""

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["verify", "--phi", "binary", "--rho", "1+", "--max-n", "3"],
             "--rho: unexpected end of input at offset 2 "
             "(expected '(', '-', identifier, number)"),
            (["verify", "--phi", "(1+a*t)^2", "--param", "a=1", "--rho", "q/n",
              "--max-n", "3"],
             "--rho: parameter 'q' is not bound (at offsets 0..1)"),
            (["verify", "--phi", "plane", "--rho", "1+t", "--max-n", "4"],
             "--rho: the variable t may not appear in rho(n) (at offsets 2..3)"),
            (["verify", "--phi", "plane", "--rho", "exp(n)", "--max-n", "4"],
             "--rho: exp/log are not allowed in rho(n) (at offsets 0..6)"),
            # a bad rational names the flag it was read from
            (["series", "--model", "sg", "--order", "5", "--phi", "kary:1/0"],
             "--phi: zero denominator in rational literal '1/0'"),
            (["series", "--model", "sg", "--order", "5", "--phi", "(1+s*t)^m",
              "--param", "s=1/0", "--param", "m=3"],
             "--param: zero denominator in rational literal '1/0'"),
            (["verify", "--phi", "binary", "--rho", "1,1/0,1", "--max-n", "3"],
             "--rho: zero denominator in rational literal '1/0'"),
            (["series", "--model", "sg", "--order", "3", "--phi", "log(2+t)"],
             "--phi: log requires constant term exactly 1 (at offsets 0..8)"),
            (["verify", "--phi", "(1+q*t)^2", "--rho", "1", "--max-n", "3"],
             "--phi: parameter 'q' is not bound (at offsets 3..4)"),
            (["series", "--model", "inc", "--order", "3", "--phi", "1+t^2*"],
             "--phi: unexpected end of input at offset 6 "
             "(expected '(', '-', identifier, number)"),
            (["rho", "--phi", "binary", "--F", "(1+t", "--order", "3"],
             "--F: unexpected end of input at offset 4 (expected ))"),
            (["rho", "--phi", "binary", "--F", "exp(1+t)", "--order", "3"],
             "--F: exp requires constant term exactly 0 (at offsets 0..8)"),
            (["rho-forest", "--phi", "binary", "--G", "1/t", "--order", "3"],
             "--G: cannot divide by a series with constant term 0 (at offsets 0..3)"),
            (["rho-forest", "--phi", "binary", "--G", "1+t^x", "--order", "3"],
             "--G: parameter 'x' is not bound (at offsets 4..5)"),
            # a constant past the interpreter's int/str digit limit prints exactly
            pytest.param(
                ["series", "--model", "sg", "--order", "3", "--phi", "(2*10^5000+t)^(1/2)"],
                f"--phi: constant term 2{'0' * 5000} has no exact rational root of index 2 "
                "(at offsets 1..18)", id="huge-constant"),
            (["series", "--model", "sg", "--order", "3", "--phi", "kary:1"],
             "--phi: kary requires k >= 2, got 1"),
            (["series", "--model", "sg", "--order", "3", "--phi", "(1+t)^k",
              "--param", "k:3"],
             "--param: malformed binding 'k:3', expected NAME=P/Q"),
            # a rational literal takes ASCII digits in every flag
            (["series", "--model", "sg", "--order", "3", "--phi", "(1+s*t)^2",
              "--param", "s=\u0663"],
             "--param: not a rational literal: '\u0663' (use p or p/q)"),
            (["verify", "--phi", "plane", "--rho", "\u0661,\u0662,\u0663", "--max-n", "3"],
             "--rho: not a rational literal: '\u0661' (use p or p/q)"),
            (["series", "--model", "sg", "--order", "3", "--phi", "kary:\u0663"],
             "--phi: not a rational literal: '\u0663' (use p or p/q)"),
            (["series", "--model", "sg", "--order", "3", "--phi", "kary:\uff13"],
             "--phi: not a rational literal: '\uff13' (use p or p/q)"),
            (["series", "--model", "sg", "--order", "3", "--phi", "1+\u0663*t^2"],
             "--phi: non-ASCII character '\u0663' at offset 2"),
            # a name is ASCII letters, digits and "_" in every flag
            (["series", "--model", "sg", "--order", "4", "--phi", "1+t+a\u00e9*t^2",
              "--param", "a\u00e9=1"],
             "--param: malformed binding 'a\u00e9=1', expected NAME=P/Q"),
            (["series", "--model", "sg", "--order", "4", "--phi", "1+t+a\u0663*t^2",
              "--param", "a\u0663=1"],
             "--param: malformed binding 'a\u0663=1', expected NAME=P/Q"),
            (["verify", "--phi", "plane", "--rho", "x\u00e9+1/n", "--param", "x\u00e9=1",
              "--max-n", "3"],
             "--param: malformed binding 'x\u00e9=1', expected NAME=P/Q"),
            (["series", "--model", "sg", "--order", "4", "--phi", "1+t^2", "--param", "\u00e9=1"],
             "--param: malformed binding '\u00e9=1', expected NAME=P/Q"),
            (["series", "--model", "sg", "--order", "4", "--phi", "1+t+a\u00e9*t^2"],
             "--phi: non-ASCII character '\u00e9' at offset 5"),
            (["series", "--model", "sg", "--order", "4", "--phi", "1+t+a\u0663*t^2"],
             "--phi: non-ASCII character '\u0663' at offset 5"),
            (["verify", "--phi", "plane", "--rho", "x\u00e9+1/n", "--max-n", "3"],
             "--rho: non-ASCII character '\u00e9' at offset 1"),
            (["labellings", "--tree", "(()"], "--tree: unclosed '(' at offset 3"),
            pytest.param(
                ["labellings", "--tree", "(" * 201 + ")" * 201],
                "--tree: tree nests more than 200 levels deep at offset 200", id="deep-tree"),
            (["series", "--model", "sg", "--order", "3", "--phi", "foo(t)"],
             "--phi: unknown function 'foo' at offset 0 (expected exp, log)"),
            (["verify", "--phi", "plane", "--rho", "sin(n)", "--max-n", "3"],
             "--rho: unknown function 'sin' at offset 0 (expected exp, log)"),
            (["series", "--model", "sg", "--order", "3", "--phi", "kary"],
             "--phi: family spec 'kary' takes 1 parameter(s), got 0"),
            (["series", "--model", "sg", "--order", "3", "--phi", "kary:1/2"],
             "--phi: kary arity must be an integer, got 1/2"),
            (["series", "--model", "sg", "--order", "3", "--phi", "2*t^(-1)"],
             "--phi: negative power of a series with constant term 0 (at offsets 2..7)"),
            (["series", "--model", "sg", "--order", "3", "--phi", "1+t^(1/2)"],
             "--phi: non-integer power of a series with constant term 0 (at offsets 2..8)"),
            # outside --rho, a constant that divides by zero is an input error
            (["series", "--model", "sg", "--order", "3", "--phi", "1+t^(1/(1-1))"],
             "--phi: division by zero in an exponent (at offsets 5..11)"),
            (["rho", "--phi", "binary", "--F", "1+t", "--order", "3"],
             "--F: a tree counting series must have F(0) = 0"),
            (["rho-forest", "--phi", "binary", "--G", "2+t", "--order", "3"],
             "--G: G(0) = 2 but the family has phi_0 = 1"),
            # phi_1 = 0 is about --phi, not --G
            (["rho-forest", "--phi", "1+t^2", "--G", "1+t", "--order", "3"],
             "phi_1 = 0: the degree-weight series has no compositional inverse"),
            (["series", "--model", "sg", "--order", "3", "--phi", "1+t"],
             "1+t: degenerate family: phi_k = 0 for all k in 2..3 "
             "(use --allow-degenerate to run anyway)"),
            pytest.param(["series", "--model", "sg", "--order", "3", "--phi", "1+t+a\u00e9*t^2"],
                         "--phi: non-ASCII character '\u00e9' at offset 5", id="non-ascii-name"),
        ],
    )
    def test_one_line_names_the_flag(self, capsys, argv, line):
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    def test_error_keeps_its_type_and_position(self):
        with pytest.raises(ParseError) as info:
            cli._read_flag("--rho", gfparse.parse, "1+")
        assert info.value.offset == 2
        assert str(info.value).startswith("--rho: unexpected end of input")
        with pytest.raises(ExpressionError, match="^--phi: log requires constant term") as info:
            cli._read_flag("--phi", gfparse.evaluate, gfparse.parse("log(2+t)"), {}, 3)
        assert info.value.span == (0, 8)


class TestBigIntegers:
    """Integers longer than the interpreter's int/str digit limit (4300 by
    default) are read and printed exactly, and the limit is left alone."""

    @pytest.mark.parametrize(
        "argv,last",
        [
            (["--phi", "1+10^5000*t^2"], "1" + "0" * 5000),
            (["--phi", "1+a*t^2", "--param", "a=" + "7" * 5000], "7" * 5000),
            (["--phi", "1+" + "7" * 5000 + "*t^2"], "7" * 5000),
        ],
        ids=["power", "param", "literal"],
    )
    def test_exact_digits(self, capsys, argv, last):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, "series", "--model", "sg", "--order", "3", *argv)
        assert (code, err) == (0, "")
        assert out == f"coefficients 0 1 0 {last}\n"
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("output", ["plain", "json", "csv"])
    def test_labellings_of_a_large_star(self, capsys, output):
        # the root of a star with 2000 leaves: 2000! labellings, 5736 digits
        limit = sys.get_int_max_str_digits()
        digits = str(Decimal(factorial(2000)))
        code, out, err = run_cli(
            capsys, "labellings", "--tree", "(" + "()" * 2000 + ")", "--output", output
        )
        assert (code, err) == (0, "")
        expected = {
            "plain": [f"hook-formula {digits}\n", f"recursive {digits}\n",
                      "bruteforce skipped\n", "agree true\n"],
            "json": [f'"hook_formula": "{digits}", "recursive": {digits}, '
                     '"bruteforce": null, "agree": true}\n'],
            "csv": [f"hook-formula,{digits}\nrecursive,{digits}\nbruteforce,\n"],
        }[output]
        assert all(part in out for part in expected)
        assert sys.get_int_max_str_digits() == limit


class TestCsvOutput:
    # cells are joined by commas with no quoting, so the csv module must
    # read each table back and write it again to the same bytes
    @pytest.mark.parametrize("argv", [
        pytest.param(["series", "--model", "sg", "--phi", "yang:1/2,4", "--order", "8"],
                     id="series-sg"),
        pytest.param(["series", "--model", "inc", "--phi", "1-t/2+t^2", "--order", "8"],
                     id="series-inc"),
        pytest.param(["rho", "--phi", "binary", "--F", "t/(1-t)^2", "--order", "8"], id="rho"),
        pytest.param(["rho-forest", "--phi", "labelled", "--G", "1/(1-t)", "--order", "8"],
                     id="rho-forest"),
        pytest.param(["verify", "--phi", "binary", "--rho", "1", "--max-n", "3"],
                     id="verify-falsified"),
        pytest.param(["labellings", "--tree", "((())())"], id="labellings"),
        # 2000! has 5736 digits, past the int/str limit of 4300, and the
        # brute force is skipped past 8 vertices
        pytest.param(["labellings", "--tree", "(" + "()" * 2000 + ")"],
                     id="labellings-large-star"),
    ])
    def test_the_csv_module_writes_the_same_bytes(self, capsys, monkeypatch, argv):
        if argv[0] == "verify":
            real = hookcalc.series_from_rho

            def perturbed(rho, family, order):
                coeffs = list(real(rho, family, order).coefficients)
                coeffs[2] += 1
                return TruncatedSeries(coeffs)

            monkeypatch.setattr(hookcalc, "series_from_rho", perturbed)
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        assert code == (1 if argv[0] == "verify" else 0)
        rows = list(csv.reader(io.StringIO(out)))
        # a comma or line break inside a cell would change a row's length
        assert len(rows[0]) >= 2 and {len(row) for row in rows} == {len(rows[0])}
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        assert buffer.getvalue() == out


class TestColdStart:
    @staticmethod
    def cold(code):
        """The stdout lines of ``code`` run in a fresh interpreter.  -S keeps
        site-packages and its .pth files out, so only the package and the
        stdlib modules it imports are loaded."""
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        return src, result.stdout.splitlines()

    def test_import_needs_no_dataclasses_inspect_or_typing(self):
        src, (location, loaded) = self.cold(
            "import sys, hooktrees.cli; "
            "print(hooktrees.cli.__file__); "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
        )
        assert Path(location).resolve().is_relative_to(src)
        assert loaded == "[]"

    @pytest.mark.parametrize("output, loaded", [
        ("plain", "[]"),
        ("json", "['json']"),
        ("csv", "[]"),
    ])
    def test_only_the_output_format_imports_its_module(self, output, loaded):
        # argparse, and the gettext and locale it pulls in, are not used at all
        _, lines = self.cold(
            "import sys, hooktrees.cli; "
            "hooktrees.cli.main(['series', '--model', 'sg', '--phi', 'binary', "
            f"'--order', '3', '--output', '{output}']); "
            "print(sorted({'argparse', 'json', 'csv', 'gettext', 'locale'} & set(sys.modules)))"
        )
        assert lines[-1] == loaded

    # A verify whose right side is off by one at n = 2, as in
    # TestVerifyCommand.test_perturbed_rhs_is_falsified.
    PERTURB = (
        "from hooktrees import hookcalc\n"
        "from hooktrees.series import TruncatedSeries\n"
        "real = hookcalc.series_from_rho\n"
        "def perturbed(rho, family, order):\n"
        "    coeffs = list(real(rho, family, order).coefficients)\n"
        "    coeffs[2] += 1\n"
        "    return TruncatedSeries(coeffs)\n"
        "hookcalc.series_from_rho = perturbed\n"
    )

    # One command of each exit path: SystemExit inside main (--version,
    # --help, a usage error), exit 0, 1, 2 and 3, and large outputs that
    # must still be flushed when the process ends, to a pipe and to a
    # regular file.  Each row is (argv, status, where stdout goes, code run
    # before main).
    ENTRY_COMMANDS = [
        pytest.param(["--version"], 0, "pipe", "", id="version"),
        pytest.param(["--help"], 0, "pipe", "", id="help"),
        pytest.param(["verify", "--help"], 0, "pipe", "", id="command-help"),
        pytest.param(["series", "--model", "sg", "--phi", "binary", "--order", "x"], 2,
                     "pipe", "", id="usage-error"),
        pytest.param(["series", "--model", "sg", "--phi", "binary", "--order", "3"], 0,
                     "pipe", "", id="series"),
        pytest.param(["verify", "--phi", "binary", "--rho", "1", "--max-n", "3"], 1,
                     "pipe", PERTURB, id="verify-falsified"),
        pytest.param(["verify", "--phi", "binary", "--rho", "1+", "--max-n", "3"], 2,
                     "pipe", "", id="expression-error"),
        pytest.param(["rho", "--phi", "1+t^2", "--from-model", "sg", "--order", "4"], 3,
                     "pipe", "", id="rho-undefined"),
        pytest.param(["rho-forest", "--phi", "labelled", "--G", "1/(1-t)", "--order", "300"],
                     0, "pipe", "", id="rho-forest-300"),
        pytest.param(["series", "--model", "sg", "--phi", "labelled", "--order", "300"], 0,
                     "pipe", "", id="series-300"),
        pytest.param(["series", "--model", "sg", "--phi", "labelled", "--order", "300"], 0,
                     "file", "", id="series-300-to-file"),
    ]

    @pytest.mark.parametrize("argv", [
        pytest.param(["series", "--model", "sg", "--phi", "labelled", "--order", "300"],
                     id="series-300"),
        pytest.param(["labellings", "--tree", "(" + "()" * 5000 + ")"], id="star-5000"),
        pytest.param(["--version"], id="version"),
    ])
    def test_closed_stdout_exits_141_silently(self, argv):
        # stdout is buffered, as it is unless PYTHONUNBUFFERED is set: a
        # short output breaks the pipe at a flush, a long one while the
        # command prints; --version exits through SystemExit
        src = Path(__file__).resolve().parents[1] / "src"
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        child = subprocess.Popen(
            [sys.executable, "-S", "-c", "import hooktrees.cli; hooktrees.cli.run()", *argv],
            env=dict(env, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=60), err) == (141, b"")

    @staticmethod
    def python(*args, env=os.environ, **options):
        """``python -S ARGS`` run with the package's source on its path."""
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run([sys.executable, "-S", *args],
                              env=dict(env, PYTHONPATH=str(src)), **options)

    @classmethod
    def entry(cls, call, argv, tmp_path, sink, patch):
        """Exit code, stdout and stderr bytes of ``hooktrees.cli.<call>``
        run in a fresh interpreter after ``patch``, with stdout on a pipe or
        a regular file, and whether an atexit handler ran."""
        ran = tmp_path / f"{call}.ran"
        code = (
            "import atexit, sys, hooktrees.cli\n"
            f"atexit.register(lambda: open({str(ran)!r}, 'w').close())\n"
            + patch
            + f"sys.argv[1:] = {argv!r}\n"
            + ("hooktrees.cli.run()\n" if call == "run"
               else "sys.exit(hooktrees.cli.main())\n")
        )
        out = tmp_path / f"{call}.out"
        with open(out, "wb") as handle:
            result = cls.python("-c", code, stderr=subprocess.PIPE,
                                stdout=handle if sink == "file" else subprocess.PIPE)
        stdout = out.read_bytes() if sink == "file" else result.stdout
        return result.returncode, stdout, result.stderr, ran.exists()

    @pytest.mark.parametrize("argv, status, sink, patch", ENTRY_COMMANDS)
    def test_run_gives_the_output_of_main(self, argv, status, sink, patch, capsys,
                                          monkeypatch, tmp_path):
        # run() ends the process through os._exit: its exit code, stdout and
        # stderr are still main()'s, byte for byte, and atexit handlers run
        monkeypatch.setattr(hookcalc, "series_from_rho", hookcalc.series_from_rho)
        exec(patch, {})
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        expected = (code, captured.out.encode(), captured.err.encode(), True)
        assert code == status
        assert self.entry("run", argv, tmp_path, sink, patch) == expected
        assert self.entry("main", argv, tmp_path, sink, patch) == expected

    @pytest.mark.parametrize("watch, torn_down", [
        ("", False),
        ("sys.settrace(lambda *args: None)", True),
        ("sys.setprofile(lambda *args: None)", True),
    ], ids=["unwatched", "traced", "profiled"])
    def test_run_skips_teardown_unless_watched(self, watch, torn_down, tmp_path):
        # an object that lives until teardown leaves a file when it is
        # finalized; a traced or profiled run ends through sys.exit
        marker = tmp_path / "torn"
        code = (
            "import sys, hooktrees.cli\n"
            "class Torn:\n"
            f"    def __del__(self, open=open, path={str(marker)!r}):\n"
            "        open(path, 'w').close()\n"
            "keep = Torn()\n"
            "sys.argv[1:] = ['--version']\n"
            f"{watch}\n"
            "hooktrees.cli.run()\n"
        )
        result = self.python("-c", code, capture_output=True)
        assert (result.returncode, result.stdout, result.stderr) == (
            0, f"hooktrees {cli.__version__}\n".encode(), b"")
        assert marker.exists() == torn_down

    def test_profiled_run_still_prints_its_table(self):
        # from Python 3.12 on cProfile attaches through sys.monitoring, not
        # sys.setprofile; either way the process must end through sys.exit
        result = self.python("-m", "cProfile", "-m", "hooktrees.cli", "--version",
                             capture_output=True, text=True)
        lines = result.stdout.splitlines()
        assert (result.returncode, result.stderr) == (0, "")
        assert lines[0] == f"hooktrees {cli.__version__}"
        assert "function calls" in lines[1]
        assert "Ordered by" in result.stdout

    def test_inspected_run_reaches_the_prompt(self):
        # python -i reads its stdin once the command is done
        result = self.python("-i", "-m", "hooktrees.cli", "--version", capture_output=True,
                             text=True, input="print('inspected')\n")
        assert result.stdout == f"hooktrees {cli.__version__}\ninspected\n"

    @classmethod
    def full(cls, argv, streams, unbuffered, watch=""):
        """Exit code and captured stderr and stdout bytes of ``run``, after
        ``watch``, with each of ``streams`` written to /dev/full, which
        fails every write with ENOSPC."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            result = cls.python(
                "-c", f"import sys, hooktrees.cli\n{watch}\nhooktrees.cli.run()", *argv, env=env,
                stdout=full if "stdout" in streams else subprocess.PIPE,
                stderr=full if "stderr" in streams else subprocess.PIPE,
            )
        return result.returncode, result.stderr, result.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        pytest.param(["--version"], id="version"),
        pytest.param(["--help"], id="help"),
        pytest.param(["verify", "--help"], id="command-help"),
        pytest.param(["series", "--model", "sg", "--phi", "binary", "--order", "5"],
                     id="series"),
        pytest.param(["series", "--model", "sg", "--phi", "labelled", "--order", "300"],
                     id="series-300"),
        pytest.param(["verify", "--phi", "plane", "--rho", "1", "--max-n", "6"],
                     id="verify"),
    ])
    def test_failed_write_to_stdout_exits_4_with_one_line(self, argv, unbuffered):
        assert self.full(argv, ["stdout"], unbuffered) == (
            4, b"error: internal error: OSError: [Errno 28] No space left on device\n", None)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, status, out", [
        pytest.param(["series", "--model", "sg", "--phi", "binary", "--order", "x"], 2, b"",
                     id="usage-error"),
        pytest.param(["verify", "--phi", "binary", "--rho", "1+", "--max-n", "3"], 2, b"",
                     id="expression-error"),
        pytest.param(["verify", "--phi", "plane", "--rho", "1,2", "--max-n", "3"], 2, b"",
                     id="short-rho-table"),
        pytest.param(["rho", "--phi", "1+t^2", "--from-model", "sg", "--order", "4"], 3, b"",
                     id="rho-undefined"),
        # the warning line is lost; the command still runs and prints
        pytest.param(["series", "--model", "sg", "--phi", "1+t-t^2+t^3", "--order", "5"], 0,
                     b"coefficients 0 1 1 0 -1 1\n", id="warning"),
    ])
    def test_failed_write_to_stderr_keeps_the_exit_code(self, argv, status, out, unbuffered):
        assert self.full(argv, ["stderr"], unbuffered) == (status, None, out)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_writes_to_both_streams_exit_4(self):
        assert self.full(["--version"], ["stdout", "stderr"], False) == (4, None, None)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, streams, status", [
        (["--version"], ["stdout"], 4),
        (["series", "--model", "sg", "--phi", "binary", "--order", "x"], ["stderr"], 2),
        (["--version"], ["stdout", "stderr"], 4),
    ], ids=["stdout", "stderr", "both"])
    def test_profiled_run_keeps_the_exit_code_of_a_failed_write(self, argv, streams, status):
        # a run that ends through sys.exit flushes its streams once more there
        code, _, _ = self.full(argv, streams, False, watch="sys.setprofile(lambda *args: None)")
        assert code == status
