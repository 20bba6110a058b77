import json
import os
import subprocess
import sys
from decimal import Decimal
from math import comb, factorial
from pathlib import Path

import pytest

from hooktrees import cli, hookcalc, treeoracle
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


class TestRhoCommand:
    def test_from_model_inc(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho", "--phi", "binary", "--from-model", "inc", "--order", "6"
        )
        assert code == 0
        assert out == "1 1/2 1/3 1/4 1/5 1/6\n"

    def test_from_model_sg(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho", "--phi", "plane", "--from-model", "sg", "--order", "5"
        )
        assert code == 0
        assert out == "1 1 1 1 1\n"

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

    def test_explicit_series_expression(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho", "--phi", "binary", "--F", "t/(1-t)", "--order", "4"
        )
        assert code == 0
        assert out == "1 1/2 1/3 1/4\n"

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

    def test_json_round_trips_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho", "--phi", "labelled", "--from-model", "inc",
            "--order", "5", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"rho": ["1", "1/2", "1/3", "1/4", "1/5"]}


class TestRhoForestCommand:
    def test_labelled_geometric(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho-forest", "--phi", "labelled", "--G", "1/(1-t)", "--order", "4"
        )
        assert code == 0
        assert out == "1 1/2 1/3 1/4\n"

    def test_param_read_by_the_forest_series_only(self, capsys):
        code, out, err = run_cli(
            capsys, "rho-forest", "--phi", "labelled", "--G", "exp(a*t)",
            "--param", "a=1", "--order", "3",
        )
        assert (code, out, err) == (0, "1 0 0\n", "")

    def test_constant_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "rho-forest", "--phi", "labelled", "--G", "2/(1-t)", "--order", "4"
        )
        assert code == 2
        assert "phi_0" in err


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

    def test_perturbed_rhs_is_falsified(self, capsys, monkeypatch):
        real = hookcalc.series_from_rho

        def perturbed(rho, family, order):
            series = real(rho, family, order)
            coeffs = list(series.coefficients)
            coeffs[2] += 1
            return TruncatedSeries(coeffs)

        monkeypatch.setattr(hookcalc, "series_from_rho", perturbed)
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1", "--max-n", "3"
        )
        assert code == 1
        assert "equal=false" in out

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

    def test_max_n_bound(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1", "--max-n", "13"
        )
        assert code == 2
        assert "max-n" in err

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--phi", "binary", "--rho", "1", "--max-n", "2",
            "--output", "csv",
        )
        assert code == 0
        assert out == "n,lhs,rhs,equal\n1,1,1,true\n2,2,2,true\n"


class TestLabellingsCommand:
    def test_four_vertex_tree(self, capsys):
        code, out, _ = run_cli(capsys, "labellings", "--tree", "((())())")
        assert code == 0
        assert "hook-formula 3" in out
        assert "recursive 3" in out
        assert "bruteforce 3" in out
        assert "agree true" in out

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
        word = "(" + "()" * 9 + ")"  # 10 vertices
        code, out, _ = run_cli(capsys, "labellings", "--tree", word)
        assert code == 0
        assert "bruteforce skipped" in out
        assert "agree true" in out


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

    def test_internal_error_exits_4_with_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("no such state")

        monkeypatch.setitem(cli._HANDLERS, "series", broken)
        code, out, err = run_cli(
            capsys, "series", "--model", "sg", "--phi", "plane", "--order", "3"
        )
        assert (code, out) == (4, "")
        assert err == "error: internal error: RuntimeError: no such state\n"

    def test_interrupt_is_not_an_internal_error(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "verify", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["verify", "--phi", "plane", "--rho", "1", "--max-n", "3"])

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
    """Each bounded resource and each bad rational exits 2 with one line."""

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
        ],
    )
    def test_exits_2_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

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
        ("csv", "['csv']"),
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
