"""The CLI's table-driven parser against the argparse parser it replaced.

Over argv drawn from the flag vocabulary (``=`` and space forms, unique
and ambiguous prefixes, repeated and missing flags, bad choices,
non-integers, unknown flags and stray positionals), ``cli._parse_args``
and ``tests/argparse_reference.py`` agree: both accept and give equal
``vars()``, both print help or the version and exit 0, or both reject,
and then the new parser writes exactly one ``error:`` line and nothing
to stdout.

Two cases are left out because argparse itself changed in Python 3.13,
and ``cli`` keeps the behaviour of earlier versions: ``--help`` followed
by an ambiguous prefix (``series -h --o``), and ``-h`` with other letters
joined to it (``-hx``).  Python 3.13 prints the help for both; earlier
versions refuse them.
"""

import contextlib
import io
import sys
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from argparse_reference import build_parser
from hooktrees import cli

COMMANDS = ["series", "rho", "rho-forest", "verify", "labellings"]
REQUIRED = {
    "series": ["--model", "--order", "--phi"],
    "rho": ["--from-model", "--order", "--phi"],
    "rho-forest": ["--G", "--order", "--phi"],
    "verify": ["--rho", "--max-n", "--phi"],
    "labellings": ["--tree"],
}
FLAGS = ["--model", "--order", "--phi", "--param", "--allow-degenerate", "--output",
         "--from-model", "--F", "--G", "--rho", "--max-n", "--tree", "--help", "-h",
         "--version", "--bogus"]
# (good, bad) values; argparse reads a value that starts with "-" as a
# value when it is a negative number, holds a space or is "-" alone, and
# as a flag otherwise
TEXTS = (["1/(1-t)", "- t", "-", "-1", "-.5", ""], ["-t", "-1/2", "-h", "-hh", "--order", "--o"])
MODELS = (["sg", "inc"], ["plain", ""])
VALUES = {
    "--model": MODELS, "--from-model": MODELS, "--output": (["plain", "json", "csv"], ["xml"]),
    "--order": (["3", "-1", " 7", "1_0"], ["x", "3.5", ""]), "--max-n": (["5"], ["x", "-t"]),
    "--param": (["a=1/2", "b=-3", "a b"], ["-a=1"]),
}
STRAYS = ["--", "stray", "-", "-x", "-1", "-hh", "- t", "--bog", "frob"]
HEADS = [[], ["frob"], ["--version"], ["--vers=1"], ["--bogus"], ["-h"], ["-h=x"]]


def spellings(flag):
    """The flag and every prefix of it that keeps one character after ``--``."""
    if not flag.startswith("--"):
        return [flag]
    return [flag[:k] for k in range(3, len(flag) + 1)]


@st.composite
def flag_item(draw, flag, forms=("space", "space", "eq", "bare")):
    """``flag`` with a value in the space or ``=`` form, or bare."""
    good, bad = VALUES.get(flag, TEXTS)
    value = draw(st.sampled_from(good) | st.sampled_from(good + bad))
    form = draw(st.sampled_from(forms))
    if form == "bare":
        return [flag]
    return [f"{flag}={value}"] if form == "eq" else [flag, value]


@st.composite
def noise(draw):
    """A flag in some spelling, or a stray token."""
    if draw(st.integers(0, 5)) == 5:
        return [draw(st.sampled_from(STRAYS))]
    flag = draw(st.sampled_from(FLAGS))
    return draw(flag_item(draw(st.sampled_from(spellings(flag)))))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    items = [draw(flag_item(flag, ("space", "space", "eq"))) for flag in REQUIRED[command]
             if draw(st.integers(0, 9))]  # a required flag is missing one time in ten
    items += draw(st.lists(flag_item("--param", ("space", "eq")), max_size=2))
    items += draw(st.lists(noise(), max_size=2))
    items = draw(st.permutations(items))
    head = [command]
    if draw(st.integers(0, 5)) == 5:  # a top-level flag, or a missing or unknown command
        head = draw(st.sampled_from(HEADS)) + draw(st.sampled_from([head, []]))
    return head + [token for item in items for token in item]


def help_before_ambiguous_prefix(argv):
    """Whether a help flag comes before a prefix of two or more long flags."""
    longs = [flag for flag in FLAGS if flag.startswith("--")]

    def is_help(token):
        name = token.partition("=")[0]
        return token.startswith("-h") or (len(name) > 2 and "--help".startswith(name))

    def is_ambiguous(token):
        name = token.partition("=")[0]
        return (name.startswith("--") and name not in longs
                and sum(flag.startswith(name) for flag in longs) > 1)

    first_help = next((at for at, token in enumerate(argv) if is_help(token)), len(argv))
    return any(map(is_ambiguous, argv[first_help:]))


def outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = parse(argv)
    except SystemExit as exit:
        return exit.code, None, out.getvalue(), err.getvalue()
    return "ok", vars(namespace), out.getvalue(), err.getvalue()


SERIES = ["series", "--model", "sg", "--order", "3", "--phi", "t"]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
@example(SERIES + ["--"])
@example(SERIES + ["--", "-h"])
@example(SERIES + ["-hh"])
@example(SERIES + ["--bogus", "-h"])
@example(["--bogus"] + SERIES)
@example(SERIES + ["--phi", "-h 1"])
def test_parser_agrees_with_the_argparse_reference(argv):
    assume(not help_before_ambiguous_prefix(argv))
    expected, expected_vars, _, _ = outcome(lambda a: build_parser().parse_args(a), argv)
    code, got_vars, out, err = outcome(cli._parse_args, argv)
    assert (code, got_vars) == (expected, expected_vars), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    elif code == 0:
        assert out and err == "", argv


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_every_flag_of_the_command(command):
    code, _, out, _ = outcome(cli._parse_args, [command, "--help"])
    reference = build_parser()._subparsers._group_actions[0].choices[command]
    assert code == 0
    assert all(flag in out.split() or f"{flag}," in out.split()
               for flag in reference._option_string_actions), out


def test_reference_help_strings_are_the_table():
    sub = build_parser()._subparsers._group_actions[0]
    assert {a.dest: a.help for a in sub._choices_actions} == {
        name: text for name, (text, _, _) in cli._COMMANDS.items()
    }
    for command, (_, rows, _) in cli._COMMANDS.items():
        actions = sub.choices[command]._actions
        assert {a.option_strings[0]: a.help for a in actions if "-h" not in a.option_strings} == {
            row[0]: row[5] for row in rows
        }, command


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["rho", "--help"]])
def test_help_and_version_print_in_one_write(monkeypatch, argv):
    # a reader that closes the pipe after one line (| head -1) must not
    # meet a second write
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0 and len(writes) == 1 and writes[0].endswith("\n")
