"""Command-line interface for batch computations.

Subcommands: ``series`` (solve the family equations), ``rho`` and
``rho-forest`` (one handler: the hook weight table from F or G = phi(F)),
``verify`` (certify the tree identity by exhaustive enumeration) and
``labellings`` (count the increasing labellings of one tree three ways).

Exit codes: 0 success/verified, 1 verified-false, 2 input error (any
``ValueError``, which includes every ``errors.HookTreesError``), 3 the
weight function is undefined (``errors.DenominatorVanishes``), 4 an
internal error (an exception that no input should cause: a bug, the
machine out of memory, or a failed write to stdout such as ``> /dev/full``),
reported as one ``error: internal error:`` line without a traceback, 141
stdout closed by its reader (nothing on stderr).  A failed write to stderr
loses its line but never changes the exit code.
Input past a resource bound is an input error: ``--order`` above
``MAX_ORDER``, ``--max-n`` above ``MAX_VERIFY_N``, an expression nested
deeper than ``gfparse.MAX_DEPTH``, a power too large and a tree nested
deeper than ``treeoracle.MAX_TREE_DEPTH``.  Rationals always print as
``p`` or ``p/q``, never as decimals, and integers print exactly at any
length; identical invocations produce byte-identical output.

Every command is one row of one table, ``_COMMANDS``.  A value follows
its flag (``--order 3``) or is joined to it (``--order=3``), and a long
flag may be cut to a unique prefix (``--ord 3``).  ``hooktrees --help``
lists the commands and ``hooktrees COMMAND --help`` the flags of one.  A
usage error (an unknown command or flag, an ambiguous prefix, a missing
value or required flag, a bad choice, a non-integer ``--order`` or
``--max-n``) writes one ``error:`` line and exits 2.  ``json`` is imported
only by the output format that prints with it, which keeps start-up short,
and :func:`run` ends the process without the interpreter's teardown, which
keeps the end short.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from types import SimpleNamespace

from . import __version__, families, gfparse, hookcalc, treeoracle
from .errors import DenominatorVanishes, HookTreesError
from .rational import rational_from_string, rational_to_string

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # the status of a filter that SIGPIPE killed

MAX_VERIFY_N = 12
# The slowest builtin at this order, sg labelled (series or rho
# --from-model), takes about 0.3 s on a 2.1 GHz Xeon core.  Its solve
# alone takes about 33 s at order 1000: cost grows about as order^4.
MAX_ORDER = 300


_HELP_FLAGS = ("-h", "--help")
_TOP_FLAGS = (*_HELP_FLAGS, "--version")
# a token that starts with "-" is still a value when it reads as a
# negative number or holds a space (argparse's rule)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _say(line: str) -> None:
    """Write one line to stderr.  A failed write loses the line, never the
    exit code that the line explains."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _usage_error(message: str):
    _say(f"error: {message}")
    raise SystemExit(EXIT_INPUT)


def _print_and_exit(text: str):
    """Print ``--help`` or ``--version`` and exit 0.  One write, so that
    ``| head -1`` reads the whole line before it closes the pipe."""
    sys.stdout.write(text + "\n")
    raise SystemExit(EXIT_OK)


def _switch(name: str, joined: str | None) -> None:
    """Refuse a value joined to a flag that takes none."""
    if joined is not None:
        _usage_error(f"{name} takes no value, got {joined!r}")


def _help(command: str | None) -> str:
    """The list of commands, or the flags of one command, from ``_COMMANDS``."""
    if command is None:
        width = max(map(len, _COMMANDS))
        return "\n".join([
            "usage: hooktrees [--version] COMMAND [FLAG ...]", "",
            "Exact hook-length weight calculus for weighted ordered trees.", "",
            "commands:",
            *(f"  {name:{width}}  {text}" for name, (text, *_) in _COMMANDS.items()),
            "", "Run 'hooktrees COMMAND --help' for the flags of a command.",
        ])
    text, rows, _ = _COMMANDS[command]
    usage, lines = [], []
    for flag, dest, kind, default, choices, about in rows:
        if kind is bool:
            meta = ""
        elif choices:
            meta = " {" + ",".join(choices) + "}"
        else:
            meta = " " + dest.upper()
        required = default is _REQUIRED
        usage.append(f"{flag}{meta}" if required else f"[{flag}{meta}]")
        lines.append((f"{flag}{meta}", about + " (required)" * required))
    lines.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in lines)
    return "\n".join([f"usage: hooktrees {command} " + " ".join(usage), "", text, "",
                      *(f"  {left:{width}}  {right}" for left, right in lines)])


def _flag(token: str, names) -> tuple[str, str | None] | None:
    """The flag that ``token`` names and the value joined to it, if any;
    None when ``token`` is a value.  A long flag may be cut to a unique
    prefix; an unknown flag comes back as itself."""
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, joined = token.partition("=")
    if eq and name in names:
        return name, joined
    if token.startswith("--"):
        found = [flag for flag in names if flag.startswith(name)]
        if len(found) > 1:
            _usage_error(f"flag {name!r} is ambiguous: it could be {' or '.join(found)}")
        if found:
            return found[0], joined if eq else None
    elif token[:2] in names:  # -hVALUE; -hh is -h -h
        return token[:2], token[2:].lstrip("h") or None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return token, None


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against ``_COMMANDS``.  ``--version`` and ``--help``
    print to stdout and exit 0; a usage error writes one ``error:`` line
    and exits 2."""
    strays = []
    for at, token in enumerate(argv):
        found = None if token == "--" else _flag(token, _TOP_FLAGS)
        if found is None:
            break
        name, joined = found
        if name in _TOP_FLAGS:
            _switch(name, joined)
            _print_and_exit(f"hooktrees {__version__}" if name == "--version" else _help(None))
        strays.append(token)
    else:
        _usage_error(f"missing command, one of {', '.join(_COMMANDS)}")
    command, rest = argv[at], argv[at + 1:]
    if command not in _COMMANDS:
        _usage_error(f"unknown command {command!r}, expected one of {', '.join(_COMMANDS)}")
    rows = {row[0]: row for row in _COMMANDS[command][1]}
    names = (*rows, *_HELP_FLAGS)
    values = {dest: default for _, dest, _, default, _, _ in rows.values()}
    # after "--" every token is positional, and this grammar has none
    cut = rest.index("--") if "--" in rest else len(rest)
    strays += rest[cut:]
    # every token is read before any flag acts, so an ambiguous prefix
    # is an error even after --help
    tokens = [(_flag(token, names), token) for token in rest[:cut]]
    at = 0
    while at < len(tokens):
        found, token = tokens[at]
        at += 1
        if found is None or found[0] not in names:
            strays.append(token)
            continue
        name, joined = found
        if name in _HELP_FLAGS:
            _switch(name, joined)
            _print_and_exit(_help(command))
        _, dest, kind, _, choices, _ = rows[name]
        if kind is bool:
            _switch(name, joined)
            values[dest] = True
            continue
        if joined is None:
            if at == len(tokens) or tokens[at][0] is not None:
                _usage_error(f"{name} needs a value")
            joined = tokens[at][1]
            at += 1
        if kind is int:
            try:
                joined = int(joined)
            except ValueError:
                _usage_error(f"{name} needs an integer, got {joined!r}")
        if choices and joined not in choices:
            _usage_error(f"{name} must be one of {', '.join(choices)}, got {joined!r}")
        values[dest] = values[dest] + [joined] if kind is list else joined
    missing = [flag for flag, dest, *_ in rows.values() if values[dest] is _REQUIRED]
    if missing:
        _usage_error(f"{command} needs {', '.join(missing)}")
    if strays:
        _usage_error(f"unrecognized arguments: {' '.join(map(repr, strays))}")
    return SimpleNamespace(command=command, **values)


# --- input helpers ----------------------------------------------------------------


def _parse_params(items: list[str]) -> dict:
    binding = {}
    for item in items:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not gfparse.NAME.fullmatch(name):
            raise ValueError(f"malformed binding {item!r}, expected NAME=P/Q")
        if name in gfparse.RESERVED_NAMES:
            raise ValueError(f"cannot bind {name!r}: the name is reserved")
        if name in binding:
            raise ValueError(f"parameter {name!r} bound twice")
        binding[name] = rational_from_string(value)
    return binding


def _read_flag(flag: str, read, *args):
    """``read(*args)``, where ``read`` reads the text of ``flag``.  Every
    error that :func:`main` reports as an input error or an undefined
    rho keeps its type, and so its exit code, and its message starts
    with ``FLAG: ``."""
    try:
        return read(*args)
    except ValueError as err:
        err.args = (f"{flag}: {err}",)
        raise


def _load_family(args) -> tuple[families.DegreeWeightFamily, object]:
    """The preamble of every command with ``--phi``, in a fixed order: parse
    ``--param``, check the command's own arguments, resolve ``--phi``,
    validate the family up to the largest size the command needs, then
    parse ``--F``, ``--G`` or an expression in ``--rho``, refuse a
    ``--param`` that no expression reads, and evaluate ``--F`` or ``--G``
    to a series that the solver can read or ``--rho`` to its table (None
    for ``series`` and ``rho --from-model``)."""
    binding = _read_flag("--param", _parse_params, args.param)
    if args.command == "verify":
        size = args.max_n
        if not 1 <= size <= MAX_VERIFY_N:
            raise ValueError(f"--max-n must be in 1..{MAX_VERIFY_N}")
    else:
        size = args.order
        if size < 1:
            raise ValueError("--order must be at least 1")
        if size > MAX_ORDER:
            raise ValueError(f"--order must be at most {MAX_ORDER}")
        if args.command == "rho" and (args.from_model is None) == (args.expr is None):
            raise ValueError("rho needs exactly one of --from-model and --F")
    text = args.phi.strip()
    if text.partition(":")[0] in families.BUILTIN_NAMES:
        family = _read_flag("--phi", families.from_spec, text)
        read = set()
    else:
        family = _read_flag("--phi", families.from_expression, args.phi, binding)
        read = gfparse.parameters(family.expression)
    violations, warnings = family.validate(size)
    for warning in warnings:
        _say(f"warning: {family.name}: {warning}")
    if violations and not args.allow_degenerate:
        raise HookTreesError(
            f"{family.name}: {'; '.join(violations)} "
            "(use --allow-degenerate to run anyway)"
        )
    series_text = getattr(args, "expr", None)
    series_flag = "--G" if args.command == "rho-forest" else "--F"
    expression = None
    if series_text is not None:
        expression = _read_flag(series_flag, gfparse.parse, series_text)
        read |= gfparse.parameters(expression)
    if args.command == "verify":
        rho = _read_flag("--rho", hookcalc.HookWeightFunction.read_spec, args.rho)
        read |= hookcalc.HookWeightFunction.spec_parameters(rho)
    unread = [name for name in binding if name not in read]
    if unread:
        raise ValueError(f"no expression reads --param {', '.join(map(repr, unread))}")
    if args.command == "verify":
        return family, _read_flag(
            "--rho", hookcalc.HookWeightFunction.from_spec, rho, size, binding
        )
    if expression is None:
        return family, None
    series = _read_flag(series_flag, gfparse.evaluate, expression, binding, args.order)
    if args.command == "rho-forest":
        _read_flag(series_flag, hookcalc.check_forest_series, series, family, args.order)
    else:
        _read_flag(series_flag, hookcalc.check_tree_series, series, args.order)
    return family, series


def _json_object(payload: dict) -> str:
    """The bytes of ``json.dumps(payload)``, except that integer values
    print exactly at any length: ``json`` stops at the interpreter's
    int/str digit limit."""
    import json

    items = (
        json.dumps(key) + ": "
        + (rational_to_string(value) if type(value) is int else json.dumps(value))
        for key, value in payload.items()
    )
    return "{" + ", ".join(items) + "}"


def _emit_table(args, payload: dict | list, csv_rows: list, plain: list[str]) -> None:
    """A list ``payload`` prints as one JSON object per line.  No CSV cell
    needs quoting: none holds a comma, a quote or a line break."""
    if args.output == "json":
        for item in payload if isinstance(payload, list) else [payload]:
            print(_json_object(item))
    elif args.output == "csv":
        sys.stdout.write("".join(",".join(row) + "\n" for row in csv_rows))
    else:
        for line in plain:
            print(line)


# --- subcommands -------------------------------------------------------------------


def _cmd_series(args) -> int:
    family, _ = _load_family(args)
    if args.model == "sg":
        result = hookcalc.solve_simply_generated(family, args.order)
    else:
        result = hookcalc.solve_increasing(family, args.order)
    strings = result.to_strings()

    payload = {"series": strings}
    plain = ["coefficients " + " ".join(strings)]
    rows = [["n", "coefficient"]] + [[str(n), s] for n, s in enumerate(strings)]
    if args.model == "inc":
        count_strings = [rational_to_string(c) for c in hookcalc.egf_counts(result)[1:]]
        payload["counts"] = [None] + count_strings
        plain.append("counts _ " + " ".join(count_strings))
        rows = [[*row, count] for row, count in zip(rows, ["count", "", *count_strings])]
    _emit_table(args, payload, rows, plain)
    return EXIT_OK


def _cmd_rho(args) -> int:
    family, series = _load_family(args)
    if args.command == "rho-forest":
        rho = hookcalc.rho_from_forest(series, family, args.order)
    elif series is not None:
        rho = hookcalc.rho_from_series(series, family, args.order)
    else:
        rho = hookcalc.rho_from_model(family, args.order, args.from_model)
    strings = rho.to_strings()
    rows = [["n", "rho"]] + [[str(n + 1), s] for n, s in enumerate(strings)]
    _emit_table(args, {"rho": strings}, rows, [" ".join(strings)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    family, rho = _load_family(args)
    # both sides are recomputed from scratch on every run: the right side
    # by the coefficient recurrence, the left by exhaustive enumeration
    rhs_series = hookcalc.series_from_rho(rho, family, args.max_n)
    # the largest size first: its one tally pass serves every smaller size
    lhs = {n: treeoracle.weighted_sum(n, family, rho) for n in range(args.max_n, 0, -1)}
    objects, rows, plain = [], [["n", "lhs", "rhs", "equal"]], []
    for n in range(1, args.max_n + 1):
        rhs = rhs_series.coeff(n)
        equal = lhs[n] == rhs
        left = rational_to_string(lhs[n])
        right = left if equal else rational_to_string(rhs)
        verdict = "true" if equal else "false"
        objects.append({"n": n, "lhs": left, "rhs": right, "equal": equal})
        rows.append([str(n), left, right, verdict])
        plain.append(f"n={n} lhs={left} rhs={right} equal={verdict}")
    _emit_table(args, objects, rows, plain)
    return EXIT_OK if all(item["equal"] for item in objects) else EXIT_FALSIFIED


def _cmd_labellings(args) -> int:
    tree = _read_flag("--tree", treeoracle.parse_tree, args.tree)
    hooks = treeoracle.hook_lengths(tree)
    by_hook = treeoracle.labellings_hook(tree)
    by_recursion = treeoracle.labellings_recursive(tree)
    by_brute = None
    if tree.size <= treeoracle.BRUTE_FORCE_LIMIT:
        by_brute = treeoracle.labellings_bruteforce(tree)
    # each distinct count converted to decimal once; a Fraction equals an
    # int only when its denominator is 1, so the counters agree on one key
    strings = {count: rational_to_string(count) for count in {by_hook, by_recursion, by_brute}
               if count is not None}
    agree = len(strings) == 1
    payload = {
        "tree": treeoracle.format_tree(tree),
        "n": tree.size,
        "hooks": hooks,
        "hook_formula": strings[by_hook],
        "recursive": by_recursion,
        "bruteforce": by_brute,
        "agree": agree,
    }
    fields = [
        ("tree", payload["tree"]),
        ("n", str(tree.size)),
        ("hooks", " ".join(str(h) for h in hooks)),
        ("hook-formula", strings[by_hook]),
        ("recursive", strings[by_recursion]),
        ("bruteforce", strings.get(by_brute, "")),
        ("agree", "true" if agree else "false"),
    ]
    # only bruteforce can be empty: plain says so, csv leaves the cell blank
    plain = [f"{field} {text or 'skipped'}" for field, text in fields]
    _emit_table(args, payload, [("field", "value"), *fields], plain)
    return EXIT_OK if agree else EXIT_FALSIFIED


# The command-line grammar: command -> (help, flags, handler), each flag a row
# (flag, dest, kind, default, choices, help).  kind is str or int for a
# flag that takes one value, list for a repeatable one and bool for a bare
# switch; a default of _REQUIRED makes the flag required.  Every command
# also takes -h/--help.
_REQUIRED = object()
_PHI_FLAGS = (
    ("--phi", "phi", str, _REQUIRED, None,
     "degree-weight family: builtin spec (binary, kary:3, plane, "
     "labelled, yang:1/2,4, polyalpha:2) or an expression in t"),
    ("--param", "param", list, [], None,
     "bind an expression parameter to an exact rational (repeatable)"),
    ("--allow-degenerate", "allow_degenerate", bool, False, None,
     "run even if the family fails the standing assumptions"),
)
_OUTPUT_FLAG = (
    ("--output", "output", str, "plain", ("plain", "json", "csv"),
     "output format (default plain)"),
)
_ORDER_FLAG = (("--order", "order", int, _REQUIRED, None, f"at most {MAX_ORDER}"),)
_COMMANDS = {
    "series": ("solve T = z*phi(T) or T' = phi(T)", (
        ("--model", "model", str, _REQUIRED, ("sg", "inc"),
         "sg: simply generated (fixed point); inc: increasing (ODE)"),
        *_ORDER_FLAG, *_PHI_FLAGS, *_OUTPUT_FLAG), _cmd_series),
    "rho": ("hook weight table from a tree counting series", (
        ("--from-model", "from_model", str, None, ("sg", "inc"),
         "take F from the sg or inc solution for phi"),
        ("--F", "expr", str, None, None, "take F from an expression in t"),
        *_ORDER_FLAG, *_PHI_FLAGS, *_OUTPUT_FLAG), _cmd_rho),
    "rho-forest": ("hook weight table from a forest series G = phi(F)", (
        ("--G", "expr", str, _REQUIRED, None,
         "the forest series, an expression in t with G(0) = phi_0"),
        *_ORDER_FLAG, *_PHI_FLAGS, *_OUTPUT_FLAG), _cmd_rho),
    "verify": ("certify the identity by exhaustive enumeration", (
        ("--rho", "rho", str, _REQUIRED, None,
         "comma-separated rho(1),rho(2),... or an expression in the hook length n"),
        ("--max-n", "max_n", int, _REQUIRED, None,
         f"check all tree sizes 1..max-n (at most {MAX_VERIFY_N})"),
        *_PHI_FLAGS, *_OUTPUT_FLAG), _cmd_verify),
    "labellings": ("count increasing labellings of one tree", (
        ("--tree", "tree", str, _REQUIRED, None, "balanced-parenthesis word, e.g. ((())())"),
        *_OUTPUT_FLAG), _cmd_labellings),
}


def _internal_error(err: Exception) -> int:
    _say(f"error: internal error: {type(err).__name__}: {err}")
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code.  ``--help``,
    ``--version`` and a usage error raise ``SystemExit`` instead, and a
    failed write to stdout raises ``OSError`` (``BrokenPipeError`` when
    its reader closed it) for :func:`run` to report."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][2](args)
    except ValueError as err:
        _say(f"error: {err}")
        return EXIT_UNDEFINED if isinstance(err, DenominatorVanishes) else EXIT_INPUT
    except OSError:
        raise
    except Exception as err:
        return _internal_error(err)


def _drop(stream) -> None:
    """Point ``stream`` at the null device after a failed write, so that
    what it still buffers goes nowhere instead of failing again at exit."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _observed() -> bool:
    """Whether someone watches this process: a tracer or profiler installed
    by ``sys.settrace`` or ``sys.setprofile``, a ``sys.monitoring`` tool
    (how cProfile attaches from Python 3.12 on), or ``python -i``, which
    inspects the interpreter once the command is done."""
    if sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))  # ids 0-5


def run() -> None:
    """The process entry point: the console script and ``python -m
    hooktrees.cli``.

    It runs :func:`main`, keeping the code of the ``SystemExit`` that
    ``--help``, ``--version`` and a usage error raise, and flushes stdout.
    A failed write to stdout ends the command: a closed stdout (``| head
    -1``) exits ``EXIT_PIPE`` with nothing on stderr, any other failure
    (``> /dev/full``) exits ``EXIT_INTERNAL`` with one ``error: internal
    error:`` line, and what stdout still buffers is dropped.

    The process then ends through ``os._exit`` once the atexit handlers
    have run and stdout and stderr are flushed (a stream whose flush fails
    is dropped too).  That skips the interpreter's teardown of every module
    and object that start-up and the command made (about 1-2 ms of a 55 ms
    command on one core of a shared 2-vCPU Xeon).  A process that a tracer
    or profiler watches (coverage, ``python -m cProfile``), or that
    ``python -i`` will inspect, ends through ``sys.exit`` instead, so that
    it still writes its report.  :func:`main` itself never ends the
    process: tests and library callers run it many times in one.
    """
    try:
        try:
            code = main()
        except SystemExit as stop:
            code = stop.code
        sys.stdout.flush()
    except OSError as err:
        _drop(sys.stdout)
        code = EXIT_PIPE if isinstance(err, BrokenPipeError) else _internal_error(err)
    observed = _observed()
    if not observed:
        atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            _drop(stream)
    if observed:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
