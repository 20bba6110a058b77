"""Command-line interface for batch computations.

Subcommands: ``series`` (solve the family equations), ``rho`` and
``rho-forest`` (extract the hook weight table), ``verify`` (certify the
tree identity by exhaustive enumeration) and ``labellings`` (count the
increasing labellings of one tree three ways).

Exit codes: 0 success/verified, 1 verified-false, 2 input error,
3 the weight function is undefined (a vanishing denominator), 4 an
internal error (an exception that no input should cause: a bug, or the
machine out of memory), reported as one ``error: internal error:`` line
without a traceback.  Input past a resource bound is an input error:
``--order`` above ``MAX_ORDER``, ``--max-n`` above ``MAX_VERIFY_N``, an
expression nested deeper than ``gfparse.MAX_DEPTH``, a power too large
and a tree nested deeper than ``treeoracle.MAX_TREE_DEPTH``.  Rationals
always print as ``p`` or ``p/q``, never as decimals, and integers print
exactly at any length; identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, families, gfparse, hookcalc, treeoracle
from .errors import DenominatorVanishes, DomainError, HookTreesError
from .rational import rational_from_string, rational_to_string
from .series import TruncatedSeries

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3
EXIT_INTERNAL = 4

MAX_VERIFY_N = 12
# The slowest builtin at this order, rho --from-model sg --phi labelled,
# takes about 0.8 s on a 2.0 GHz Xeon core.  Its solve alone takes about
# 33 s at order 1000: cost grows about as order^4.
MAX_ORDER = 300

_RESERVED_NAMES = ("t", "exp", "log")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooktrees",
        description="Exact hook-length weight calculus for weighted ordered trees.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_phi: bool = True) -> None:
        if with_phi:
            p.add_argument(
                "--phi",
                required=True,
                help="degree-weight family: builtin spec (binary, kary:3, plane, "
                "labelled, yang:1/2,4, polyalpha:2) or an expression in t",
            )
            p.add_argument(
                "--param",
                action="append",
                default=[],
                metavar="NAME=P/Q",
                help="bind an expression parameter to an exact rational (repeatable)",
            )
            p.add_argument(
                "--allow-degenerate",
                action="store_true",
                help="run even if the family fails the standing assumptions",
            )
        p.add_argument(
            "--output",
            choices=("plain", "json", "csv"),
            default="plain",
            help="output format (default plain)",
        )

    p = sub.add_parser("series", help="solve T = z*phi(T) or T' = phi(T)")
    p.add_argument("--model", choices=("sg", "inc"), required=True,
                   help="sg: simply generated (fixed point); inc: increasing (ODE)")
    p.add_argument("--order", type=int, required=True, help=f"at most {MAX_ORDER}")
    add_common(p)

    p = sub.add_parser("rho", help="hook weight table from a tree counting series")
    p.add_argument("--from-model", choices=("sg", "inc"), dest="from_model",
                   help="take F from the sg or inc solution for phi")
    p.add_argument("--F", dest="expr", metavar="EXPR",
                   help="take F from an expression in t")
    p.add_argument("--order", type=int, required=True, help=f"at most {MAX_ORDER}")
    add_common(p)

    p = sub.add_parser("rho-forest", help="hook weight table from a forest series G = phi(F)")
    p.add_argument("--G", dest="expr", metavar="EXPR", required=True,
                   help="the forest series, an expression in t with G(0) = phi_0")
    p.add_argument("--order", type=int, required=True, help=f"at most {MAX_ORDER}")
    add_common(p)

    p = sub.add_parser("verify", help="certify the identity by exhaustive enumeration")
    p.add_argument("--rho", required=True,
                   help="named table (1, 1/n, n) or explicit comma-separated rationals")
    p.add_argument("--max-n", type=int, required=True, dest="max_n",
                   help=f"check all tree sizes 1..max-n (at most {MAX_VERIFY_N})")
    add_common(p)

    p = sub.add_parser("labellings", help="count increasing labellings of one tree")
    p.add_argument("--tree", required=True,
                   help="balanced-parenthesis word, e.g. ((())())")
    add_common(p, with_phi=False)

    return parser


# --- input helpers ----------------------------------------------------------------


def _parse_params(items: list[str]) -> dict:
    binding = {}
    for item in items:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not name.isidentifier():
            raise ValueError(f"malformed --param {item!r}, expected NAME=P/Q")
        if name in _RESERVED_NAMES:
            raise ValueError(f"--param cannot bind {name!r}: the name is reserved")
        if name in binding:
            raise ValueError(f"parameter {name!r} bound twice")
        binding[name] = rational_from_string(value)
    return binding


def _load_family(args) -> tuple[families.DegreeWeightFamily, TruncatedSeries | None]:
    """The preamble of every command with ``--phi``, in a fixed order: parse
    ``--param``, check the command's own arguments, resolve ``--phi``,
    validate the family up to the largest size the command needs, then
    parse ``--F`` or ``--G``, refuse a ``--param`` that no expression
    reads, and evaluate ``--F`` or ``--G`` (None for other commands)."""
    binding = _parse_params(args.param)
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
        family = families.from_spec(text)
        read = set()
    else:
        family = families.from_expression(args.phi, binding)
        read = gfparse.parameters(family.expression)
    report = family.validate(max(size, 2))
    for warning in report.warnings:
        print(f"warning: {family.name}: {warning}", file=sys.stderr)
    if not report.ok and not args.allow_degenerate:
        raise DomainError(
            f"{family.name}: {'; '.join(report.violations)} "
            "(use --allow-degenerate to run anyway)"
        )
    series_text = getattr(args, "expr", None)  # --F or --G
    expression = None if series_text is None else gfparse.parse(series_text)
    if expression is not None:
        read |= gfparse.parameters(expression)
    unread = [name for name in binding if name not in read]
    if unread:
        raise ValueError(f"no expression reads --param {', '.join(map(repr, unread))}")
    series = None if expression is None else gfparse.evaluate(expression, binding, args.order)
    return family, series


def _json_object(payload: dict) -> str:
    """The bytes of ``json.dumps(payload)``, except that integer values
    print exactly at any length: ``json`` stops at the interpreter's
    int/str digit limit."""
    items = (
        json.dumps(key) + ": "
        + (rational_to_string(value) if type(value) is int else json.dumps(value))
        for key, value in payload.items()
    )
    return "{" + ", ".join(items) + "}"


def _emit_table(args, payload: dict | list, csv_rows: list[list[str]], plain: list[str]) -> None:
    """A list ``payload`` prints as one JSON object per line."""
    if args.output == "json":
        for item in payload if isinstance(payload, list) else [payload]:
            print(_json_object(item))
    elif args.output == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(csv_rows)
        sys.stdout.write(buffer.getvalue())
    else:
        for line in plain:
            print(line)


# --- subcommands -------------------------------------------------------------------


def _cmd_series(args) -> int:
    family, _ = _load_family(args)
    if args.model == "sg":
        result = hookcalc.solve_simply_generated(family, args.order)
        counts = None
    else:
        result = hookcalc.solve_increasing(family, args.order)
        counts = hookcalc.egf_counts(result)
    strings = result.to_strings()

    payload = {"series": strings}
    plain = ["coefficients " + " ".join(strings)]
    header = ["n", "coefficient"]
    rows = [[str(n), s] for n, s in enumerate(strings)]
    if counts is not None:
        count_strings = [rational_to_string(c) for c in counts]
        payload["counts"] = [None] + count_strings[1:]
        plain.append("counts _ " + " ".join(count_strings[1:]))
        header.append("count")
        rows[0].append("")
        for n in range(1, len(rows)):
            rows[n].append(count_strings[n])
    _emit_table(args, payload, [header] + rows, plain)
    return EXIT_OK


def _cmd_rho(args) -> int:
    family, F = _load_family(args)
    if args.from_model == "sg":
        F = hookcalc.solve_simply_generated(family, args.order)
    elif args.from_model == "inc":
        F = hookcalc.solve_increasing(family, args.order)
    rho = hookcalc.rho_from_series(F, family, args.order)
    _emit_rho(args, rho)
    return EXIT_OK


def _cmd_rho_forest(args) -> int:
    family, G = _load_family(args)
    rho = hookcalc.rho_from_forest(G, family, args.order)
    _emit_rho(args, rho)
    return EXIT_OK


def _emit_rho(args, rho: hookcalc.HookWeightFunction) -> None:
    strings = rho.to_strings()
    rows = [["n", "rho"]] + [[str(n + 1), s] for n, s in enumerate(strings)]
    _emit_table(args, {"rho": strings}, rows, [" ".join(strings)])


def _cmd_verify(args) -> int:
    family, _ = _load_family(args)
    rho = hookcalc.HookWeightFunction.from_spec(args.rho, args.max_n)
    # both sides are recomputed from scratch on every run: the right side
    # by the coefficient recurrence, the left by exhaustive enumeration
    rhs_series = hookcalc.series_from_rho(rho, family, args.max_n)
    # the largest size first: its one tally pass serves every smaller size
    lhs = {n: treeoracle.weighted_sum(n, family, rho) for n in range(args.max_n, 0, -1)}
    all_equal = True
    objects, rows, plain = [], [["n", "lhs", "rhs", "equal"]], []
    for n in range(1, args.max_n + 1):
        rhs = rhs_series.coeff(n)
        equal = lhs[n] == rhs
        all_equal &= equal
        left, right = rational_to_string(lhs[n]), rational_to_string(rhs)
        verdict = "true" if equal else "false"
        objects.append({"n": n, "lhs": left, "rhs": right, "equal": equal})
        rows.append([str(n), left, right, verdict])
        plain.append(f"n={n} lhs={left} rhs={right} equal={verdict}")
    _emit_table(args, objects, rows, plain)
    return EXIT_OK if all_equal else EXIT_FALSIFIED


def _cmd_labellings(args) -> int:
    tree = treeoracle.parse_tree(args.tree)
    hooks = treeoracle.hook_lengths(tree)
    by_hook = treeoracle.labellings_hook(tree)
    by_recursion = treeoracle.labellings_recursive(tree)
    by_brute = (
        treeoracle.labellings_bruteforce(tree)
        if tree.size <= treeoracle.BRUTE_FORCE_LIMIT
        else None
    )
    results = [by_hook, by_recursion] + ([by_brute] if by_brute is not None else [])
    agree = by_hook.denominator == 1 and all(r == results[0] for r in results)

    hook_str = rational_to_string(by_hook)
    recursive_str = rational_to_string(by_recursion)
    brute_str = rational_to_string(by_brute) if by_brute is not None else ""
    payload = {
        "tree": treeoracle.format_tree(tree),
        "n": tree.size,
        "hooks": hooks,
        "hook_formula": hook_str,
        "recursive": by_recursion,
        "bruteforce": by_brute,
        "agree": agree,
    }
    plain = [
        f"tree {payload['tree']}",
        f"n {tree.size}",
        "hooks " + " ".join(str(h) for h in hooks),
        f"hook-formula {hook_str}",
        f"recursive {recursive_str}",
        f"bruteforce {brute_str or 'skipped'}",
        f"agree {'true' if agree else 'false'}",
    ]
    rows = [
        ["field", "value"],
        ["tree", payload["tree"]],
        ["n", str(tree.size)],
        ["hooks", " ".join(str(h) for h in hooks)],
        ["hook-formula", hook_str],
        ["recursive", recursive_str],
        ["bruteforce", brute_str],
        ["agree", "true" if agree else "false"],
    ]
    _emit_table(args, payload, rows, plain)
    return EXIT_OK if agree else EXIT_FALSIFIED


_HANDLERS = {
    "series": _cmd_series,
    "rho": _cmd_rho,
    "rho-forest": _cmd_rho_forest,
    "verify": _cmd_verify,
    "labellings": _cmd_labellings,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except DenominatorVanishes as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (HookTreesError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
