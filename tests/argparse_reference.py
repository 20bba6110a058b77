"""The argparse parser the CLI used to build, kept as the reference that
``cli.parse_args`` is held against (``tests/test_cli_parser.py``).

``build_parser()`` declares the same commands, flags, dests, defaults,
choices and help strings as the table in ``hooktrees.cli``; the package
itself no longer imports argparse.
"""

from __future__ import annotations

import argparse

from hooktrees import __version__
from hooktrees.cli import MAX_ORDER, MAX_VERIFY_N


def build_parser() -> argparse.ArgumentParser:
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
