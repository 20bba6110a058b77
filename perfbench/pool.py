"""The operation pool the benchmark draws from.

A workload is a list of groups.  A group holds variants of one operation
that cost the same: the family spelled as a builtin or as an equivalent
expression, and the three output formats.  Each pass of a run takes one
variant from every group, in an order drawn from the seed, so every seed
runs the same work in different spellings and orders.

``record.py`` runs every variant at the measured commit, checks it
against the references named here and writes the expected exit code and
stdout digest of each into ``pool.json``.  Nothing here imports
hooktrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

FORMATS = ("plain", "json", "csv")

# Each family as (builtin spelling, expression spelling).  Both must print
# the same bytes; record.py checks that and checks every expression's
# coefficients against EXPR_COEFFS, so a surprising parse shows at once.
PHI = {
    "binary": (["binary"], ["(1+t)^2"]),
    "kary3": (["kary:3"], ["(1+t)^3"]),
    "plane": (["plane"], ["1/(1-t)"]),
    "labelled": (["labelled"], ["exp(t)"]),
    "yang": (["yang:1/2,3"], ["(1+s*t)^m", "s=1/2", "m=3"]),
    "yang32": (["yang:1/2,3/2"], ["(1+s*t)^m", "s=1/2", "m=3/2"]),
    "polyalpha": (["polyalpha:1/2"], ["(1-t)^(-a)", "a=1/2"]),
}


def _binom(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a - i
    return out / factorial(k)


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


# [t^k] of each pooled expression, from its closed form, keyed by the
# expression's spelling (text followed by its NAME=VALUE bindings).
EXPR_COEFFS = {
    ("(1+t)^2",): lambda k: _binom(Fraction(2), k),
    ("(1+t)^3",): lambda k: _binom(Fraction(3), k),
    ("1/(1-t)",): lambda k: Fraction(1),
    ("exp(t)",): lambda k: Fraction(1, factorial(k)),
    ("(1+s*t)^m", "s=1/2", "m=3"): lambda k: _binom(Fraction(3), k) / 2**k,
    ("(1+s*t)^m", "s=1/2", "m=3/2"): lambda k: _binom(Fraction(3, 2), k) / 2**k,
    ("(1-t)^(-a)", "a=1/2"): lambda k: _binom(Fraction(-1, 2), k) * (-1) ** k,
    ("1/(1-t)^a", "a=1"): lambda k: Fraction(1),
    # F for the plane family: the Catalan generating function
    ("(1-(1-4*t)^(1/2))/2",): lambda k: Fraction(catalan(k - 1) if k else 0),
    ("2*t-2*t^2+t^3",): lambda k: Fraction((0, 2, -2, 1)[k] if k < 4 else 0),
    ("1+t",): lambda k: Fraction(1 if k < 2 else 0),
    ("2/(1-t)",): lambda k: Fraction(2),
}


def spelling_argv(spelling: list[str], flag: str = "--phi") -> list[str]:
    """CLI arguments for one spelling: the expression and its --param bindings."""
    argv = [flag, spelling[0]]
    for binding in spelling[1:]:
        argv += ["--param", binding]
    return argv


def group(name, argv, phi=None, formats=FORMATS, expect=0, ref=None, defect=None):
    """One group of cost-equivalent CLI variants.

    ``ref`` names a record-time reference check (see record.py);
    ``defect`` marks a known defect whose expected exit code is the
    documented one, not the code the program gives today.
    """
    spellings = PHI[phi] if phi else ([],)
    variants = []
    for spelling in spellings:
        for fmt in formats:
            tail = spelling_argv(spelling) if spelling else []
            out = [] if fmt == "plain" else ["--output", fmt]
            variants.append(argv + tail + out)
    return {"name": name, "expect": expect, "ref": ref, "defect": defect,
            "variants": variants}


def _series(model, phi, order, ref=None):
    return group(f"series-{model}-{phi}-{order}",
                 ["series", "--model", model, "--order", str(order)], phi, ref=ref)


def _rho_model(model, phi, order, ref=None):
    return group(f"rho-{model}-{phi}-{order}",
                 ["rho", "--from-model", model, "--order", str(order)], phi, ref=ref)


def _verify(phi, rho, max_n, label=None):
    return group(f"verify-{phi}-{label or rho}-{max_n}",
                 ["verify", "--rho", rho, "--max-n", str(max_n)], phi,
                 ref="verify-equal")


CATALAN_F = "(1-(1-4*t)^(1/2))/2"

# Polynomial phi (binary, kary:3, yang:1/2,3) against phi with infinite
# support and growing rationals (plane, labelled, polyalpha, m = 3/2):
# composition costs about ten times more for the second kind, so those
# stay at order 32.  The polynomial groups are two thirds of the list, so
# the median command sits inside their cluster, not in the gap between
# the kinds.
SERIES_DEEP = [
    _series("sg", "binary", 48),
    _series("inc", "binary", 48, ref="inc-factorial"),
    _series("inc", "kary3", 40),
    _series("sg", "yang", 40),
    _rho_model("inc", "binary", 48, ref="rho-inverse"),
    _rho_model("sg", "yang", 40),
    group("rho-F-plane-40", ["rho", "--F", CATALAN_F, "--order", "40"], "plane",
          ref="rho-one"),
    group("rho-forest-binary-40",
          ["rho-forest", "--G", "1/(1-t)", "--order", "40"], "binary"),
    _series("sg", "plane", 32, ref="catalan"),
    _series("inc", "yang32", 32),
    _series("sg", "polyalpha", 32),
    group("rho-forest-labelled-32",
          ["rho-forest", "--G", "1/(1-t)", "--order", "32"], "labelled",
          ref="rho-inverse"),
]

# Integer-weight pairs (plane or kary:3 with rho = 1) and rational-weight
# pairs (labelled, polyalpha with rho = 1/n, yang with a table).
YANG_TABLE = "1,1/2,2/3,3/4,4/5,5/6,6/7,7/8,8/9,9/10,10/11,11/12,12/13"
VERIFY_DEEP = [
    _verify("plane", "1", 12),
    _verify("labelled", "1/n", 12),
    _verify("binary", "n", 11),
    _verify("kary3", "1", 11),
    _verify("polyalpha", "1/n", 11),
    _verify("yang", YANG_TABLE, 11, label="table"),
]

DEEP_TREE = "(" * 1200 + ")" * 1200
DEEP_PHI = "(" * 1200 + "1+t^2" + ")" * 1200
CRASH = "known defect: exits 1 with a traceback instead of the documented 2"

CLI_SMALL = [
    _series("sg", "plane", 10, ref="catalan"),
    _series("inc", "binary", 8, ref="inc-factorial"),
    _series("inc", "plane", 10, ref="inc-double-factorial"),
    _series("inc", "labelled", 9, ref="inc-factorial-1"),
    _series("sg", "kary3", 10),
    group("series-inc-polyalpha1-4",
          ["series", "--model", "inc", "--order", "4", "--phi", "1/(1-t)^a",
           "--param", "a=1"], ref="inc-double-factorial"),
    _rho_model("inc", "binary", 6, ref="rho-inverse"),
    _rho_model("sg", "yang", 10),
    group("rho-F-plane-10", ["rho", "--F", CATALAN_F, "--order", "10"], "plane",
          ref="rho-one"),
    group("rho-forest-labelled-8", ["rho-forest", "--G", "1/(1-t)", "--order", "8"],
          "labelled", ref="rho-inverse"),
    _verify("plane", "1", 7),
    _verify("labelled", "1/n", 8),
    _verify("binary", "n", 6),
    _verify("yang", YANG_TABLE, 7, label="table"),
    group("labellings-4", ["labellings", "--tree", "((())())"], ref="agree"),
    group("labellings-8", ["labellings", "--tree", "(((()())(()))())"], ref="agree"),
    group("labellings-18",
          ["labellings", "--tree", "((()(()()))(()())((())(()()()))(()))"],
          ref="agree"),
    # documented errors
    group("err-unknown-function", ["series", "--model", "sg", "--order", "5",
                                   "--phi", "sqrt(1+t)"], formats=("plain",), expect=2),
    group("err-order-0", ["series", "--model", "sg", "--order", "0", "--phi", "plane"],
          formats=("plain",), expect=2),
    group("err-degenerate", ["series", "--model", "sg", "--order", "3", "--phi", "1+t"],
          formats=("plain",), expect=2),
    group("err-unbound-param", ["series", "--model", "sg", "--order", "3",
                                "--phi", "(1+t)^k"], formats=("plain",), expect=2),
    group("err-max-n", ["verify", "--phi", "binary", "--rho", "1", "--max-n", "13"],
          formats=("plain",), expect=2),
    group("err-unbalanced-tree", ["labellings", "--tree", "(()"],
          formats=("plain",), expect=2),
    group("err-constant-mismatch", ["rho-forest", "--phi", "labelled", "--G",
                                    "2/(1-t)", "--order", "4"],
          formats=("plain",), expect=2),
    group("err-vanishing-denominator", ["rho", "--phi", "binary", "--F",
                                        "2*t-2*t^2+t^3", "--order", "3"],
          formats=("plain",), expect=3),
    # known defects: counted as failures until they exit 2
    group("defect-param-div-zero", ["series", "--model", "sg", "--order", "5",
                                    "--phi", "(1+s*t)^m", "--param", "s=1/0",
                                    "--param", "m=3"],
          formats=("plain",), expect=2, defect=CRASH),
    group("defect-rho-div-zero", ["verify", "--phi", "plane", "--rho", "1,1/0,1",
                                  "--max-n", "3"],
          formats=("plain",), expect=2, defect=CRASH),
    group("defect-deep-tree", ["labellings", "--tree", DEEP_TREE],
          formats=("plain",), expect=2, defect=CRASH),
    group("defect-deep-phi", ["series", "--model", "sg", "--order", "5",
                              "--phi", DEEP_PHI],
          formats=("plain",), expect=2, defect=CRASH),
]

# oracle-sweep: weighted_sum(n, family, rho) in one process.  Every pair
# runs n = 11..13 and two pairs also n = 10, so the median call is an
# n = 12 call rather than a value in the gap between two sizes.
SWEEP_PAIRS = [
    ("plane", "1", (10, 11, 12, 13)),
    ("labelled", "1/n", (10, 11, 12, 13)),
    ("yang", "n", (11, 12, 13)),
    ("binary", YANG_TABLE, (11, 12, 13)),
    ("polyalpha", "1/n", (11, 12, 13)),
]


def sweep_groups():
    groups = []
    for phi, rho, sizes in SWEEP_PAIRS:
        for n in sizes:
            variants = [{"phi": spelling, "rho": rho, "n": n} for spelling in PHI[phi]]
            label = "table" if "," in rho else rho
            groups.append({"name": f"sweep-{phi}-{label}-{n}", "expect": 0,
                           "defect": None, "variants": variants})
    return groups


WORKLOADS = {
    "series-deep": SERIES_DEEP,
    "verify-deep": VERIFY_DEEP,
    "cli-small": CLI_SMALL,
    "oracle-sweep": sweep_groups(),
}
