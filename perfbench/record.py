#!/usr/bin/env python3
"""Record the expected result of every pooled operation into pool.json.

    python3 perfbench/record.py      # from the root of a hooktrees checkout

Runs every variant of every group in pool.py against the tree's src/,
checks it against an independent reference where one exists, and stores
its expected exit code and the SHA-256 of its stdout.  It refuses to
record when a result is wrong:

- the two spellings of a family must print the same bytes;
- every pooled expression must expand to the coefficients its closed
  form gives (``t^2/3`` parses as ``t^(2/3)``, so nothing is assumed);
- series, rho and verify outputs are checked against Catalan numbers,
  the classic increasing-tree counts, rho = 1/n and ``equal=true``;
- every oracle value in the sweep must equal the coefficient that the
  series half computes for the same family and rho.

Known defects are recorded with their documented exit code and empty
stdout, never with what the program does today.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import pool  # noqa: E402
from hooktrees import __version__, families, gfparse, hookcalc, treeoracle  # noqa: E402
from hooktrees.rational import rational_from_string, rational_to_string  # noqa: E402

EMPTY_SHA = hashlib.sha256(b"").hexdigest()
BUILTIN_SPELLINGS = {spellings[0][0] for spellings in pool.PHI.values()}
EXPR_FLAGS = ("--phi", "--F", "--G")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def expressions(argv):
    """Each expression argument with its --param bindings, as EXPR_COEFFS keys."""
    params = tuple(argv[i + 1] for i, a in enumerate(argv) if a == "--param")
    out = []
    for i, a in enumerate(argv):
        if a in EXPR_FLAGS and argv[i + 1] not in BUILTIN_SPELLINGS:
            out.append((argv[i + 1],) + (params if a == "--phi" else ()))
    return out


def check_expression(key, order=12):
    text, *bindings = key
    binding = {}
    for item in bindings:
        name, _, value = item.partition("=")
        binding[name] = rational_from_string(value)
    got = gfparse.evaluate(gfparse.parse(text), binding, order).coefficients
    want = tuple(pool.EXPR_COEFFS[key](k) for k in range(order + 1))
    if got != want:
        raise SystemExit(f"expression {key} expands to {got[:6]}..., expected {want[:6]}...")


# --- reading the three output formats ---------------------------------------------


def read_table(text, fmt, json_key, plain_prefix=None):
    """One column of rationals from plain, json or csv output (csv column 1)."""
    if fmt == "json":
        return [Fraction(v) for v in json.loads(text)[json_key]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [Fraction(r[1]) for r in rows]
    line = text.splitlines()[0]
    if plain_prefix:
        line = line.removeprefix(plain_prefix)
    return [Fraction(v) for v in line.split()]


def read_counts(text, fmt):
    if fmt == "json":
        return [Fraction(v) for v in json.loads(text)["counts"][1:]]
    if fmt == "csv":
        return [Fraction(r[2]) for r in list(csv.reader(io.StringIO(text)))[2:]]
    return [Fraction(v) for v in text.splitlines()[1].removeprefix("counts _ ").split()]


def read_equal_flags(text, fmt):
    if fmt == "json":
        return [json.loads(line)["equal"] for line in text.splitlines()]
    if fmt == "csv":
        return [r[3] == "true" for r in list(csv.reader(io.StringIO(text)))[1:]]
    return [line.endswith("equal=true") for line in text.splitlines()]


def read_agree(text, fmt):
    if fmt == "json":
        return json.loads(text)["agree"] is True
    if fmt == "csv":
        return ["agree", "true"] in list(csv.reader(io.StringIO(text)))
    return "agree true" in text.splitlines()


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def check_reference(ref, argv, text):
    fmt = option(argv, "--output", "plain")
    if ref == "catalan":
        coeffs = read_table(text, fmt, "series", "coefficients ")
        ok = coeffs == [0] + [pool.catalan(n - 1) for n in range(1, len(coeffs))]
    elif ref in ("inc-factorial", "inc-double-factorial", "inc-factorial-1"):
        counts = read_counts(text, fmt)
        rule = {
            "inc-factorial": factorial,
            "inc-double-factorial": lambda n: double_factorial(2 * n - 3),
            "inc-factorial-1": lambda n: factorial(n - 1),
        }[ref]
        ok = counts == [rule(n) for n in range(1, len(counts) + 1)]
    elif ref in ("rho-inverse", "rho-one"):
        rho = read_table(text, fmt, "rho")
        want = [Fraction(1, n) if ref == "rho-inverse" else 1 for n in range(1, len(rho) + 1)]
        ok = rho == want and len(rho) == int(option(argv, "--order"))
    elif ref == "verify-equal":
        flags = read_equal_flags(text, fmt)
        ok = len(flags) == int(option(argv, "--max-n")) and all(flags)
    elif ref == "agree":
        ok = read_agree(text, fmt)
    else:
        raise SystemExit(f"unknown reference {ref!r}")
    if not ok:
        raise SystemExit(f"reference {ref} fails for {argv[:8]}:\n{text[:400]}")


# --- recording ---------------------------------------------------------------------


def record_cli_group(group, env, cwd):
    by_format = {}
    variants = []
    for argv in group["variants"]:
        for key in expressions(argv):
            if key in pool.EXPR_COEFFS:
                check_expression(key)
            elif group["expect"] == 0:
                raise SystemExit(f"{group['name']}: no closed form for expression {key}")
        proc = subprocess.run([sys.executable, "-m", "hooktrees.cli", *argv],
                              cwd=cwd, env=env, capture_output=True)
        if group["defect"]:
            print(f"  {group['name']}: known defect, exits {proc.returncode} today; "
                  f"expecting {group['expect']}", file=sys.stderr)
            variants.append({"argv": argv, "sha256": EMPTY_SHA})
            continue
        if proc.returncode != group["expect"]:
            raise SystemExit(f"{group['name']}: exit {proc.returncode}, expected "
                             f"{group['expect']}\n{proc.stderr.decode()[-400:]}")
        if group["expect"] != 0 and proc.stdout:
            raise SystemExit(f"{group['name']}: an error printed to stdout")
        if group["ref"]:
            check_reference(group["ref"], argv, proc.stdout.decode())
        fmt = option(argv, "--output", "plain")
        digest = sha(proc.stdout)
        if by_format.setdefault(fmt, digest) != digest:
            raise SystemExit(f"{group['name']}: the spellings print different {fmt} output")
        variants.append({"argv": argv, "sha256": digest})
    return variants


def record_sweep_group(group):
    values = set()
    variants = []
    for spelling in group["variants"]:
        text, *bindings = spelling["phi"]
        params = dict(b.split("=", 1) for b in bindings)
        builtin = text in BUILTIN_SPELLINGS
        if builtin:
            family = families.from_spec(text)
        else:
            check_expression(tuple(spelling["phi"]))
            family = families.from_expression(
                text, {k: rational_from_string(v) for k, v in params.items()})
        n = spelling["n"]
        rho = hookcalc.HookWeightFunction.from_spec(spelling["rho"], n)
        value = treeoracle.weighted_sum(n, family, rho)
        if value != hookcalc.series_from_rho(rho, family, n).coeff(n):
            raise SystemExit(f"{group['name']}: oracle and series half disagree")
        values.add(value)
        result = rational_to_string(value)
        variants.append({"builtin": builtin, "phi": text, "params": params,
                         "rho": spelling["rho"], "n": n,
                         "sha256": sha(result.encode())})
    if len(values) != 1:
        raise SystemExit(f"{group['name']}: the spellings give different values")
    return variants


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="record-", dir=scratch)
    try:
        workloads = {}
        for name, groups in pool.WORKLOADS.items():
            print(f"recording {name}", file=sys.stderr)
            out = []
            for group in groups:
                if name == "oracle-sweep":
                    variants = record_sweep_group(group)
                else:
                    variants = record_cli_group(group, env, cwd)
                out.append({"name": group["name"], "expect": group["expect"],
                            "defect": group["defect"], "variants": variants})
            workloads[name] = out
    finally:
        shutil.rmtree(cwd)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    payload = {"recorded_from": f"hooktrees {__version__}", "workloads": workloads}
    (HERE / "pool.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
