#!/usr/bin/env python3
"""hooktrees benchmark: time to a certified answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a hooktrees checkout.  The package is imported
from that tree's src/ (nothing needs installing or building), and every
measured process starts in an empty temporary directory under
.bench_tmp/, removed at the end.

Each run draws one variant of every group of the workload's pool
(pool.json) with the seed, in a seeded order, and runs that command list
as a pass: one command after another from one client (a closed loop, no
threads).  Passes repeat for about --seconds.  Every operation's exit code
and stdout digest is checked in every pass.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and
traced passes in turn (the traced one wraps each layer's public
functions from child.py), times the oracle tally alone for each size the
workload used, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it records provenance.  The exit code is 0 when
every check passed, 1 when one did not, and 2 when there is nothing to
measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_REPEATS = 12
# setup_s is reported in seconds on a machine where one calibration
# process takes this long, so that it does not follow the machine's drift.
CALIBRATION_REF_S = 0.1
RUN_LIMIT_S = 170  # a run must end within 180 s


class Overrun(Exception):
    """A child did not finish before the run's time limit."""


class Children:
    """Runs measured child processes one at a time, within the run's limit."""

    def __init__(self, work: Path, deadline: float):
        self.cwd = work / "cwd"
        self.cwd.mkdir()
        self.spans = work / "spans.json"
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv: list[str]):
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise Overrun(argv[:6])
        start = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.cwd, env=self.env, capture_output=True,
                                  stdin=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise Overrun(argv[:6]) from None
        return proc.returncode, proc.stdout, proc.stderr, perf_counter() - start

    def calibrate(self) -> float:
        """Seconds for a fresh interpreter to run child.py's calibration loop.

        The machine's speed drifts by 15-30% within seconds; an operation's
        time divided by the calibrations on either side of it does not.
        """
        code, _, err, seconds = self.run([sys.executable, str(CHILD), "calibrate"])
        if code != 0:
            raise SystemExit(f"calibration failed:\n{err.decode()[-400:]}")
        return seconds

    def cli(self, argv, traced):
        if traced:
            return self.run([sys.executable, str(CHILD), "--spans", str(self.spans),
                             "cli", *argv])
        return self.run([sys.executable, "-m", "hooktrees.cli", *argv])

    def read_spans(self) -> dict:
        summary = json.loads(self.spans.read_text())
        self.spans.unlink()
        return summary


class Checks:
    """Every operation's outcome against its recorded exit code and digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures that are not a known defect
        self.known = {}

    def check(self, group, variant, code, stdout: bytes, stderr: bytes = b""):
        self.attempted += 1
        if code == group["expect"] and hashlib.sha256(stdout).hexdigest() == variant["sha256"]:
            return
        self.failed += 1
        note = {"group": group["name"], "exit": code, "expected_exit": group["expect"]}
        if group["defect"]:
            self.known[group["name"]] = note
        else:
            note["stderr"] = stderr.decode(errors="replace")[-300:]
            self.unexpected.append(note)


def draw(groups, seed):
    """The run's command list: one variant per group, in a seeded order."""
    rng = random.Random(seed)
    ops = [(group, rng.choice(group["variants"])) for group in groups]
    rng.shuffle(ops)
    return ops


def run_pass(children, ops, sweep, checks, work, traced, calibrate):
    """One pass of the command list.

    Returns the wall time, each operation's seconds, each operation's
    yardstick (the mean of the calibrations timed just before and just
    after it; empty unless ``calibrate``) and the trace summaries.  CLI
    calibrations run in their own process; the sweep process times its
    calls and their calibrations itself.
    """
    times, yard, spans = [], [], []
    if sweep:
        ops_file = work / "ops.json"
        ops_file.write_text(json.dumps([variant for _, variant in ops]))
        argv = [sys.executable, str(CHILD)]
        if traced:
            argv += ["--spans", str(children.spans)]
        code, out, err, wall = children.run(argv + ["sweep", str(ops_file)])
        rows = [line.split(" ", 2) for line in out.decode().splitlines()]
        for i, (group, variant) in enumerate(ops):
            if i + 1 < len(rows) and len(rows[i]) == 3:
                calib, seconds, value = rows[i]
                checks.check(group, variant, 0, value.encode())
                times.append(float(seconds))
                yard.append((float(calib) + float(rows[i + 1][0])) / 2)
            else:  # the process stopped before this call
                checks.check(group, variant, code or 1, b"", err)
        if code != 0:
            checks.unexpected.append({"group": "sweep process", "exit": code,
                                      "stderr": err.decode(errors="replace")[-300:]})
        if traced:
            spans.append(children.read_spans())
        return wall, times, yard if calibrate else [], spans
    before = children.calibrate() if calibrate else None
    for group, variant in ops:
        code, out, err, seconds = children.cli(variant["argv"], traced)
        checks.check(group, variant, code, out, err)
        times.append(seconds)
        if traced:
            spans.append(children.read_spans())
        if calibrate:
            after = children.calibrate()
            yard.append((before + after) / 2)
            before = after
    return sum(times), times, yard, spans


def probe(children) -> str:
    """Fill the bytecode cache and confirm the package comes from src/."""
    code, out, err, _ = children.run([
        sys.executable, "-c",
        "import hooktrees, hooktrees.cli; from hooktrees import treeoracle; "
        "print(treeoracle.backend_name()); print(hooktrees.__file__)"])
    if code != 0:
        raise SystemExit(f"cannot import hooktrees from {SRC}:\n{err.decode()[-400:]}")
    backend, location = out.decode().split()
    if not Path(location).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hooktrees imported from {location}, not from {SRC}")
    return backend


def setup_samples(children, checks):
    """Set-up: a fresh ``hooktrees --version``, timed SETUP_REPEATS times.

    Each sample is divided by the mean of the calibrations just before
    and just after it.  Returns those ratios and the raw seconds.
    """
    ratios, raw = [], []
    before = children.calibrate()
    for _ in range(SETUP_REPEATS):
        code, out, _, seconds = children.cli(["--version"], traced=False)
        if code != 0 or not out.startswith(b"hooktrees "):
            checks.unexpected.append({"group": "setup --version", "exit": code})
        after = children.calibrate()
        ratios.append(seconds / ((before + after) / 2))
        raw.append(seconds)
        before = after
    return ratios, raw


def measure(children, ops, sweep, checks, work, seconds):
    """Untraced passes for about ``seconds``: the end-to-end metrics.

    Each operation's time is divided by its yardstick, and wall_rel sums
    each operation's median ratio over the passes; cmd_p50_rel is the
    median ratio.  The raw seconds are reported beside them, unguarded:
    on a shared machine they drift with the machine's speed.  setup_s is
    the median set-up ratio times CALIBRATION_REF_S, for the same reason.
    """
    setup_rel, setup_raw = setup_samples(children, checks)
    walls, raw, rel = [], [[] for _ in ops], [[] for _ in ops]
    start = perf_counter()
    while True:
        wall, times, yard, _ = run_pass(children, ops, sweep, checks, work, False, True)
        walls.append(wall)
        for i, (t, y) in enumerate(zip(times, yard)):
            raw[i].append(t)
            rel[i].append(t / y)
        if perf_counter() - start + statistics.median(walls) / 2 > seconds:
            break
    med = statistics.median
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics = {
        "wall_rel": (sum(med(r) for r in rel if r), "ratio"),
        "cmd_p50_rel": (med(x for r in rel for x in r), "ratio"),
        "ok_ratio": ((checks.attempted - checks.failed) / checks.attempted, "ratio"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        "setup_s": (med(setup_rel) * CALIBRATION_REF_S, "s"),
    }
    details = {
        "wall_s": {"value": sum(med(r) for r in raw if r), "unit": "s"},
        "cmd_p50_s": {"value": med(x for r in raw for x in r), "unit": "s"},
        "setup_wall_s": {"value": med(setup_raw), "unit": "s"},
        "passes": len(walls),
        "pass_s": walls,
        "op_s": {group["name"]: samples for (group, _), samples in zip(ops, raw)},
        "op_rel": {group["name"]: samples for (group, _), samples in zip(ops, rel)},
    }
    return metrics, details


def tally(children, sizes, checks):
    """signature_counts(n) timed alone; each tally must sum to Catalan(n-1)."""
    if not sizes:
        return {}
    code, out, err, _ = children.run([sys.executable, str(CHILD), "tally",
                                      *map(str, sorted(sizes))])
    rows = {}
    for line in out.decode().splitlines():
        row = json.loads(line)
        rows[row["n"]] = row
    for n in sizes:
        if n not in rows or rows[n]["trees"] != comb(2 * n - 2, n - 1) // n:
            checks.unexpected.append({"group": f"tally n={n}", "exit": code,
                                      "stderr": err.decode()[-300:]})
    return rows


def per_layer(passes, walls_u, walls_t, tallies, checks):
    """Per-layer metrics from traced passes.

    Times are medians over the passes.  Counts must repeat exactly from
    pass to pass; a count that does not is a failed check.
    """
    med = statistics.median

    per_pass = []
    for spans in passes:
        seconds, calls = {}, {}
        for s in spans:
            for name, value in s["seconds"].items():
                seconds[name] = seconds.get(name, 0.0) + value
            for name, value in s["calls"].items():
                calls[name] = calls.get(name, 0) + value
        tally_s = trees = signatures = 0
        for s in spans:
            for n in s["oracle_ns"]:
                row = tallies.get(n, {"s": 0.0, "trees": 0, "signatures": 0})
                tally_s += row["s"]
                trees += row["trees"]
                signatures += row["signatures"]
        per_pass.append({
            "cli.main_s": sum(s["main_s"] for s in spans),
            "gfparse.parse_s": seconds.get("gfparse.parse", 0.0),
            "gfparse.parse_calls": calls.get("gfparse.parse", 0),
            "gfparse.evaluate_s": seconds.get("gfparse.evaluate", 0.0),
            "families.phi_series_s": seconds.get("families.phi_series", 0.0),
            "families.phi_series_calls": calls.get("families.phi_series", 0),
            "families.validate_s": seconds.get("families.validate", 0.0),
            "series.compose_s": seconds.get("series.compose", 0.0),
            "series.compose_calls": calls.get("series.compose", 0),
            "series.revert_s": seconds.get("series.revert", 0.0),
            "hookcalc.solve_sg_s": seconds.get("hookcalc.solve_sg", 0.0),
            "hookcalc.solve_inc_s": seconds.get("hookcalc.solve_inc", 0.0),
            "hookcalc.series_from_rho_s": seconds.get("hookcalc.series_from_rho", 0.0),
            "hookcalc.rho_from_series_s": seconds.get("hookcalc.rho_from_series", 0.0),
            "hookcalc.rho_from_forest_s": seconds.get("hookcalc.rho_from_forest", 0.0),
            "hookcalc.self_s": sum(s["hookcalc_self_s"] for s in spans),
            "hookcalc.coeff_bits_max": max(s["coeff_bits_max"] for s in spans),
            "treeoracle.tally_s": tally_s,
            "treeoracle.weighted_sum_s": seconds.get("treeoracle.weighted_sum", 0.0),
            "treeoracle.eval_s": seconds.get("treeoracle.weighted_sum", 0.0) - tally_s,
            "treeoracle.trees": trees,
            "treeoracle.signatures": signatures,
            "treeoracle.trees_per_signature": trees / signatures if signatures else 0.0,
            "treeoracle.labellings_s": seconds.get("treeoracle.labellings", 0.0),
        })
    metrics = {"cli.import_s": (med([s["import_s"] for p in passes for s in p]), "s")}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name.endswith("_s"):
            metrics[name] = (med(values), "s")
            continue
        if len(set(values)) != 1:
            checks.unexpected.append({"group": f"count {name}", "values": values})
        unit = "ratio" if name == "treeoracle.trees_per_signature" else "count"
        metrics[name] = (values[0], unit)
    metrics["trace.overhead"] = (med(walls_t) / med(walls_u), "ratio")
    return metrics


def trace(children, ops, sweep, checks, work, seconds):
    """Untraced and traced passes in turn, then the tally alone per size."""
    walls_u, walls_t, passes = [], [], []
    start = perf_counter()
    while True:
        wall_u, _, _, _ = run_pass(children, ops, sweep, checks, work, False, False)
        wall_t, _, _, spans = run_pass(children, ops, sweep, checks, work, True, False)
        walls_u.append(wall_u)
        walls_t.append(wall_t)
        passes.append(spans)
        pair = statistics.median(walls_u) + statistics.median(walls_t)
        if perf_counter() - start + pair / 2 > seconds:
            break
    sizes = {n for spans in passes for s in spans for n in s["oracle_ns"]}
    tallies = tally(children, sizes, checks)
    details = {"passes": len(passes),
               "tally_by_n": {n: {"s": r["s"], "trees": r["trees"],
                                  "signatures": r["signatures"]}
                              for n, r in sorted(tallies.items())}}
    return per_layer(passes, walls_u, walls_t, tallies, checks), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hooktrees" / "cli.py").is_file():
        print(f"error: no hooktrees source under {SRC}", file=sys.stderr)
        return 2
    pool = json.loads((HERE / "pool.json").read_text())["workloads"]
    if args.workload not in pool:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(pool)}", file=sys.stderr)
        return 2

    # The harness and every child share one CPU, so the calibration loop
    # sees the same core, and the same neighbours on it, as the commands.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    deadline = perf_counter() + RUN_LIMIT_S
    ops = draw(pool[args.workload], args.seed)
    sweep = args.workload == "oracle-sweep"
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    checks = Checks()
    try:
        children = Children(work, deadline)
        backend = probe(children)
        if args.trace:
            metrics, details = trace(children, ops, sweep, checks, work, args.seconds)
        else:
            metrics, details = measure(children, ops, sweep, checks, work, args.seconds)
    except Overrun as err:
        print(f"error: run exceeded {RUN_LIMIT_S} s at {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "backend": backend,
        "nproc": os.cpu_count(), "cpu": cpu, "ops_per_pass": len(ops), **details,
        "known_defects": sorted(checks.known.values(), key=lambda n: n["group"]),
        "unexpected_failures": checks.unexpected,
    }
    print(json.dumps({"provenance": provenance}))
    correct = not checks.unexpected
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
