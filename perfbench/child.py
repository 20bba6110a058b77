"""The code that runs inside a measured child process.

    python child.py [--spans FILE] cli ARGV...      one CLI command, in process
    python child.py [--spans FILE] sweep OPS.json   oracle calls, one line each
    python child.py tally N...                      signature_counts(n) alone
    python child.py calibrate                       the calibration loop alone

hooktrees is imported from PYTHONPATH, which the harness points at the
measured tree's src/.  With --spans, the public functions of each layer
are wrapped before any work starts; the spans stay in memory and a JSON
summary of them is written to FILE when the process ends.  Nothing is
traced inside the package itself.
"""

import sys
from time import perf_counter

# (module, class or None, attribute, span name)
LAYERS = [
    ("hooktrees.gfparse", None, "parse", "gfparse.parse"),
    ("hooktrees.gfparse", None, "evaluate", "gfparse.evaluate"),
    ("hooktrees.families", "DegreeWeightFamily", "phi_series", "families.phi_series"),
    ("hooktrees.families", "DegreeWeightFamily", "validate", "families.validate"),
    ("hooktrees.series", "TruncatedSeries", "compose", "series.compose"),
    ("hooktrees.series", "TruncatedSeries", "revert", "series.revert"),
    ("hooktrees.hookcalc", None, "solve_simply_generated", "hookcalc.solve_sg"),
    ("hooktrees.hookcalc", None, "solve_increasing", "hookcalc.solve_inc"),
    ("hooktrees.hookcalc", None, "series_from_rho", "hookcalc.series_from_rho"),
    ("hooktrees.hookcalc", None, "rho_from_series", "hookcalc.rho_from_series"),
    ("hooktrees.hookcalc", None, "rho_from_forest", "hookcalc.rho_from_forest"),
    ("hooktrees.treeoracle", None, "weighted_sum", "treeoracle.weighted_sum"),
    ("hooktrees.treeoracle", None, "labellings_hook", "treeoracle.labellings"),
    ("hooktrees.treeoracle", None, "labellings_recursive", "treeoracle.labellings"),
    ("hooktrees.treeoracle", None, "labellings_bruteforce", "treeoracle.labellings"),
]


class Tracer:
    """Per-layer spans, summed by name, with the self time of hookcalc."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self.hookcalc_self_s = 0.0
        self.coeff_bits_max = 0
        self.oracle_ns = set()
        self._child_time = []  # time covered by wrapped children, per open span

    def install(self):
        for module_name, class_name, attr, name in LAYERS:
            owner = sys.modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            tracer._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                covered = tracer._child_time.pop()
                if tracer._child_time:
                    tracer._child_time[-1] += elapsed
                tracer.seconds[name] = tracer.seconds.get(name, 0.0) + elapsed
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if name.startswith("hookcalc."):
                    tracer.hookcalc_self_s += elapsed - covered
            if name.startswith("hookcalc."):
                tracer._note_bits(result)
            elif name == "treeoracle.weighted_sum":
                tracer.oracle_ns.add(args[0])
            return result

        return traced

    def _note_bits(self, result):
        values = getattr(result, "coefficients", None) or getattr(result, "values", ())
        for v in values:
            bits = max(v.numerator.bit_length(), v.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits


def calibration_loop():
    """A fixed loop of Fraction and dict arithmetic, no hooktrees: the
    yardstick that the harness divides times by."""
    from fractions import Fraction

    total, table = Fraction(0), {}
    for i in range(1, 1200):
        total += Fraction(i, i + 7) ** 3 / (i + 1)
        table[i % 97] = table.get(i % 97, 0) + total.denominator % 1009


def _timed(fn, *args):
    start = perf_counter()
    value = fn(*args)
    return perf_counter() - start, value


def _sweep(ops_path):
    """One line per call: calibration seconds, call seconds, the value.
    A last line holds one more calibration, so every call has one on
    either side.  Calls are timed with a warm tally."""
    import json

    from hooktrees import families, treeoracle
    from hooktrees.hookcalc import HookWeightFunction
    from hooktrees.rational import rational_from_string, rational_to_string

    with open(ops_path) as handle:
        ops = json.load(handle)
    warm = set()
    for op in ops:
        if op["builtin"]:
            family = families.from_spec(op["phi"])
        else:
            binding = {k: rational_from_string(v) for k, v in op["params"].items()}
            family = families.from_expression(op["phi"], binding)
        rho = HookWeightFunction.from_spec(op["rho"], op["n"])
        if op["n"] not in warm:  # an untimed first call fills the tally cache,
            warm.add(op["n"])    # so every timed call measures evaluation alone
            treeoracle.weighted_sum(op["n"], family, rho)
        calib, _ = _timed(calibration_loop)
        elapsed, value = _timed(treeoracle.weighted_sum, op["n"], family, rho)
        print(f"{calib!r} {elapsed!r} {rational_to_string(value)}", flush=True)
    print(repr(_timed(calibration_loop)[0]))
    return 0


def _tally(sizes):
    import json
    import statistics

    from hooktrees import treeoracle

    for n in sizes:
        times = []
        for _ in range(3 if n <= 11 else 1):
            start = perf_counter()
            counts = treeoracle.signature_counts(n)
            times.append(perf_counter() - start)
        print(json.dumps({"n": n, "s": statistics.median(times),
                          "trees": sum(counts.values()), "signatures": len(counts)}))
    return 0


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "calibrate":
        import argparse, csv, json, re  # noqa: F401  (cold imports, like the CLI's)

        calibration_loop()
        return 0

    start = perf_counter()
    import hooktrees.cli
    import_s = perf_counter() - start

    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    main_s = 0.0
    try:
        if mode == "cli":
            start = perf_counter()
            try:
                return hooktrees.cli.main(rest)
            finally:
                main_s = perf_counter() - start
        if mode == "sweep":
            return _sweep(rest[0])
        if mode == "tally":
            return _tally([int(n) for n in rest])
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer:
            import json

            with open(spans_path, "w") as handle:
                json.dump({
                    "import_s": import_s,
                    "main_s": main_s,
                    "seconds": tracer.seconds,
                    "calls": tracer.calls,
                    "hookcalc_self_s": tracer.hookcalc_self_s,
                    "coeff_bits_max": tracer.coeff_bits_max,
                    "oracle_ns": sorted(tracer.oracle_ns),
                }, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
