"""The benchmark calls the package by name.

``perfbench/child.py`` lists functions in ``LAYERS`` and replaces each
with a timed wrapper before a traced run starts; a name the package no
longer has makes every ``--trace 1`` run fail.  Its ``sweep`` mode builds
families with ``families.from_spec`` and ``families.from_expression`` and
rho tables with ``HookWeightFunction.from_spec``, and its ``tally`` mode
calls ``treeoracle.signature_counts``.  ``run.py`` probes
``treeoracle.backend_name``.  The module is loaded from its path, as the
benchmark runs it, and left unchanged.
"""

import importlib
import json
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    # compiled from source, so no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_child"}
    exec(compile(CHILD.read_text(), str(CHILD), "exec"), namespace)
    return namespace


def test_every_traced_layer_resolves_in_the_package():
    layers = load_child()["LAYERS"]
    assert layers
    for module_name, class_name, attr, span in layers:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), span


def test_sweep_builds_a_builtin_and_its_expression_alike(tmp_path, capsys):
    rho = "1,1/2,2,-1/3,5,1/7"
    ops = [
        {"builtin": True, "phi": "yang:1/2,3", "params": {}, "rho": rho, "n": 6},
        {"builtin": False, "phi": "(1+s*t)^m", "params": {"s": "1/2", "m": "3"},
         "rho": rho, "n": 6},
    ]
    path = tmp_path / "ops.json"
    path.write_text(json.dumps(ops))
    assert load_child()["_sweep"](str(path)) == 0
    lines = capsys.readouterr().out.splitlines()
    # one line per call, "calibration seconds, call seconds, value", then
    # one last calibration
    assert len(lines) == 3
    builtin, expression = (line.split()[2] for line in lines[:2])
    assert builtin == expression


def test_the_oracle_names_that_perfbench_reads_outside_layers():
    # run.py probes backend_name for its provenance line, and child.py's
    # tally mode times signature_counts
    from hooktrees import treeoracle
    from hooktrees.treeoracle import tally, trees

    assert callable(treeoracle.backend_name)
    assert callable(treeoracle.signature_counts)
    # the package re-exports exactly its modules' own lists, no name twice
    assert sorted(treeoracle.__all__) == sorted({*tally.__all__, *trees.__all__})
    for module in (tally, trees):
        for name in module.__all__:
            assert getattr(treeoracle, name) is getattr(module, name), name
