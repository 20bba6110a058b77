"""The benchmark's traced runs wrap package functions by name.

``perfbench/child.py`` lists them in ``LAYERS`` and replaces each with a
timed wrapper before a traced run starts; a name the package no longer
has makes every ``--trace 1`` run fail.  The module is loaded from its
path, as the benchmark runs it, and left unchanged.
"""

import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_layers():
    # compiled from source, so no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_child"}
    exec(compile(CHILD.read_text(), str(CHILD), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves_in_the_package():
    layers = load_layers()
    assert layers
    for module_name, class_name, attr, span in layers:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), span
