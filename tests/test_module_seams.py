"""The certification oracle and the series half share no code, and only
the CLI knows its flags.

The oracle (``hooktrees.treeoracle``) checks the series half, so neither
may lean on the other: every module of the oracle takes nothing from the
package but its error classes, and the series half's modules import
nothing from the oracle.  The imports are read from the source, so a
lazy import inside a function counts too.  The string constants are read
the same way: a flag name in the library would decide, away from the
CLI, how an error names its flag.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hooktrees"
ORACLE_MODULES = sorted((PACKAGE / "treeoracle").glob("*.py"))
SERIES_HALF = ["series.py", "gfparse.py", "families.py", "hookcalc.py"]
PACKAGE_MODULES = sorted(PACKAGE.rglob("*.py"))
CLI_FLAGS = (
    "--phi", "--param", "--F", "--G", "--rho", "--order", "--max-n", "--tree",
    "--model", "--from-model", "--output",
)
FLAG = re.compile(r"(?<![\w-])(?:" + "|".join(CLI_FLAGS) + r")(?![\w-])")


def package_imports(path: Path) -> set[str]:
    """The dotted names under ``hooktrees`` that the module at ``path``
    imports, relative imports resolved against its package."""
    # a module's package is its path less the last part, __init__ included
    package = path.relative_to(PACKAGE.parent).with_suffix("").parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "hooktrees")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(package[: len(package) - node.level + 1])
            elif node.module.split(".")[0] == "hooktrees":
                base = ""
            else:
                continue
            if node.module:
                found.add(f"{base}.{node.module}" if base else node.module)
            else:
                found.update(f"{base}.{a.name}" for a in node.names)
    return found


def in_oracle(name: str) -> bool:
    return name.split(".")[:2] == ["hooktrees", "treeoracle"]


def test_the_oracle_has_modules_to_check():
    names = {path.name for path in ORACLE_MODULES}
    assert {"__init__.py", "tally.py", "trees.py"} <= names


@pytest.mark.parametrize("path", ORACLE_MODULES, ids=lambda path: path.name)
def test_oracle_takes_only_the_errors_from_the_package(path):
    outside = {name for name in package_imports(path) if not in_oracle(name)}
    assert outside <= {"hooktrees.errors"}, outside


@pytest.mark.parametrize("name", SERIES_HALF)
def test_series_half_imports_nothing_from_the_oracle(name):
    imported = package_imports(PACKAGE / name)
    assert imported, f"{name} should import from the package"
    assert not [n for n in imported if in_oracle(n)]


def test_resolution_of_relative_imports():
    # the resolver itself: both levels and a bare ``from . import``
    assert package_imports(PACKAGE / "treeoracle" / "__init__.py") == {
        "hooktrees.treeoracle.tally", "hooktrees.treeoracle.trees",
    }
    assert "hooktrees.errors" in package_imports(PACKAGE / "treeoracle" / "tally.py")
    assert "hooktrees.gfparse" in package_imports(PACKAGE / "hookcalc.py")
    assert "hooktrees.treeoracle" in package_imports(PACKAGE / "cli.py")


def flag_literals(path: Path) -> set[str]:
    """The CLI flags that the string constants of the module at ``path``
    name, its docstrings and the literal parts of its f-strings included."""
    return {
        flag
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for flag in FLAG.findall(node.value)
    }


@pytest.mark.parametrize(
    "path", PACKAGE_MODULES, ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_only_the_cli_holds_a_flag(path):
    found = flag_literals(path)
    if path.name == "cli.py":
        assert found == set(CLI_FLAGS)  # the reader sees every flag where it is
    else:
        assert not found, f"{path.name} names {sorted(found)}"
