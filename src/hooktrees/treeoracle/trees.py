"""Ordered trees for the ``labellings`` command.

One ordered (plane) rooted tree at a time: read from and written as a
parenthesis word, its hook lengths, and three independent counters of
its increasing labellings (hook formula, root recursion, brute force
over ready subtrees), which ``labellings`` holds against each other.
Like the tally, nothing here shares machinery with the series half.
The literal oracle, every ordered tree of a size with its weights,
lives in the tests (``tests/literal_oracle.py``), where it checks the tally.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from ..errors import HookTreesError, ParseError

__all__ = [
    "OrderedTree",
    "hook_lengths",
    "labellings_hook",
    "labellings_recursive",
    "labellings_bruteforce",
    "parse_tree",
    "format_tree",
    "BRUTE_FORCE_LIMIT",
    "MAX_TREE_DEPTH",
]

BRUTE_FORCE_LIMIT = 8
# The tree walks below recurse once per level (format_tree twice), so a
# parsed tree stays well inside the interpreter's recursion limit of 1000.
MAX_TREE_DEPTH = 200


class OrderedTree:
    """A rooted tree whose children are ordered.

    Equality and hashing are structural and order-sensitive; instances
    are immutable after construction.
    """

    __slots__ = ("children", "size")

    def __init__(self, children: tuple["OrderedTree", ...] = ()):
        self.children = tuple(children)
        self.size = 1 + sum(child.size for child in self.children)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderedTree):
            return NotImplemented
        return self.size == other.size and self.children == other.children

    def __hash__(self) -> int:
        return hash(self.children)

    def __repr__(self) -> str:
        return f"OrderedTree({format_tree(self)!r})"


def hook_lengths(tree: OrderedTree) -> list[int]:
    """Subtree sizes, one per vertex, root first in depth-first order."""
    out = [tree.size]
    for child in tree.children:
        out.extend(hook_lengths(child))
    return out


# --- increasing labellings: three independent counters ---------------------------


def labellings_hook(tree: OrderedTree) -> Fraction:
    """``n! / product of hook lengths`` as an exact rational.

    Integrality is a consequence, not an assumption; callers who want the
    integer should check ``denominator == 1``.
    """
    return Fraction(factorial(tree.size), prod(hook_lengths(tree)))


def labellings_recursive(tree: OrderedTree) -> int:
    """Count increasing labellings by the root decomposition.

    The root takes label 1; the remaining ``n-1`` labels are split among
    the subtrees, each labelled independently.  The subtrees' factorials
    are multiplied first, so ``(n-1)!`` meets one exact division.
    """
    count = denominator = 1
    for child in tree.children:
        count *= labellings_recursive(child)
        denominator *= factorial(child.size)
    return factorial(tree.size - 1) // denominator * count


def labellings_bruteforce(tree: OrderedTree) -> int:
    """Build every increasing labelling, label by label, and count them.

    The next label goes on the root of any ready subtree, one whose parent
    is labelled, and that subtree's children become ready in its place.
    Each labelling is reached once.  The literal definition and the
    slowest oracle; guarded at ``BRUTE_FORCE_LIMIT`` vertices.
    """
    n = tree.size
    if n > BRUTE_FORCE_LIMIT:
        raise HookTreesError(
            f"brute-force labelling is limited to {BRUTE_FORCE_LIMIT} vertices, got {n}"
        )

    def count(ready: tuple[OrderedTree, ...]) -> int:
        if not ready:
            return 1
        return sum(
            count(ready[:i] + ready[i + 1:] + v.children) for i, v in enumerate(ready)
        )

    return count((tree,))


# --- text format -------------------------------------------------------------------


def parse_tree(text: str) -> OrderedTree:
    """Parse a balanced-parenthesis word: each matched pair is a vertex,
    nesting is the child relation, the outermost pair is the root.

    Pairs may nest at most ``MAX_TREE_DEPTH`` deep; deeper words raise
    :class:`HookTreesError`.
    """
    stack: list[list[OrderedTree]] = []
    root: OrderedTree | None = None
    for offset, ch in enumerate(text):
        if ch in " \t":
            continue
        if ch == "(":
            if root is not None:
                raise ParseError("unexpected second root", offset)
            if len(stack) == MAX_TREE_DEPTH:
                raise HookTreesError(
                    f"tree nests more than {MAX_TREE_DEPTH} levels deep at offset {offset}"
                )
            stack.append([])
        elif ch == ")":
            if not stack:
                raise ParseError("unmatched ')'", offset)
            node = OrderedTree(tuple(stack.pop()))
            if stack:
                stack[-1].append(node)
            else:
                root = node
        else:
            raise ParseError(f"unexpected character {ch!r}", offset)
    if stack:
        raise ParseError("unclosed '('", len(text))
    if root is None:
        raise ParseError("empty input", 0)
    return root


def format_tree(tree: OrderedTree) -> str:
    """Canonical parenthesis word; inverse of :func:`parse_tree`."""
    return "(" + "".join(format_tree(child) for child in tree.children) + ")"
