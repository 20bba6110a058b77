"""Exhaustive ordered-tree ground truth.

Ordered (plane) rooted trees, streamed exhaustively at small sizes, with
hook lengths, hook weights and three independent counters of increasing
labellings.  Everything here is deliberately brute force: it is the
literal oracle that the signature tally in ``tally`` is checked against,
and like the tally it shares no machinery with the generating-function
calculus.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import permutations
from math import factorial

from ..errors import RhoRangeExceeded, SizeLimitExceeded, UnbalancedParens

__all__ = [
    "OrderedTree",
    "LEAF",
    "enumerate_trees",
    "compositions",
    "hook_lengths",
    "tree_weight_hook",
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


LEAF = OrderedTree()


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` positive integers summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_trees(n: int) -> Iterator[OrderedTree]:
    """Stream every ordered tree with exactly ``n`` vertices, once each.

    Recursion over the root degree j and the compositions of ``n-1``
    into j positive subtree sizes; no memoization, no materialized
    lists.  Deterministic order: j ascending, compositions lexicographic.
    """
    if n < 1:
        raise ValueError("trees have at least one vertex")
    if n == 1:
        yield LEAF
        return
    for j in range(1, n):
        for sizes in compositions(n - 1, j):
            for forest in _forests(sizes):
                yield OrderedTree(forest)


def _forests(sizes: tuple[int, ...]) -> Iterator[tuple[OrderedTree, ...]]:
    if not sizes:
        yield ()
        return
    for first in enumerate_trees(sizes[0]):
        for rest in _forests(sizes[1:]):
            yield (first, *rest)


def hook_lengths(tree: OrderedTree) -> list[int]:
    """Subtree sizes, one per vertex, root first in depth-first order."""
    out = [tree.size]
    for child in tree.children:
        out.extend(hook_lengths(child))
    return out


def tree_weight_hook(tree: OrderedTree, rho: "HookWeightFunction") -> Fraction:
    """Product of ``rho(h_v)`` over all vertices."""
    if rho.size < tree.size:
        raise RhoRangeExceeded(
            f"tree has hook lengths up to {tree.size} but rho covers 1..{rho.size}"
        )
    total = Fraction(1)
    for h in hook_lengths(tree):
        total *= rho(h)
    return total


# --- increasing labellings: three independent counters ---------------------------


def labellings_hook(tree: OrderedTree) -> Fraction:
    """``n! / product of hook lengths`` as an exact rational.

    Integrality is a consequence, not an assumption; callers who want the
    integer should check ``denominator == 1``.
    """
    product = 1
    for h in hook_lengths(tree):
        product *= h
    return Fraction(factorial(tree.size), product)


def labellings_recursive(tree: OrderedTree) -> int:
    """Count increasing labellings by the root decomposition.

    The root takes label 1; the remaining ``n-1`` labels are split among
    the subtrees (multinomial), each subtree labelled independently.
    The division is exact: the numerator is a multinomial coefficient
    times integers.
    """
    numerator = factorial(tree.size - 1)
    denominator = 1
    for child in tree.children:
        numerator *= labellings_recursive(child)
        denominator *= factorial(child.size)
    return numerator // denominator


def labellings_bruteforce(tree: OrderedTree) -> int:
    """Try all ``n!`` label assignments and keep the increasing ones.

    The literal definition and the slowest oracle; guarded at
    ``BRUTE_FORCE_LIMIT`` vertices.
    """
    n = tree.size
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitExceeded(
            f"brute-force labelling is limited to {BRUTE_FORCE_LIMIT} vertices, got {n}"
        )
    parents = _preorder_parents(tree)
    count = 0
    for labels in permutations(range(1, n + 1)):
        if all(labels[parents[v]] < labels[v] for v in range(1, n)):
            count += 1
    return count


def _preorder_parents(tree: OrderedTree) -> list[int]:
    """Parent index per vertex in preorder; the root gets -1."""
    parents = [-1]

    def walk(node: OrderedTree, index: int) -> int:
        cursor = index
        for child in node.children:
            parents.append(index)
            cursor = walk(child, cursor + 1)
        return cursor

    walk(tree, 0)
    return parents


# --- text format -------------------------------------------------------------------


def parse_tree(text: str) -> OrderedTree:
    """Parse a balanced-parenthesis word: each matched pair is a vertex,
    nesting is the child relation, the outermost pair is the root.

    Pairs may nest at most ``MAX_TREE_DEPTH`` deep; deeper words raise
    :class:`SizeLimitExceeded`.
    """
    stack: list[list[OrderedTree]] = []
    root: OrderedTree | None = None
    for offset, ch in enumerate(text):
        if ch in " \t":
            continue
        if ch == "(":
            if root is not None:
                raise UnbalancedParens("unexpected second root", offset)
            if len(stack) == MAX_TREE_DEPTH:
                raise SizeLimitExceeded(
                    f"tree nests more than {MAX_TREE_DEPTH} levels deep at offset {offset}"
                )
            stack.append([])
        elif ch == ")":
            if not stack:
                raise UnbalancedParens("unmatched ')'", offset)
            node = OrderedTree(tuple(stack.pop()))
            if stack:
                stack[-1].append(node)
            else:
                root = node
        else:
            raise UnbalancedParens(f"unexpected character {ch!r}", offset)
    if stack:
        raise UnbalancedParens("unclosed '('", len(text))
    if root is None:
        raise UnbalancedParens("empty input", 0)
    return root


def format_tree(tree: OrderedTree) -> str:
    """Canonical parenthesis word; inverse of :func:`parse_tree`."""
    return "(" + "".join(format_tree(child) for child in tree.children) + ")"
