"""Tree enumeration and weighted sums (the certification oracle).

Two oracles that share no code with the series half.  ``tally`` is the
fast one: it counts the ordered trees of each signature (degree and
hook-length histograms) by building ordered forests from whole classes
of trees that share a signature, and evaluates weighted sums in exact
integer arithmetic.  ``trees`` is the literal one: it streams every
ordered tree and is the reference the tests hold the tally against.
"""

from .tally import TALLY_LIMIT, backend_name, signature_counts, weighted_sum
from .trees import (
    BRUTE_FORCE_LIMIT,
    LEAF,
    MAX_TREE_DEPTH,
    OrderedTree,
    compositions,
    enumerate_trees,
    format_tree,
    hook_lengths,
    labellings_bruteforce,
    labellings_hook,
    labellings_recursive,
    parse_tree,
    tree_weight_hook,
)

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "LEAF",
    "MAX_TREE_DEPTH",
    "TALLY_LIMIT",
    "OrderedTree",
    "backend_name",
    "compositions",
    "enumerate_trees",
    "format_tree",
    "hook_lengths",
    "labellings_bruteforce",
    "labellings_hook",
    "labellings_recursive",
    "parse_tree",
    "signature_counts",
    "tree_weight_hook",
    "weighted_sum",
]
