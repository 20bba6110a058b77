"""The certification oracle and the trees of the ``labellings`` command.

Shares no code with the series half.  ``tally`` counts the ordered trees
of each signature (degree and hook-length histograms) by building
ordered forests from whole classes of trees that share a signature, and
evaluates weighted sums in exact integer arithmetic; ``verify`` and the
catalogue certify the hook length formulas with it.  ``trees`` holds one
ordered tree, its parenthesis word, its hook lengths and three counters
of its increasing labellings, which serve the ``labellings`` command.
The literal oracle, which streams every ordered tree and weighs each one,
lives in the tests (``tests/literal_oracle.py``) and holds the tally to
the definition there.
"""

from .tally import TALLY_LIMIT, backend_name, signature_counts, weighted_sum
from .trees import (
    BRUTE_FORCE_LIMIT,
    MAX_TREE_DEPTH,
    OrderedTree,
    format_tree,
    hook_lengths,
    labellings_bruteforce,
    labellings_hook,
    labellings_recursive,
    parse_tree,
)

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "MAX_TREE_DEPTH",
    "TALLY_LIMIT",
    "OrderedTree",
    "backend_name",
    "format_tree",
    "hook_lengths",
    "labellings_bruteforce",
    "labellings_hook",
    "labellings_recursive",
    "parse_tree",
    "signature_counts",
    "weighted_sum",
]
