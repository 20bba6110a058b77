"""hooktrees: exact hook-length weight calculus for weighted ordered trees.

Computes the counting series of degree-weighted, hook-weighted ordered
rooted trees with exact rational arithmetic, recovers the hook weight
function from a target series (tree and forest forms), solves the
fixed-point and differential equations of simply generated and increasing
tree families, and certifies every identity by exhaustive enumeration at
small sizes.

The root holds only ``__version__``: import every other name from its
module, so that the oracle and the series half each load without the other.
"""

__version__ = "0.1.0"
