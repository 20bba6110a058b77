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

from . import tally, trees
from .tally import *
from .trees import *

__all__ = [*tally.__all__, *trees.__all__]
