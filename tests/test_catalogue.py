"""A catalogue of hook length formulas: (family, rho(h), closed form for F_n).

F_n is the sum over ordered trees of size n of the degree weight times
the product of rho over the hook lengths.  Each entry is checked three
ways: the oracle's weighted sums for n = 1..TALLY_LIMIT, the series
``series_from_rho`` to order ``ORDER``, and ``rho_from_series`` on the
closed-form series, which must give rho back.

Sources:

- Postnikov, "Permutohedra, associahedra, and beyond", IMRN 2009;
- Han, "New hook length formulas for binary trees", Combinatorica 30, 2010;
- the increasing labellings: n!/prod h_v counts those of one tree, and
  there are n! increasing binary trees of size n;
- the (1+st)^m form: ``yang:s,m``, with ``kary:k`` at s = 1, m = k and
  ``polyalpha:a`` at s = -1, m = -a (Panholzer and Prodinger, "Level of
  nodes in increasing trees revisited", Random Structures Algorithms 31,
  2007, for the three increasing-tree classes);
- ``labelled`` (exp(t)) with rho(h) = 1 + 1/h: n! F_n = 2 (2n-1)!/n!;
- ``1/(1-t)^alpha`` with rho(h) = 1/h: the increasing-tree counts, as a
  falling factorial and as the expansion of 1 - (1 - (alpha+1) z)^(1/(alpha+1)).
"""

from fractions import Fraction as Q
from functools import cache
from math import factorial

import pytest

from hooktrees import families
from hooktrees.hookcalc import HookWeightFunction, rho_from_series, series_from_rho
from hooktrees.series import TruncatedSeries
from hooktrees.treeoracle import TALLY_LIMIT, weighted_sum

from eager_series import alpha_family_count, alpha_family_series

ORDER = 150


def one_plus_st_to_the_m(s, m):
    """rho(h) = 1 + 1/((m-1)h) and F_n = s^(n-1) m^n ((m-1)n+1)^(n-1) / ((m-1)^n n!)."""
    return (
        lambda h: 1 + Q(1) / ((m - 1) * h),
        lambda n: s ** (n - 1) * m**n * ((m - 1) * n + 1) ** (n - 1)
        / ((m - 1) ** n * factorial(n)),
    )


@cache
def alpha_series(alpha):
    return alpha_family_series(alpha, ORDER)


# name: (family spec, rho(h), F_n)
CATALOGUE = {
    "postnikov": (
        "binary",
        lambda h: 1 + Q(1, h),
        lambda n: Q(2**n * (n + 1) ** (n - 1), factorial(n)),
    ),
    "han": ("binary", lambda h: Q(1, h * 2 ** (h - 1)), lambda n: Q(1, factorial(n))),
    "increasing-binary": ("binary", lambda h: Q(1, h), lambda n: Q(1)),
    "yang:1/2,3": ("yang:1/2,3", *one_plus_st_to_the_m(Q(1, 2), Q(3))),
    "yang:2,5/2": ("yang:2,5/2", *one_plus_st_to_the_m(Q(2), Q(5, 2))),
    "yang:1/3,-1/2": ("yang:1/3,-1/2", *one_plus_st_to_the_m(Q(1, 3), Q(-1, 2))),
    "kary:3": ("kary:3", *one_plus_st_to_the_m(Q(1), Q(3))),
    "kary:4": ("kary:4", *one_plus_st_to_the_m(Q(1), Q(4))),
    "polyalpha:1": ("polyalpha:1", *one_plus_st_to_the_m(Q(-1), Q(-1))),
    "polyalpha:1/2": ("polyalpha:1/2", *one_plus_st_to_the_m(Q(-1), Q(-1, 2))),
    "polyalpha:2": ("polyalpha:2", *one_plus_st_to_the_m(Q(-1), Q(-2))),
    "labelled": (
        "labelled",
        lambda h: 1 + Q(1, h),
        lambda n: Q(2 * factorial(2 * n - 1), factorial(n) ** 2),
    ),
    "alpha-count:1/2": (
        "polyalpha:1/2",
        lambda h: Q(1, h),
        lambda n: alpha_family_count(Q(1, 2), n) / factorial(n),
    ),
    "alpha-series:3": ("polyalpha:3", lambda h: Q(1, h), lambda n: alpha_series(Q(3)).coeff(n)),
}

entries = pytest.mark.parametrize("name", list(CATALOGUE))


def unpack(name, size):
    spec, rho, closed = CATALOGUE[name]
    table = HookWeightFunction([rho(h) for h in range(1, size + 1)])
    return families.from_spec(spec), table, closed


@entries
def test_oracle_sums_match_the_closed_form(name):
    family, rho, closed = unpack(name, TALLY_LIMIT)
    # the largest size first: one tally pass serves every size
    for n in range(TALLY_LIMIT, 0, -1):
        assert weighted_sum(n, family, rho) == closed(n), n


@entries
def test_series_from_rho_matches_the_closed_form(name):
    family, rho, closed = unpack(name, ORDER)
    expected = TruncatedSeries([0] + [closed(n) for n in range(1, ORDER + 1)])
    assert series_from_rho(rho, family, ORDER) == expected


@entries
def test_rho_from_series_gives_rho_back(name):
    family, rho, closed = unpack(name, ORDER)
    F = TruncatedSeries([0] + [closed(n) for n in range(1, ORDER + 1)])
    assert rho_from_series(F, family, ORDER) == rho
