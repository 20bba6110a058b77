"""A catalogue of hook length formulas.

F_n is the sum over ordered trees of size n of the degree weight times
the product of rho over the hook lengths.

**Hook length polynomials.**  For phi = (1 + s t)^m, with m any rational,
and rho(h) = x + 1/h with x free,

    F_n(x) = s^(n-1) * (1/n) * C(mn, n-1) * prod_{k=1..n} (x + ((m-1)k + 1) / (mn + 1 - k)),

where C(mn, n-1) = mn (mn - 1) ... (mn - n + 2) / (n-1)!.  ``yang:s,m`` is
this family, ``kary:k`` is s = 1, m = k, ``binary`` is kary:2, and
``polyalpha:a`` is s = -1, m = -a (``plane`` is polyalpha:1).  ``labelled``,
exp(t), is the limit s = 1/m, m -> infinity:
F_n(x) = n^(n-1)/n! * prod_{k=1..n} (x + k/n).  Both sides are
polynomials in x of degree at most n: every tree has n vertices, each a
factor x + 1/h, and the right side has n linear factors.  Two such
polynomials that agree at n + 1 distinct x are equal, so the oracle's
weighted sums at n + 1 values of x certify a row for every x at once.
The oracle does so for every family of the table and every n up to
``TALLY_LIMIT``.  Every family is summed at the same rho tables, and the
oracle weighs the hook side of a table at a size once, so each family
after the first costs little more than its degree weights.  The series
half is checked to order ``ORDER``, with ``series_from_rho`` and the
``rho_from_series`` round trip, at the x of the classical formulas:

- x = 1 for ``binary``: Postnikov's formula 2^n (n+1)^(n-1) / n!
  (Postnikov, "Permutohedra, associahedra, and beyond", IMRN 2009);
- x = 0 for ``binary``: rho(h) = 1/h, and F_n = 1 because n!/prod h_v
  counts the increasing labellings of one tree and there are n! increasing
  binary trees of size n;
- x = m - 1 for the other (1 + s t)^m rows, with rho divided by m - 1:
  rho(h) = 1 + 1/((m-1)h) and
  F_n = s^(n-1) m^n ((m-1)n + 1)^(n-1) / ((m-1)^n n!).  Dividing rho by c
  divides F_n by c^n, since a tree of size n has n hooks.  (Panholzer and
  Prodinger, "Level of nodes in increasing trees revisited", Random
  Structures Algorithms 31, 2007, for the three increasing-tree classes.)
- x = 5/2 for ``labelled``, with rho divided by 5/2: a point of no
  classical formula, since its x = 1 point is the fixed ``labelled`` row.

**Fixed rows**, each checked three ways: the oracle's weighted sums for
n = 1..TALLY_LIMIT, ``series_from_rho`` to order ``ORDER``, and
``rho_from_series`` on the closed-form series, which must give rho back.

- ``han``: rho(h) = 1/(h 2^(h-1)) on binary trees, F_n = 1/n! (Han, "New
  hook length formulas for binary trees", Combinatorica 30, 2010).  The
  hook length appears in an exponent, so this rho is not of the form
  x + 1/h, and the row is not a point of the binary polynomial.
- ``labelled`` with rho(h) = 1 + 1/h: n! F_n = 2 (2n-1)!/n!, the x = 1
  point of its polynomial, kept as a closed form of its own;
- ``1/(1-t)^alpha`` with rho(h) = 1/h: the increasing-tree counts, as a
  falling factorial and as the expansion of 1 - (1 - (alpha+1) z)^(1/(alpha+1)).
"""

from fractions import Fraction as Q
from functools import cache, partial
from math import factorial, prod

import pytest

from hooktrees import families
from hooktrees.hookcalc import (
    HookWeightFunction,
    rho_from_forest,
    rho_from_series,
    series_from_rho,
)
from hooktrees.series import TruncatedSeries
from hooktrees.treeoracle import TALLY_LIMIT, weighted_sum

from eager_series import alpha_family_count, alpha_family_series

ORDER = 150


def one_plus_st_to_the_m(s, m, n, x):
    """F_n(x) for phi = (1 + s t)^m and rho(h) = x + 1/h, in integers:
    with m = a/b and x = p/q, mn - j = (an - bj)/b and
    x + ((m-1)k + 1)/(mn + 1 - k) = (p d_k + q ((a-b)k + b)) / (q d_k),
    d_k = an + b - bk."""
    (a, b), (p, q) = Q(m).as_integer_ratio(), Q(x).as_integer_ratio()
    binomial = Q(prod(a * n - b * j for j in range(n - 1)), b ** (n - 1) * factorial(n - 1))
    d = [a * n + b - b * k for k in range(1, n + 1)]
    roots = Q(prod(p * d_k + q * ((a - b) * k + b) for k, d_k in enumerate(d, 1)),
              q**n * prod(d))
    return Q(s) ** (n - 1) * binomial / n * roots


def exp_limit(n, x):
    """F_n(x) for phi = exp(t) and rho(h) = x + 1/h: with x = p/q,
    x + k/n = (pn + qk)/(qn)."""
    p, q = Q(x).as_integer_ratio()
    return Q(n ** (n - 1), factorial(n)) * Q(prod(p * n + q * k for k in range(1, n + 1)),
                                             (q * n) ** n)


# family spec: (F_n(x), the x at which the series half is checked)
POLYNOMIALS = {
    "binary": (partial(one_plus_st_to_the_m, 1, 2), (Q(1), Q(0))),
    "kary:3": (partial(one_plus_st_to_the_m, 1, 3), (Q(2),)),
    "kary:4": (partial(one_plus_st_to_the_m, 1, 4), (Q(3),)),
    "yang:1/2,3": (partial(one_plus_st_to_the_m, Q(1, 2), 3), (Q(2),)),
    "yang:2,5/2": (partial(one_plus_st_to_the_m, 2, Q(5, 2)), (Q(3, 2),)),
    "yang:1/3,-1/2": (partial(one_plus_st_to_the_m, Q(1, 3), Q(-1, 2)), (Q(-3, 2),)),
    "plane": (partial(one_plus_st_to_the_m, -1, -1), (Q(-2),)),
    "polyalpha:1/2": (partial(one_plus_st_to_the_m, -1, Q(-1, 2)), (Q(-3, 2),)),
    "polyalpha:2": (partial(one_plus_st_to_the_m, -1, -2), (Q(-3),)),
    "labelled": (exp_limit, (Q(5, 2),)),
}
# n + 1 of XS certify size n
XS = tuple(Q(k, 3) for k in range(-8, 9))


def at(spec, x, size):
    """rho(h) = (x + 1/h)/c for h = 1..size and the series of F_n(x)/c^n to
    order size, where c = x, or 1 at x = 0."""
    polynomial, _ = POLYNOMIALS[spec]
    c = x or 1
    rho = HookWeightFunction([(x + Q(1, h)) / c for h in range(1, size + 1)])
    F = TruncatedSeries([0] + [polynomial(n, x) / c**n for n in range(1, size + 1)])
    return rho, F


@pytest.mark.parametrize("spec", list(POLYNOMIALS))
def test_oracle_sums_are_the_hook_length_polynomial(spec):
    assert len(set(XS)) == TALLY_LIMIT + 1
    polynomial, _ = POLYNOMIALS[spec]
    family = families.from_spec(spec)
    # the largest size first: one tally pass serves every size
    for n in range(TALLY_LIMIT, 0, -1):
        for x in XS[: n + 1]:
            rho = HookWeightFunction([x + Q(1, h) for h in range(1, n + 1)])
            assert weighted_sum(n, family, rho) == polynomial(n, x), (n, x)


@pytest.mark.parametrize(
    "spec, x", [(spec, x) for spec, (_, points) in POLYNOMIALS.items() for x in points]
)
def test_series_half_at_the_classical_points(spec, x):
    family = families.from_spec(spec)
    rho, F = at(spec, x, ORDER)
    assert series_from_rho(rho, family, ORDER) == F
    assert rho_from_series(F, family, ORDER) == rho


@pytest.mark.parametrize("spec", [spec for spec in POLYNOMIALS if spec != "labelled"])
def test_x_equal_to_m_minus_1_is_the_closed_form(spec):
    s, m = map(Q, POLYNOMIALS[spec][0].args)
    rho, F = at(spec, m - 1, 12)
    assert rho.values == tuple(1 + 1 / ((m - 1) * h) for h in range(1, 13))
    assert F.coefficients[1:] == tuple(
        s ** (n - 1) * m**n * ((m - 1) * n + 1) ** (n - 1) / ((m - 1) ** n * factorial(n))
        for n in range(1, 13)
    )
    if spec == "binary":  # Postnikov's formula at x = 1; at x = 0, F_n = 1
        assert F.coefficients[1:] == tuple(
            Q(2**n * (n + 1) ** (n - 1), factorial(n)) for n in range(1, 13)
        )
        assert at(spec, Q(0), 12)[1].coefficients[1:] == (1,) * 12


@cache
def alpha_series(alpha):
    return alpha_family_series(alpha, ORDER)


# name: (family spec, rho(h), F_n)
CATALOGUE = {
    "han": ("binary", lambda h: Q(1, h * 2 ** (h - 1)), lambda n: Q(1, factorial(n))),
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


@pytest.mark.parametrize(
    "name, x",
    [(name, None) for name in CATALOGUE]
    + [(spec, x) for spec, (_, points) in POLYNOMIALS.items() for x in points],
)
def test_rho_from_forest_gives_rho_back(name, x):
    if x is None:
        family, rho, closed = unpack(name, ORDER)
        F = [0] + [closed(n) for n in range(1, ORDER + 1)]
    else:
        family = families.from_spec(name)
        rho, series = at(name, x, ORDER)
        F = series.coefficients
    # the forest form from the tree relation: G_k = F_{k+1} / rho(k+1)
    G = TruncatedSeries([F[k + 1] / rho(k + 1) for k in range(ORDER)])
    assert rho_from_forest(G, family, ORDER - 1).values == rho.values[: ORDER - 1]
