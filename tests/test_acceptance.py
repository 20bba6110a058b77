"""Acceptance suite: the exit criteria for the whole artifact.

Every check is exact (rational equality, zero tolerance).  Each test
prints one line naming its criterion; run with ``pytest -s`` to see them
even on success.
"""

import random
import time
from fractions import Fraction as Q
from math import factorial

from hooktrees import families, gfparse
from hooktrees.errors import ParseError
from hooktrees.hookcalc import (
    HookWeightFunction,
    egf_counts,
    rho_from_forest,
    rho_from_series,
    series_from_rho,
    solve_increasing,
    solve_simply_generated,
)
from hooktrees.rational import rational_to_string
from hooktrees.series import TruncatedSeries
from hooktrees.treeoracle import (
    enumerate_trees,
    labellings_bruteforce,
    labellings_hook,
    labellings_recursive,
    weighted_sum,
)

from eager_series import (
    alpha_family_count,
    alpha_family_series,
    binary_rho,
    div,
    exp,
    identity,
    log,
    pow_int,
    pow_rational,
)

SEED = 20240811


def family_grid():
    return [
        families.from_spec("binary"),
        families.from_spec("kary:3"),
        families.from_spec("plane"),
        families.from_spec("labelled"),
        families.from_spec("yang:1/2,3"),
        families.from_spec("polyalpha:2"),
    ]


def rho_grid(size):
    rng = random.Random(SEED)
    return [
        HookWeightFunction.named("1", size),
        HookWeightFunction.named("1/n", size),
        HookWeightFunction(
            tuple(Q(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(size))
        ),
    ]


def random_tree_series(rng, order):
    coeffs = [Q(0)] + [
        Q(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(order)
    ]
    return TruncatedSeries(coeffs)


def report(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_c1_enumeration_certifies_the_tree_identity():
    started = time.monotonic()
    for fam in family_grid():
        for rho in rho_grid(8):
            F = series_from_rho(rho, fam, 8)
            for n in range(1, 9):
                assert weighted_sum(n, fam, rho) == F.coeff(n), (fam.name, rho.to_strings()[:3], n)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(f"1 tree identity certified on the 6x3 grid, n<=8, {elapsed:.2f}s")


def test_c2_rho_roundtrip_at_order_16():
    for fam in family_grid():
        for rho in rho_grid(16):
            F = series_from_rho(rho, fam, 16)
            assert rho_from_series(F, fam, 16) == rho, (fam.name, rho.to_strings()[:3])
    report("2 rho -> F -> rho roundtrip exact at N=16")


def test_c3_binary_special_case_matches_general_form():
    rng = random.Random(SEED + 3)
    fam = families.from_spec("binary")
    for _ in range(20):
        F = random_tree_series(rng, 20)
        assert binary_rho(F, 20) == rho_from_series(F, fam, 20)
    report("3 binary quotient form = general form on 20 random series, order 20")


def test_c4_alpha_family_closed_forms():
    for alpha in (Q(1), Q(2), Q(3), Q(1, 2)):
        closed = alpha_family_series(alpha, 15)
        family = families.from_spec(f"polyalpha:{rational_to_string(alpha)}")
        solved = solve_increasing(family, 15)
        assert closed == solved, alpha
        for n in range(1, 16):
            assert alpha_family_count(alpha, n) == factorial(n) * closed.coeff(n)
        rho = rho_from_series(closed, family, 15)
        assert rho == HookWeightFunction.named("1/n", 15), alpha
    report("4 alpha family: ODE = closed form, counts match, rho = 1/n")


def test_c5_forest_form_consistency():
    rng = random.Random(SEED + 5)
    for fam in (families.from_spec("plane"), families.from_spec("labelled")):
        phi = fam.phi_series(15)
        for _ in range(20):
            F = random_tree_series(rng, 15)
            G = phi.compose(F)
            assert rho_from_forest(G, fam, 15) == rho_from_series(F, fam, 15)

    # the two textbook inverses, confirmed by composition
    plane_phi = families.from_spec("plane").phi_series(15)
    H = (plane_phi - 1).revert()
    assert H == div(identity(15), identity(15) + 1)  # the 1 - 1/t expansion at 1+u
    assert plane_phi.compose(H) == identity(15) + 1

    labelled_phi = families.from_spec("labelled").phi_series(15)
    L = (labelled_phi - 1).revert()
    assert L == log(identity(15) + 1)
    assert exp(L) == identity(15) + 1
    report("5 forest form = tree form on 40 random series; inverses confirmed")


def test_c6_classic_sequences():
    assert solve_simply_generated(families.from_spec("binary"), 7).coefficients == (
        0, 1, 2, 5, 14, 42, 132, 429,
    )

    binary_counts = egf_counts(solve_increasing(families.from_spec("binary"), 10))
    assert binary_counts[1:] == [factorial(n) for n in range(1, 11)]

    plane_counts = egf_counts(solve_increasing(families.from_spec("plane"), 10))
    double_factorials = [
        Q(1) if n == 1 else Q(1) * _double_factorial(2 * n - 3)
        for n in range(1, 11)
    ]
    assert plane_counts[1:] == double_factorials

    labelled_counts = egf_counts(solve_increasing(families.from_spec("labelled"), 10))
    assert labelled_counts[1:] == [factorial(n - 1) for n in range(1, 11)]
    report("6 classic sequences: Catalan, n!, (2n-3)!!, (n-1)!")


def _double_factorial(k):
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def test_c7_labelling_oracles_agree():
    seen = 0
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            by_hook = labellings_hook(tree)
            assert by_hook.denominator == 1
            assert by_hook == labellings_recursive(tree) == labellings_bruteforce(tree)
            seen += 1
    assert seen == 65
    for n in range(7, 11):
        for tree in enumerate_trees(n):
            assert labellings_hook(tree) == labellings_recursive(tree)
    report("7 labelling oracles: 3-way on 65 trees (n<=6), 2-way to n=10")


def test_c8_series_engine_roundtrips():
    rng = random.Random(SEED + 8)
    order = 16

    def random_series(constant=None, nonzero_linear=False):
        coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        if constant is not None:
            coeffs[0] = Q(constant)
        if nonzero_linear and coeffs[1] == 0:
            coeffs[1] = Q(1)
        return TruncatedSeries(coeffs)

    for _ in range(100):
        f = random_series(constant=0, nonzero_linear=True)
        assert f.compose(f.revert()) == identity(order)

    for _ in range(100):
        f = random_series(constant=1)
        assert exp(log(f)) == f

    for _ in range(100):
        f = random_series(constant=1)
        p = rng.choice([n for n in range(-6, 7) if n != 0])
        q = rng.randint(2, 4)
        assert pow_int(pow_rational(f, Q(p, q)), q) == pow_int(f, p)
    report("8 series engine: revert, exp/log, rational-power roundtrips x100")


def test_c9_parser_matches_hand_built_families_and_never_crashes():
    cases = [
        ("(1+t)^2", {}, families.from_spec("binary")),
        ("(1+t)^k", {"k": Q(3)}, families.from_spec("kary:3")),
        ("1/(1-t)", {}, families.from_spec("plane")),
        ("exp(t)", {}, families.from_spec("labelled")),
        ("(1+s*t)^m", {"s": Q(1, 2), "m": Q(3)}, families.from_spec("yang:1/2,3")),
        ("1/(1-t)^a", {"a": Q(2)}, families.from_spec("polyalpha:2")),
    ]
    for text, binding, fam in cases:
        got = gfparse.evaluate(gfparse.parse(text), binding, 20)
        assert got == fam.phi_series(20), text

    rng = random.Random(SEED + 9)
    pieces = [
        "t", "s", "a", "exp", "log", "sqrt", "1", "7", "1/3", "12",
        "+", "-", "*", "/", "^", "(", ")", " ", "_x", "0",
    ]
    for _ in range(1000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 16)))
        try:
            gfparse.parse(text)
        except ParseError:
            pass
    report("9 parser: 6 builtins match hand-built series; 1000 fuzz inputs safe")
