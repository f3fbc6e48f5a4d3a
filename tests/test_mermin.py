"""The Mermin polynomial's coefficient table and classical bound, pinned
against the direct constructions they replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest

from etbell.mermin import mermin_classical_bound, mermin_coefficients


def _recursive_coefficients(n):
    """``M_k = (M_{k-1} (B0 + B1) + M'_{k-1} (B0 - B1))/2`` on the map from
    setting strings to coefficients, the primed map at the swapped strings."""
    coeffs = {(0,): Fraction(1)}
    for _ in range(n - 1):
        support = set(coeffs) | {tuple(1 - x for x in s) for s in coeffs}
        nxt = {}
        for s in sorted(support):
            c = coeffs.get(s, Fraction(0))
            cp = coeffs.get(tuple(1 - x for x in s), Fraction(0))
            if c + cp:
                nxt[s + (0,)] = (c + cp) / 2
            if c - cp:
                nxt[s + (1,)] = (c - cp) / 2
        coeffs = nxt
    return coeffs


@pytest.mark.parametrize("n", range(1, 13))
def test_coefficients_by_weight_are_the_recursion(n):
    got = mermin_coefficients(n)
    assert list(got.items()) == list(_recursive_coefficients(n).items())
    assert all(type(c) is Fraction for c in got.values())


def test_coefficients_need_a_party():
    with pytest.raises(ValueError, match="at least one party"):
        mermin_coefficients(0)


def _enumerated_classical_bound(n):
    """The bound over all 4^n local sign assignments, each Mermin term the
    product of its parties' signs."""
    coeffs = mermin_coefficients(n)
    terms = np.array(list(coeffs))
    denom = math.lcm(*(c.denominator for c in coeffs.values()))
    numerators = np.array([int(c * denom) for c in coeffs.values()])
    assignments = 1 - 2 * np.indices((2,) * (2 * n), dtype=np.int8).reshape(2 * n, -1).T.reshape(-1, n, 2)
    products = assignments[:, np.arange(n), terms].prod(axis=-1)
    return Fraction(2 * int(np.abs(products @ numerators).max()), denom)


@pytest.mark.parametrize("n", range(2, 9))
def test_classical_bound_matches_the_enumeration(n):
    bound = mermin_classical_bound(n)
    assert type(bound) is Fraction
    assert bound == _enumerated_classical_bound(n)


def test_classical_bound_at_a_hundred_parties():
    # the reachable (M, M') pairs stay few, so n = 100 costs 100 small steps
    assert mermin_classical_bound(100) == 2
    with pytest.raises(ValueError, match="at least one party"):
        mermin_classical_bound(0)
