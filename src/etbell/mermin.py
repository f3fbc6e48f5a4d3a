"""The n-party Mermin polynomial in exact arithmetic.

:func:`mermin_coefficients` is the one statement of the polynomial: every
term list in the package (quantum correlators, local-model ensembles, event
streams) iterates its setting strings in the order it returns them, and
:func:`mermin_mu` turns the terms into ``mu``. For three parties the terms
are ``<A0 B0 C1>, <A0 B1 C0>, <A1 B0 C0>, <A1 B1 C1>`` and
``mu = |t1 + t2 + t3 - t4|``; for two it is the CHSH combination.
:func:`mermin_classical_bound` is the polynomial's maximum over
deterministic local values.

This module uses the standard library alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def mermin_coefficients(n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact coefficients of the n-party Mermin polynomial.

    Built by the recursion ``M_k = (M_{k-1} (B0 + B1) + M'_{k-1} (B0 - B1))/2``
    where the primed polynomial swaps every setting index; the base case is
    the single setting-0 observable. The returned map sends a setting string
    ``s in {0,1}^n`` to the coefficient of the product observable
    ``O_{1,s_1} x ... x O_{n,s_n}``, in lexicographic order of ``s`` and
    without zero coefficients. The whole functional is scaled by 2 at
    evaluation time (:func:`mermin_mu`), so n=3 has coefficients ``+-1/2``
    and n=2 is the CHSH combination.

    The polynomial is symmetric under party permutation, so a coefficient
    depends only on the number ``w`` of 1s in ``s``: the recursion runs on
    those values, ``c_k[w]``, and ``M'_k``'s are ``c_k[k - w]``.
    """
    if n < 1:
        raise ValueError("need at least one party")
    by_weight = [Fraction(1), Fraction(0)]
    for k in range(1, n):
        # a string of weight w <= k ends in 0; the one of weight k + 1 ends in 1
        by_weight = [(by_weight[w] + by_weight[k - w]) / 2 for w in range(k + 1)] + [
            (by_weight[k] - by_weight[0]) / 2
        ]
    strings = itertools.product((0, 1), repeat=n)
    return {s: by_weight[sum(s)] for s in strings if by_weight[sum(s)]}


def mermin_mu(coeffs, terms):
    """``mu = |2 sum_s c_s t_s|`` over ``terms`` in the order of ``coeffs``
    (a :func:`mermin_coefficients` map), or ``None`` when any term is
    undefined. Fraction terms give an exact Fraction."""
    if any(t is None for t in terms):
        return None
    return abs(2 * sum(c * t for c, t in zip(coeffs.values(), terms)))


def mermin_classical_bound(n: int) -> Fraction:
    """Deterministic (no-postselection) bound of the scaled Mermin
    polynomial, computed exactly rather than assumed.

    Every party holds a value ``b0, b1 = +-1`` per setting. The polynomial's
    own recursion then runs on the pair of values ``(M, M')``:
    ``M <- (M (b0 + b1) + M' (b0 - b1))/2`` and
    ``M' <- (M' (b0 + b1) + M (b1 - b0))/2``, from ``(b0, b1)`` at the first
    party. Carrying the set of reachable pairs party by party covers all
    ``4^n`` assignments; the set stays small, so this is O(n).
    """
    if n < 1:
        raise ValueError("need at least one party")
    values = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    reachable = {(Fraction(b0), Fraction(b1)) for b0, b1 in values}
    for _ in range(n - 1):
        reachable = {
            ((m * (b0 + b1) + mp * (b0 - b1)) / 2, (mp * (b0 + b1) + m * (b1 - b0)) / 2)
            for m, mp in reachable
            for b0, b1 in values
        }
    return max(abs(2 * m) for m, _ in reachable)
