"""Macaulay binomial representations and the growth bound on width sequences.

Every positive integer ``c`` has a unique greedy expansion

    c = C(k_d, d) + C(k_{d-1}, d-1) + ... + C(k_delta, delta)

with k_d > k_{d-1} > ... > k_delta >= delta >= 1.  Shifting every term to
C(k_j + 1, j + 1) gives the maximal admissible next value ``c^<d>`` of a
width sequence; a sequence staying below that bound step by step is called
a 0-sequence here.  Width sequences of graded quotients are exactly of
this kind, which is what every sequence validator in this package leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import DomainError


@dataclass(frozen=True)
class MacaulayRep:
    """The d-th greedy binomial representation of a positive integer."""

    c: int
    d: int
    terms: tuple[tuple[int, int], ...]  # (k_j, j) with j descending from d

    def value(self) -> int:
        return sum(comb(k, j) for k, j in self.terms)


def macaulay_rep(c: int, d: int) -> MacaulayRep:
    """Greedy representation of ``c`` with top index ``d``.

    Raises DomainError unless c >= 1 and d >= 1.  The result is the unique
    expansion with strictly decreasing upper indices; each k_j is the largest
    value whose binomial still fits under the remainder.
    """
    if not isinstance(c, int) or not isinstance(d, int) or c <= 0 or d <= 0:
        raise DomainError(f"macaulay_rep needs integers c >= 1 and d >= 1, got c={c}, d={d}")
    terms: list[tuple[int, int]] = []
    rem = c
    j = d
    while rem > 0:
        k = j
        while comb(k + 1, j) <= rem:
            k += 1
        terms.append((k, j))
        rem -= comb(k, j)
        j -= 1
    return MacaulayRep(c, d, tuple(terms))


def macaulay_next(c: int, d: int) -> int:
    """The growth bound c^<d>: every term C(k, j) shifted to C(k+1, j+1)."""
    rep = macaulay_rep(c, d)
    return sum(comb(k + 1, j + 1) for k, j in rep.terms)


@dataclass(frozen=True)
class ZeroSeqCheck:
    ok: bool
    violation: int | None  # index of the first offending element


def is_zero_sequence(
    seq: Sequence[int],
    start_degree: int = 0,
    cone_rule: bool = True,
) -> ZeroSeqCheck:
    """Check the step-by-step growth bound a_{l+1} <= a_l^<l>.

    ``start_degree`` is the degree of the first entry.  Once an entry is 0
    every later entry must be 0.  No binomial bound exists at degree 0; with
    ``cone_rule`` set (the default) a sequence starting at degree 0 must
    instead open with a_0 <= 1, which is forced for the widths of a cone.
    Pass ``cone_rule=False`` to test raw sequences with a free first entry.

    The result's ``violation`` is the index of the first entry that breaks
    the bound, or None.
    """
    entries = list(seq)
    if not entries:
        raise DomainError("is_zero_sequence needs at least one entry")
    if start_degree < 0:
        raise DomainError("start_degree must be >= 0")
    for i, a in enumerate(entries):
        if not isinstance(a, int) or a < 0:
            raise DomainError(f"entries must be non-negative integers, got {a!r} at index {i}")
    if cone_rule and start_degree == 0 and entries[0] > 1:
        return ZeroSeqCheck(False, 0)
    for i in range(len(entries) - 1):
        a, b = entries[i], entries[i + 1]
        if a == 0:
            if b != 0:
                return ZeroSeqCheck(False, i + 1)
            continue
        degree = start_degree + i
        if degree == 0:
            continue  # no bound is defined for the step out of degree 0
        if b > macaulay_next(a, degree):
            return ZeroSeqCheck(False, i + 1)
    return ZeroSeqCheck(True, None)
