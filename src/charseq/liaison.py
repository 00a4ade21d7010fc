"""Relative characteristic sequences and the liaison calculus.

A hypersurface Y of an ACM scheme X is measured by the degree shifts
(n_0, ..., n_{d-1}) of the free module of forms vanishing on Y inside the
coordinate ring of X.  This module implements the purely arithmetic side:
conversion to and from absolute sequences, the liaison reflection, section
shifts, gap splitting, minimal sequences of given degree, and the genus
bound they imply.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, NotConsistentError
from .macaulay import is_zero_sequence
from .seqcalc import (
    CharSeq,
    _phi_sum,
    is_gorenstein_symmetric,
    phi_from_charseq,
    plane_curve_charseq,
)


class LiaisonError(DomainError):
    """A liaison-level operation received sequences it cannot link."""


@dataclass(frozen=True)
class RelCharSeq:
    """Relative characteristic sequence (n_i) over its ambient sequence.

    The constructor only enforces shape (matching length, non-decreasing
    entries): gap splitting legitimately produces pieces whose entries drop
    below the ambient, and those are reported rather than rejected.  Use
    :meth:`violations` for the full geometric validity check.
    """

    entries: tuple[int, ...]
    ambient: CharSeq

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.ambient.d:
            raise DomainError(
                f"relative sequence has {len(entries)} entries for an ambient of degree {self.ambient.d}"
            )
        if any(a > b for a, b in zip(entries, entries[1:])):
            raise DomainError(f"relative sequence must be non-decreasing: {entries}")

    @property
    def d(self) -> int:
        return len(self.entries)

    def violations(self, irreducible: bool = False) -> tuple[str, ...]:
        """Names of the invariants this sequence breaks (empty when valid);
        the composite widths #{m_j <= i} - #{n_j <= i}, i = 0, ..., max(0,
        entries), are tested against the growth bound only when no other
        invariant fails."""
        out: list[str] = []
        m = self.ambient.entries
        n = self.entries
        if any(ni < mi for ni, mi in zip(n, m)):
            out.append("entry_below_ambient")
        if irreducible and any(b > a + 1 for a, b in zip(n, n[1:])):
            out.append("jump_above_one")
        if not out:
            top = max((0, *m, *n))
            composite = [c - d for c, d in zip(_counts(m, top), _counts(n, top))]
            if not is_zero_sequence(composite, start_degree=0, cone_rule=True).ok:
                out.append("composite_widths_not_zero_sequence")
        return tuple(out)


def _counts(entries: Sequence[int], top: int) -> list[int]:
    # #{e in entries : e <= i} for i = 0, ..., top, of sorted entries.
    return [bisect_right(entries, i) for i in range(top + 1)]


def rel_degree(rel: RelCharSeq) -> int:
    """Degree of Y: the total shift sum(n_i - m_i)."""
    return sum(ni - mi for ni, mi in zip(rel.entries, rel.ambient.entries))


def abs_from_rel(rel: RelCharSeq) -> CharSeq:
    """Absolute sequence of Y: the sorted union of the intervals [m_i, n_i).

    The result lives one cone dimension below the ambient and one
    codimension deeper.
    """
    m = rel.ambient.entries
    n = rel.entries
    if any(ni < mi for ni, mi in zip(n, m)):
        raise DomainError(f"entries {n} drop below the ambient {m}; no absolute sequence exists")
    if rel.ambient.cone_dim < 1:
        raise DomainError("ambient cone dimension must be >= 1")
    entries = tuple(sorted(v for mi, ni in zip(m, n) for v in range(mi, ni)))
    return CharSeq(entries, rel.ambient.cone_dim - 1, rel.ambient.codim + 1)


def rel_from_abs(ambient: CharSeq, abs_y: CharSeq) -> RelCharSeq:
    """Invert :func:`abs_from_rel`: recover (n_i) from the absolute sequence.

    The cumulative counts d_i = c_i - l'_i determine the entries; the pair is
    rejected (NotConsistentError) when no valid relative sequence reproduces
    ``abs_y`` over ``ambient``.  As l'_i >= 0 each n_j >= m_j, so the
    intervals [m_j, n_j) give ``abs_y`` back unless some m_j < 0, and the
    composite widths are those of ``abs_y``.
    """
    if abs_y.cone_dim != ambient.cone_dim - 1:
        raise NotConsistentError(
            f"inconsistent pair: absolute cone_dim {abs_y.cone_dim} does not sit one below ambient {ambient.cone_dim}"
        )
    m = ambient.entries
    d = len(m)
    widths_abs = abs_y.widths
    top = max(max(m, default=0), len(widths_abs))  # every count is d from here on
    counts = []
    prev = 0
    for i, ci in enumerate(_counts(m, top)):
        li = widths_abs[i] if i < len(widths_abs) else 0
        di = ci - li
        if di < prev or di < 0 or di > d:
            raise NotConsistentError(
                f"inconsistent pair: cumulative counts are not monotone at degree {i}"
            )
        counts.append(di)
        prev = di
    if m and m[0] < 0:
        raise NotConsistentError("inconsistent pair: reconstruction does not reproduce the input")
    if not is_zero_sequence(widths_abs or (0,), start_degree=0, cone_rule=True).ok:
        raise NotConsistentError("inconsistent pair: composite widths break the growth bound")
    # n_j is the first degree whose count exceeds j; the last count is d
    return RelCharSeq(tuple(_counts(counts, d - 1)), ambient)


def link(rel: RelCharSeq, s: int) -> RelCharSeq:
    """Liaison reflection inside a degree-s section: n'_i = m_{d-1} + s - n_{d-1-i}.

    The ambient must be Gorenstein-symmetric.  When some reflected entry
    drops below the ambient no residual of that degree exists and a
    LiaisonError is raised.
    """
    if s < 1:
        raise DomainError("liaison section degree must be >= 1")
    if not is_gorenstein_symmetric(rel.ambient):
        raise DomainError("liaison needs a Gorenstein-symmetric ambient sequence")
    m = rel.ambient.entries
    if not m:
        raise DomainError("liaison over the empty ambient is undefined")
    top = m[-1]
    n = rel.entries
    linked = tuple(top + s - n[len(n) - 1 - i] for i in range(len(n)))
    if any(ni < mi for ni, mi in zip(linked, m)):
        raise LiaisonError(
            f"invalid liaison degree: reflecting {n} in a degree-{s} section drops below the ambient"
        )
    return RelCharSeq(linked, rel.ambient)


def add_section(rel: RelCharSeq, s: int) -> RelCharSeq:
    """Union with a disjoint degree-s section shifts every entry by s."""
    if s < 1:
        raise DomainError("section degree must be >= 1")
    return RelCharSeq(tuple(ni + s for ni in rel.entries), rel.ambient)


@dataclass(frozen=True)
class GapSplit:
    """Result of splitting at a gap n_i > n_{i-1} + 1.

    The ambient hypersurface decomposes as a union of hypersurfaces of
    degrees ``gap_index`` and ``section_degree``; ``low`` is the piece of Y
    on the first, ``high`` on the second.  ``note`` flags a low piece whose
    entries fall below its ambient (an empty or degenerate residual).
    """

    low: RelCharSeq
    high: RelCharSeq
    gap_index: int
    section_degree: int
    note: str = ""


def split_on_gap(rel: RelCharSeq) -> GapSplit | None:
    """Split Y across the first gap of its sequence, if any.

    Only applies over a hypersurface ambient (entries 0..d-1).  Returns None
    when the sequence has no gap.
    """
    amb = rel.ambient
    if amb.entries != tuple(range(amb.d)) or amb.codim != 1:
        raise DomainError("gap splitting applies to hypersurface ambients only")
    n = rel.entries
    gap = next((i for i in range(1, len(n)) if n[i] > n[i - 1] + 1), None)
    if gap is None:
        return None
    d = len(n)
    s = d - gap
    low_amb = CharSeq(tuple(range(gap)), amb.cone_dim, 1)
    high_amb = CharSeq(tuple(range(d - gap)), amb.cone_dim, 1)
    low = RelCharSeq(tuple(ni - s for ni in n[:gap]), low_amb)
    high = RelCharSeq(tuple(n[gap:]), high_amb)
    note = ""
    if any(ni < mi for ni, mi in zip(low.entries, low_amb.entries)):
        note = "low piece empty or degenerate: entries drop below its ambient"
    return GapSplit(low, high, gap, s, note)


def _decompose(alpha: int, d: int) -> tuple[int, int]:
    # alpha = s*d - r with 0 <= r < d and s >= 1.
    if d < 1 or alpha < 1:
        raise DomainError(f"need d >= 1 and alpha >= 1, got d={d}, alpha={alpha}")
    s = -(-alpha // d)
    r = s * d - alpha
    return s, r


def minimal_delta_seq(d: int, alpha: int) -> RelCharSeq:
    """The pointwise-minimal sequence of degree alpha on a degree-d curve.

    Writing alpha = s*d - r with 0 <= r < d, the sequence is the full
    section staircase (s, ..., s+d-1) with the last r entries lowered by 1.
    """
    s, r = _decompose(alpha, d)
    base = [s + i for i in range(d)]
    for i in range(d - r, d):
        base[i] -= 1
    return RelCharSeq(tuple(base), plane_curve_charseq(d))


def phi_rel(rel: RelCharSeq, l: int) -> int:
    """Hilbert function of Y evaluated through its relative sequence: the
    ambient's binomial sum less that of the entries, one cone dimension
    down, which equals ``phi_from_charseq(abs_from_rel(rel), l)`` whenever
    the absolute sequence exists."""
    m = rel.ambient.cone_dim - 1
    if m < 0:
        raise DomainError("ambient cone dimension must be >= 1")
    return _phi_sum(rel.ambient.entries, m, l) - _phi_sum(rel.entries, m, l)


def genus_acm_curve(section: RelCharSeq | CharSeq, alpha: int) -> int:
    """Arithmetic genus from a hyperplane-section sequence of degree alpha.

    A relative section is read through its absolute sequence
    (:func:`abs_from_rel`), so entries below the ambient raise DomainError,
    and so does an ambient that is not a curve: the section must be a point
    group.  Sums the deficiencies alpha - phi(l) for l >= 1; the sum is
    finite because phi reaches alpha at the last entry.
    """
    if isinstance(section, RelCharSeq):
        section = abs_from_rel(section)
    if section.cone_dim != 1:
        raise DomainError("a section of a curve is a point group (cone dimension 1)")
    if section.d != alpha:
        raise DomainError(f"section has degree {section.d}, not the stated alpha={alpha}")
    top = max(section.entries) if section.entries else 0
    genus = 0
    for l in range(1, top + 1):
        deficiency = alpha - phi_from_charseq(section, l)
        if deficiency < 0:
            raise DomainError("section Hilbert function exceeds its degree; invalid input")
        genus += deficiency
    return genus


def halphen_bound(alpha: int, d: int) -> int:
    """Maximal arithmetic genus of a degree-alpha curve on an irreducible
    degree-d surface: with alpha = s*d - r,

        G = 1 + s*d*(s + d - 4)/2 - r*(2*s + 2*d - r - 5)/2,

    an integer: s*d*(s + d - 4) is even (s + d - 4 is, when s and d are
    both odd), and so is r*(2*s + 2*d - r - 5) (r + 5 is, when r is odd).
    """
    s, r = _decompose(alpha, d)
    return 1 + (s * d * (s + d - 4) - r * (2 * s + 2 * d - r - 5)) // 2
