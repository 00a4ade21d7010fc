"""Characteristic sequences, Hilbert functions, and their validators.

A characteristic sequence (m_0, ..., m_{d-1}) records the degrees of a free
basis of the coordinate ring of an ACM subscheme over a linear subring; it
carries the same information as the Hilbert function and converts both ways
through the width sequence l_i = #{j : m_j = i}.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product
from math import comb
from typing import Iterable, Sequence

from .errors import DomainError, NotConsistentError
from .macaulay import ZeroSeqCheck, is_zero_sequence


@dataclass(frozen=True)
class CharSeq:
    """Absolute characteristic sequence with its ambient data.

    ``cone_dim`` is the Krull dimension of the cone (projective dimension
    plus one) and ``codim`` the codimension of the scheme inside the span
    it is considered in.  Entries must be non-decreasing; everything else
    is checked by :func:`validate_abs`, so diagnostically interesting
    invalid sequences can still be represented.
    """

    entries: tuple[int, ...]
    cone_dim: int
    codim: int

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(a > b for a, b in zip(entries, entries[1:])):
            raise DomainError(f"characteristic sequence must be non-decreasing: {entries}")
        if self.cone_dim < 0:
            raise DomainError("cone_dim must be >= 0")
        if self.codim < 1:
            raise DomainError("codim must be >= 1")

    @property
    def d(self) -> int:
        """Degree of the scheme: the number of entries."""
        return len(self.entries)

    @property
    def widths(self) -> tuple[int, ...]:
        return widths_from_entries(self.entries)


@dataclass(frozen=True)
class HilbertFn:
    """Finite value prefix of a Hilbert function, indexed from degree 0."""

    values: tuple[int, ...]
    cone_dim: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise DomainError("Hilbert function values must be non-negative")


def widths_from_entries(entries: Sequence[int]) -> tuple[int, ...]:
    """Width vector (l_0, ..., l_max): l_i counts entries equal to i."""
    if not entries:
        return ()
    if min(entries) < 0:
        raise DomainError("widths are only defined for non-negative entries")
    out = [0] * (max(entries) + 1)
    for e in entries:
        out[e] += 1
    return tuple(out)


def default_codim(entries: Sequence[int]) -> int:
    """The width in degree 1 when it is positive, else 1: the codimension
    of a non-degenerate scheme with these entries."""
    w = widths_from_entries(entries)
    return w[1] if len(w) > 1 and w[1] > 0 else 1


def entries_from_widths(widths: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for i, w in enumerate(widths):
        if w < 0:
            raise DomainError(f"negative width at degree {i}")
        out.extend([i] * w)
    return tuple(out)


def phi_from_charseq(seq: CharSeq, l: int) -> int:
    """Hilbert function value: sum of C(m + l - m_i, m) with m = cone_dim - 1.

    Binomials with l < m_i contribute nothing, so the value is 0 for l < 0
    and for the empty sequence.  At cone_dim 0 it counts the entries equal to l.
    """
    m = seq.cone_dim - 1
    if m < 0:
        return seq.entries.count(l)
    return _phi_sum(seq.entries, m, l)


def _phi_sum(entries: Sequence[int], m: int, l: int) -> int:
    # C(m + l - e, m) summed over the sorted entries e <= l; the one place
    # a Hilbert function is evaluated from a sequence.
    total = 0
    for e in entries:
        if e > l:
            break
        total += comb(m + l - e, m)
    return total


def hilbert_function(seq: CharSeq) -> HilbertFn:
    """Value prefix of the Hilbert function of ``seq``.

    The prefix runs two degrees past the last entry, which is the shortest
    prefix :func:`charseq_from_phi` accepts back.
    """
    length = (max(seq.entries) if seq.entries else 0) + 2
    values = tuple(phi_from_charseq(seq, l) for l in range(length + 1))
    return HilbertFn(values, seq.cone_dim)


def _iterated_difference(values: Sequence[int], order: int) -> list[int]:
    # Values below degree 0 are taken as 0.
    out = list(values)
    for _ in range(order):
        out = [out[i] - (out[i - 1] if i > 0 else 0) for i in range(len(out))]
    return out


def charseq_from_phi(fn: HilbertFn, codim: int | None = None) -> CharSeq:
    """Recover the characteristic sequence from a Hilbert-function prefix.

    The widths are the cone_dim-fold difference of the values.  The prefix
    must extend at least two degrees past the last nonzero width so that
    stabilization is witnessed rather than assumed; shorter prefixes and
    negative widths raise NotConsistentError.  ``codim`` defaults to the
    width in degree 1 (the codimension of a non-degenerate scheme).
    """
    if fn.cone_dim < 0:
        raise DomainError("cone_dim must be >= 0")
    if not fn.values:
        raise NotConsistentError("empty Hilbert function prefix")
    diffs = _iterated_difference(fn.values, fn.cone_dim)
    if any(w < 0 for w in diffs):
        idx = next(i for i, w in enumerate(diffs) if w < 0)
        raise NotConsistentError(
            f"not ACM-consistent: difference of order {fn.cone_dim} is {diffs[idx]} at degree {idx}"
        )
    last_nonzero = max((i for i, w in enumerate(diffs) if w != 0), default=None)
    top = len(fn.values) - 1
    if last_nonzero is None:
        entries: tuple[int, ...] = ()
    else:
        if top < last_nonzero + 2:
            raise NotConsistentError(
                "not ACM-consistent: prefix too short to witness stabilization "
                f"(last nonzero width at degree {last_nonzero}, prefix ends at {top})"
            )
        entries = entries_from_widths(diffs[: last_nonzero + 1])
    if codim is None:
        codim = default_codim(entries)
    return CharSeq(entries, fn.cone_dim, codim)


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    items: tuple[CheckItem, ...]
    degenerate: bool

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> tuple[str, ...]:
        return tuple(item.name for item in self.items if not item.passed)

    def to_json(self) -> dict:
        """The fields plus the derived ``passed``; ``items`` is keyed ``checks``."""
        checks = [asdict(item) for item in self.items]
        return {"passed": self.passed, "degenerate": self.degenerate, "checks": checks}


def validate_abs(seq: CharSeq) -> ValidationReport:
    """Run every structural constraint on an absolute sequence independently.

    A scheme spanning less than its declared ambient (width l_1 below the
    codimension) is reported as degenerate instead of failing: measured
    inputs such as aligned point groups do this legitimately.
    """
    items: list[CheckItem] = []
    entries = seq.entries
    w = seq.widths
    degenerate = False

    if entries:
        items.append(
            CheckItem("starts_at_zero", entries[0] == 0, f"m_0 = {entries[0]}")
        )
        l0 = w[0] if w else 0
        items.append(CheckItem("width_l0_is_one", l0 == 1, f"l_0 = {l0}"))
        if len(w) > 1:
            l1 = w[1]
            if l1 > seq.codim:
                items.append(
                    CheckItem("width_l1_matches_codim", False, f"l_1 = {l1} > codim {seq.codim}")
                )
            else:
                if l1 < seq.codim:
                    degenerate = True
                items.append(
                    CheckItem("width_l1_matches_codim", True, f"l_1 = {l1}, codim {seq.codim}")
                )
        support = [i for i, wi in enumerate(w) if wi != 0]
        connex = not support or support == list(range(support[0], support[-1] + 1))
        items.append(CheckItem("connex_support", connex, f"widths {w}"))
        zcheck: ZeroSeqCheck = is_zero_sequence(w, start_degree=0, cone_rule=True)
        items.append(
            CheckItem(
                "zero_sequence",
                zcheck.ok,
                "" if zcheck.ok else f"growth bound broken at width index {zcheck.violation}",
            )
        )
        if seq.cone_dim >= 2:
            ok = True
            detail = ""
            for i in range(len(w) - 1):
                if w[i] == 1 and w[i + 1] not in (0,) and w[i + 1] < seq.codim:
                    ok = False
                    detail = f"l_{i} = 1 but l_{i + 1} = {w[i + 1]} < codim {seq.codim}"
                    break
            items.append(CheckItem("width_one_forces_codim", ok, detail))
    else:
        items.append(CheckItem("starts_at_zero", True, "empty sequence"))

    return ValidationReport(tuple(items), degenerate)


def bound_codim2(seq: CharSeq) -> bool:
    """Last-entry bound m_{d-1} <= floor((2d-1)/3) for codimension >= 2.

    Only meaningful for projective dimension >= 1 and codim >= 2; other
    inputs raise DomainError.
    """
    if seq.cone_dim < 2:
        raise DomainError("bound_codim2 needs projective dimension >= 1")
    if seq.codim < 2:
        raise DomainError("bound_codim2 needs codimension >= 2")
    if not seq.entries:
        raise DomainError("bound_codim2 needs a non-empty sequence")
    d = seq.d
    return seq.entries[-1] <= (2 * d - 1) // 3


def aligned_bound(d: int, r: int) -> int:
    """Upper bound r + floor((2d - 2r - 1)/3) on the last entry of a point
    group of degree d with at most r aligned points.

    Floor is taken toward minus infinity so the all-aligned case r = d
    yields d - 1, the exact value for aligned points.
    """
    if not (1 <= r <= d):
        raise DomainError(f"aligned_bound needs 1 <= r <= d, got d={d}, r={r}")
    return r + (2 * d - 2 * r - 1) // 3


def separation_index(seq: CharSeq) -> int:
    """m_{d-1} - 2: the last degree where the group imposes fewer conditions
    than its degree.  Only defined for point groups (cone dimension 1)."""
    if seq.cone_dim != 1:
        raise DomainError("separation index is defined for point groups only")
    if not seq.entries:
        raise DomainError("separation index of the empty group is undefined")
    return seq.entries[-1] - 2


def ci_charseq(degrees: Iterable[int], cone_dim: int = 1) -> CharSeq:
    """Characteristic sequence of a complete intersection.

    The sequence is the multiset of exponent sums over the monomial box
    0 <= i_j <= d_j - 1; the codimension is the number of degrees.
    """
    degs = tuple(int(x) for x in degrees)
    if not degs or any(x < 1 for x in degs):
        raise DomainError(f"complete intersection needs positive degrees, got {degs}")
    entries = tuple(sorted(sum(exps) for exps in product(*(range(x) for x in degs))))
    return CharSeq(entries, cone_dim, len(degs))


def is_gorenstein_symmetric(seq: CharSeq) -> bool:
    """Whether m_i + m_{d-1-i} = m_{d-1} for every index."""
    entries = seq.entries
    if not entries:
        return True
    top = entries[-1]
    return all(entries[i] + entries[-1 - i] == top for i in range(len(entries)))


def seq_included(sub: CharSeq, super_: CharSeq) -> bool:
    """Width-wise inclusion: every width of ``sub`` at most that of ``super_``."""
    if sub.cone_dim != super_.cone_dim:
        raise DomainError("inclusion compares sequences of equal cone dimension")
    ws, wt = sub.widths, super_.widths
    length = max(len(ws), len(wt))
    ws = ws + (0,) * (length - len(ws))
    wt = wt + (0,) * (length - len(wt))
    return all(a <= b for a, b in zip(ws, wt))


def plane_curve_charseq(d: int) -> CharSeq:
    """The sequence (0, 1, ..., d-1) of a plane curve of degree d."""
    if d < 1:
        raise DomainError("plane curve degree must be >= 1")
    return CharSeq(tuple(range(d)), cone_dim=2, codim=1)
