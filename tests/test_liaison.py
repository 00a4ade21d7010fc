"""Liaison calculus: conversions, the reflection, splitting, minimal sequences."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseq.errors import DomainError, NotConsistentError
from charseq.liaison import (
    LiaisonError,
    RelCharSeq,
    abs_from_rel,
    add_section,
    genus_acm_curve,
    halphen_bound,
    link,
    minimal_delta_seq,
    phi_rel,
    rel_degree,
    rel_from_abs,
    split_on_gap,
)
from charseq.macaulay import is_zero_sequence
from charseq.seqcalc import (
    CharSeq,
    ci_charseq,
    phi_from_charseq,
    plane_curve_charseq,
    widths_from_entries,
)

QUARTIC = plane_curve_charseq(4)
SEXTIC = plane_curve_charseq(6)


@st.composite
def admissible_rels(draw, max_d=8, max_base=6):
    d = draw(st.integers(min_value=1, max_value=max_d))
    n0 = draw(st.integers(min_value=0, max_value=max_base))
    entries = [n0]
    for _ in range(d - 1):
        entries.append(entries[-1] + draw(st.integers(min_value=0, max_value=1)))
    for i in range(d):
        if entries[i] < i:
            entries[i] = i  # repair into admissibility, keeping monotone steps
    for i in range(1, d):
        entries[i] = max(entries[i], entries[i - 1])
        entries[i] = min(entries[i], entries[i - 1] + 1)
    return RelCharSeq(tuple(entries), plane_curve_charseq(d))


def test_rel_requires_matching_length_and_monotone():
    with pytest.raises(DomainError):
        RelCharSeq((0, 1, 2), QUARTIC)
    with pytest.raises(DomainError):
        RelCharSeq((2, 1, 2, 3), QUARTIC)


@pytest.mark.parametrize(
    "entries,expected",
    [((0, 1, 2, 3), 0), ((2, 3, 4, 5), 8), ((1, 2, 3, 4), 4), ((2, 2, 3, 3), 4)],
)
def test_rel_degree(entries, expected):
    assert rel_degree(RelCharSeq(entries, QUARTIC)) == expected


def test_abs_from_rel_examples():
    assert abs_from_rel(RelCharSeq((0, 1, 2, 3), QUARTIC)).entries == ()
    assert abs_from_rel(RelCharSeq((1, 2, 3, 4), QUARTIC)).entries == (0, 1, 2, 3)
    sextic_rel = RelCharSeq((3, 3, 4, 4, 5, 5), SEXTIC)
    out = abs_from_rel(sextic_rel)
    assert out.entries == (0, 1, 1, 2, 2, 2, 3, 3, 4)
    assert out.cone_dim == 1 and out.codim == 2
    assert rel_degree(sextic_rel) == 9


def test_rel_from_abs_examples():
    assert rel_from_abs(QUARTIC, CharSeq((), 1, 1)).entries == (0, 1, 2, 3)
    assert rel_from_abs(QUARTIC, CharSeq((0, 1, 2, 3), 1, 1)).entries == (1, 2, 3, 4)
    assert rel_from_abs(QUARTIC, ci_charseq((2, 2))).entries == (2, 2, 3, 3)


def test_rel_from_abs_rejects_impossible_pairs():
    with pytest.raises(NotConsistentError):
        rel_from_abs(QUARTIC, CharSeq((0, 0, 1), 1, 2))
    with pytest.raises(NotConsistentError):
        # five points in degree zero cannot sit over a quartic ambient
        rel_from_abs(QUARTIC, CharSeq((0, 1, 1, 1, 1), 1, 4))


@given(admissible_rels())
@settings(max_examples=200)
def test_abs_rel_mutually_inverse(rel):
    assert rel_from_abs(rel.ambient, abs_from_rel(rel)).entries == rel.entries


def _composite_widths(ambient, n):
    """The composite widths as ``RelCharSeq.violations`` summed them, one
    pass over both sequences per degree: c_i - d_i with c_i = #{m_j <= i},
    d_i = #{n_j <= i}, for i = 0, ..., max(0, entries)."""
    m = ambient.entries
    if not m:
        return (0,)
    top = max(0, max(m), max(n) if n else 0)
    out = []
    for i in range(top + 1):
        ci = sum(1 for mj in m if mj <= i)
        di = sum(1 for nj in n if nj <= i)
        out.append(ci - di)
    return tuple(out)


def violations_summed(rel, irreducible=False):
    """``RelCharSeq.violations`` as it was, over ``_composite_widths``."""
    out = []
    m, n = rel.ambient.entries, rel.entries
    if any(ni < mi for ni, mi in zip(n, m)):
        out.append("entry_below_ambient")
    if irreducible and any(b > a + 1 for a, b in zip(n, n[1:])):
        out.append("jump_above_one")
    if not out:
        if not is_zero_sequence(_composite_widths(rel.ambient, n), start_degree=0, cone_rule=True).ok:
            out.append("composite_widths_not_zero_sequence")
    return tuple(out)


def phi_rel_one_loop(rel, l):
    """``phi_rel`` as it was: one loop over the paired entries."""
    m = rel.ambient.cone_dim - 1
    if m < 0:
        raise DomainError("ambient cone dimension must be >= 1")
    total = 0
    for mi, ni in zip(rel.ambient.entries, rel.entries):
        if l >= mi:
            total += comb(m + l - mi, m)
        if l >= ni:
            total -= comb(m + l - ni, m)
    return total


def genus_two_branches(section, alpha):
    """``genus_acm_curve`` as it was: a relative section summed through
    ``phi_rel_one_loop`` up to its last entry, with no absolute sequence."""
    if isinstance(section, RelCharSeq):
        if rel_degree(section) != alpha:
            raise DomainError(f"section has degree {rel_degree(section)}, not the stated alpha={alpha}")

        def phi(l):
            return phi_rel_one_loop(section, l)

    else:
        if section.cone_dim != 1:
            raise DomainError("a section of a curve is a point group (cone dimension 1)")
        if section.d != alpha:
            raise DomainError(f"section has degree {section.d}, not the stated alpha={alpha}")

        def phi(l):
            return phi_from_charseq(section, l)

    top = max(section.entries) if section.entries else 0
    genus = 0
    for l in range(1, top + 1):
        deficiency = alpha - phi(l)
        if deficiency < 0:
            raise DomainError("section Hilbert function exceeds its degree; invalid input")
        genus += deficiency
    return genus


def rel_from_abs_long_scan(ambient, abs_y):
    """``rel_from_abs`` as it was: the cumulative counts scanned up to
    max(m) + |abs_y| + 1 as well, then checked to end at the ambient degree."""
    if abs_y.cone_dim != ambient.cone_dim - 1:
        raise NotConsistentError("inconsistent pair: cone_dim")
    m = ambient.entries
    d = len(m)
    widths_abs = widths_from_entries(abs_y.entries) if abs_y.entries else ()
    top = max(
        max(m) if m else 0,
        len(widths_abs),
        (max(m) if m else 0) + len(abs_y.entries) + 1,
    )
    counts = []
    prev = 0
    for i in range(top + 1):
        ci = sum(1 for mj in m if mj <= i)
        li = widths_abs[i] if i < len(widths_abs) else 0
        di = ci - li
        if di < prev or di < 0 or di > d:
            raise NotConsistentError("inconsistent pair: counts not monotone")
        counts.append(di)
        prev = di
    if counts[-1] != d:
        raise NotConsistentError("inconsistent pair: counts never reach the ambient degree")
    entries = []
    prev = 0
    for i, di in enumerate(counts):
        entries.extend([i] * (di - prev))
        prev = di
    rel = RelCharSeq(tuple(entries), ambient)
    if abs_from_rel(rel).entries != abs_y.entries:
        raise NotConsistentError("inconsistent pair: reconstruction")
    if not is_zero_sequence(_composite_widths(ambient, rel.entries), start_degree=0, cone_rule=True).ok:
        raise NotConsistentError("inconsistent pair: growth bound")
    return rel


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)


def outcome_text(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are the outcome compared
        return type(exc), str(exc)


@st.composite
def random_pairs(draw):
    """An ambient and an absolute sequence drawn apart, one cone dimension
    below it or (rarely) not; negative entries reach both."""
    entries = st.lists(st.integers(-3, 7), max_size=10).map(sorted)
    cone_dim = draw(st.integers(1, 3))
    ambient = CharSeq(tuple(draw(entries)), cone_dim, 1)
    shift = draw(st.sampled_from((1, 1, 1, 0)))
    return ambient, CharSeq(tuple(draw(entries)), cone_dim - shift, draw(st.integers(1, 3)))


@given(st.one_of(random_pairs(), admissible_rels().map(lambda rel: (rel.ambient, abs_from_rel(rel)))))
@settings(max_examples=400)
def test_rel_from_abs_matches_the_long_scan(pair):
    assert outcome(rel_from_abs, *pair) == outcome(rel_from_abs_long_scan, *pair)


def test_a_negative_ambient_entry_is_not_reproduced():
    # [m_0, n_0) = [-1, 0) puts -1 into the reconstruction
    with pytest.raises(NotConsistentError, match="reconstruction does not reproduce the input"):
        rel_from_abs(CharSeq((-1, 0), 2, 1), CharSeq((0, 1), 1, 1))


def test_link_examples():
    # full line section of the quartic is linked to nothing
    assert link(RelCharSeq((1, 2, 3, 4), QUARTIC), 1).entries == (0, 1, 2, 3)
    # the four-point complete intersection on the quartic is self-linked
    assert link(RelCharSeq((2, 2, 3, 3), QUARTIC), 2).entries == (2, 2, 3, 3)
    # full section: residual empty
    assert link(RelCharSeq((2, 3, 4, 5), QUARTIC), 2).entries == (0, 1, 2, 3)


def test_link_rejects_invalid_degree():
    with pytest.raises(LiaisonError):
        link(RelCharSeq((2, 2, 3, 3), QUARTIC), 1)
    with pytest.raises(DomainError):
        link(RelCharSeq((2, 2, 3, 3), QUARTIC), 0)
    lopsided = CharSeq((0, 1, 1), 2, 2)
    with pytest.raises(DomainError):
        link(RelCharSeq((1, 2, 2), lopsided), 2)


@given(admissible_rels(), st.integers(min_value=0, max_value=5))
@settings(max_examples=200)
def test_link_involution_and_box_count(rel, extra):
    d = rel.d
    # valid liaison degrees start at the largest entry deficit
    s = max(max(n - i for i, n in enumerate(rel.entries)), 1) + extra
    linked = link(rel, s)
    assert link(linked, s).entries == rel.entries
    assert rel_degree(rel) + rel_degree(linked) == s * d


@given(admissible_rels(), st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=150)
def test_link_commutes_with_section_shift(rel, s_extra, t):
    s = max(max(n - i for i, n in enumerate(rel.entries)), 1) + s_extra
    assert link(add_section(rel, t), s + t).entries == link(rel, s).entries


def test_add_section():
    assert add_section(RelCharSeq((2, 2, 3, 3), QUARTIC), 1).entries == (3, 3, 4, 4)
    empty = RelCharSeq((0, 1, 2, 3), QUARTIC)
    assert add_section(empty, 2).entries == (2, 3, 4, 5)
    with pytest.raises(DomainError):
        add_section(empty, 0)


def test_split_on_gap_examples():
    result = split_on_gap(RelCharSeq((1, 2, 3, 6, 7, 8), SEXTIC))
    assert result.gap_index == 3 and result.section_degree == 3
    assert result.high.entries == (6, 7, 8)
    assert result.high.ambient.entries == (0, 1, 2)
    assert result.low.entries == (-2, -1, 0)
    assert result.note  # flagged empty-or-degenerate

    result = split_on_gap(RelCharSeq((2, 3, 5, 6), QUARTIC))
    assert result.gap_index == 2 and result.section_degree == 2
    assert result.high.entries == (5, 6)
    assert result.low.entries == (0, 1)
    assert not result.note  # a legal empty piece, no flag

    assert split_on_gap(RelCharSeq((2, 2, 3, 3), QUARTIC)) is None


def test_split_needs_hypersurface_ambient():
    with pytest.raises(DomainError):
        split_on_gap(RelCharSeq((2, 2, 3, 3), ci_charseq((2, 2), cone_dim=2)))


@pytest.mark.parametrize(
    "d,alpha,entries",
    [
        (4, 8, (2, 3, 4, 5)),
        (6, 13, (3, 3, 4, 5, 6, 7)),
        (4, 7, (2, 3, 4, 4)),
        (3, 5, (2, 3, 3)),
    ],
)
def test_minimal_delta_seq(d, alpha, entries):
    rel = minimal_delta_seq(d, alpha)
    assert rel.entries == entries
    assert rel_degree(rel) == alpha


def test_minimal_delta_seq_domain():
    with pytest.raises(DomainError):
        minimal_delta_seq(4, 0)
    with pytest.raises(DomainError):
        minimal_delta_seq(0, 3)


def test_phi_rel_examples():
    empty = RelCharSeq((0, 1, 2, 3), QUARTIC)
    assert all(phi_rel(empty, l) == 0 for l in range(8))
    md = minimal_delta_seq(4, 7)
    # absolute form (0,1,1,2,2,3,3): five entries at degree <= 2
    assert phi_rel(md, 2) == 5
    assert phi_rel(md, 9) == 7


@given(admissible_rels())
@settings(max_examples=150)
def test_phi_rel_matches_absolute_count(rel):
    from charseq.seqcalc import phi_from_charseq

    absolute = abs_from_rel(rel)
    for l in range(-1, rel.entries[-1] + 2):
        assert phi_rel(rel, l) == phi_from_charseq(absolute, l)


@st.composite
def any_rels(draw):
    """A relative sequence over an ambient of cone_dim 0-3, entries in a
    window of ten from -8..1 up to 0..9, so often all negative: drawn apart,
    so often below the ambient, or dominating it entry by entry."""
    d = draw(st.integers(0, 6))
    low = draw(st.integers(-8, 0))
    entries = st.lists(st.integers(low, low + 9), min_size=d, max_size=d).map(sorted)
    ambient = CharSeq(tuple(draw(entries)), draw(st.integers(0, 3)), 1)
    if draw(st.booleans()):
        rel = draw(entries)
    else:
        rel = sorted(mi + draw(st.integers(0, 3)) for mi in ambient.entries)
    return RelCharSeq(tuple(rel), ambient)


def below_or_off_curve(rel):
    """The inputs the absolute reading of a section rejects."""
    below = any(ni < mi for ni, mi in zip(rel.entries, rel.ambient.entries))
    return below or rel.ambient.cone_dim != 2


@given(admissible_rels())
@settings(max_examples=200)
def test_sequence_quantities_match_the_old_loops_on_plane_sequences(rel):
    for l in range(-2, rel.entries[-1] + 3):
        assert phi_rel(rel, l) == phi_rel_one_loop(rel, l)
    for irreducible in (False, True):
        assert rel.violations(irreducible) == violations_summed(rel, irreducible)
    alpha = rel_degree(rel)
    assert genus_acm_curve(rel, alpha) == genus_two_branches(rel, alpha)
    absolute = abs_from_rel(rel)
    assert genus_acm_curve(absolute, alpha) == genus_two_branches(absolute, alpha)
    for wrong in (alpha - 1, alpha + 1):
        assert outcome_text(genus_acm_curve, rel, wrong) == outcome_text(genus_two_branches, rel, wrong)


@given(any_rels(), st.integers(-3, 10), st.integers(-3, 12))
@settings(max_examples=400)
def test_sequence_quantities_match_the_old_loops_on_any_sequence(rel, l, alpha):
    assert outcome_text(phi_rel, rel, l) == outcome_text(phi_rel_one_loop, rel, l)
    for irreducible in (False, True):
        found = rel.violations(irreducible)  # a report on any sequence, never an error
        assert found == violations_summed(rel, irreducible)
    for a in (alpha, rel_degree(rel)):
        new = outcome_text(genus_acm_curve, rel, a)
        if below_or_off_curve(rel):
            assert isinstance(new, tuple) and new[0] is DomainError
        else:
            assert new == outcome_text(genus_two_branches, rel, a)


def test_genus_rejects_a_relative_section_with_no_absolute_sequence():
    below = RelCharSeq((0, 0, 0), plane_curve_charseq(3))
    assert genus_two_branches(below, -3) == 0  # the old sum read a genus
    with pytest.raises(DomainError, match="no absolute sequence exists"):
        genus_acm_curve(below, -3)
    off_curve = RelCharSeq((1,), CharSeq((0,), 1, 1))  # an ambient point group
    assert genus_two_branches(off_curve, 1) == 1
    with pytest.raises(DomainError, match="a section of a curve is a point group"):
        genus_acm_curve(off_curve, 1)


def test_genus_examples():
    assert genus_acm_curve(CharSeq((0,), 1, 1), 1) == 0
    assert genus_acm_curve(ci_charseq((2, 2)), 4) == 1
    # the minimal section of degree 6 on a cubic surface: canonical curve
    assert genus_acm_curve(minimal_delta_seq(3, 6), 6) == 4
    with pytest.raises(DomainError):
        genus_acm_curve(ci_charseq((2, 2)), 5)


@pytest.mark.parametrize(
    "alpha,d,expected",
    [(6, 3, 4), (5, 3, 2), (3, 3, 1), (4, 4, 3), (5, 5, 6), (8, 4, 9)],
)
def test_halphen_bound_values(alpha, d, expected):
    assert halphen_bound(alpha, d) == expected


def halphen_in_rationals(alpha, d):
    """The bound as it was computed: in exact rationals, checked integral."""
    s = -(-alpha // d)
    r = s * d - alpha
    value = 1 + Fraction(s * d * (s + d - 4), 2) - Fraction(r * (2 * s + 2 * d - r - 5), 2)
    assert value.denominator == 1
    return int(value)


def test_halphen_bound_matches_the_rationals_on_a_grid():
    for d in range(1, 30):
        for alpha in range(1, 4 * d + 1):
            assert halphen_bound(alpha, d) == halphen_in_rationals(alpha, d)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_halphen_bound_matches_the_rationals(alpha, d):
    assert halphen_bound(alpha, d) == halphen_in_rationals(alpha, d)


def test_halphen_plane_case_is_plane_genus():
    for d in range(3, 11):
        assert halphen_bound(d, d) == (d - 1) * (d - 2) // 2


def test_genus_of_minimal_sequences_meets_halphen():
    for d in range(3, 9):
        for alpha in range(d, 4 * d + 1):
            assert genus_acm_curve(minimal_delta_seq(d, alpha), alpha) == halphen_bound(alpha, d)


def test_violations_reporting():
    ok = RelCharSeq((2, 2, 3, 3), QUARTIC)
    assert ok.violations() == ()
    below = RelCharSeq((0, 0, 1, 2), QUARTIC)
    assert "entry_below_ambient" in below.violations()
    # every entry below 0: the composite widths still run over degree 0, and
    # abs_from_rel accepts the sequence too
    negative = RelCharSeq((-1,), CharSeq((-1,), 2, 1))
    assert negative.violations() == ()
    assert abs_from_rel(negative) == CharSeq((), 1, 2)
    jumpy = RelCharSeq((2, 3, 5, 6), QUARTIC)
    assert "jump_above_one" in jumpy.violations(irreducible=True)
    assert jumpy.violations(irreducible=False) == ()
