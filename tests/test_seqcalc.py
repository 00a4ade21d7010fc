"""Characteristic sequences, conversion, and the sequence validators."""

from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charseq.errors import DomainError, NotConsistentError
from charseq.macaulay import is_zero_sequence, macaulay_next
from charseq.seqcalc import (
    CharSeq,
    HilbertFn,
    aligned_bound,
    bound_codim2,
    charseq_from_phi,
    ci_charseq,
    default_codim,
    entries_from_widths,
    hilbert_function,
    is_gorenstein_symmetric,
    phi_from_charseq,
    plane_curve_charseq,
    separation_index,
    seq_included,
    validate_abs,
    widths_from_entries,
)


@st.composite
def width_vectors(draw, max_total=14):
    widths = [1]
    total = 1
    while total < max_total and draw(st.booleans()):
        degree = len(widths)
        bound = max_total - total
        if degree >= 2:
            bound = min(bound, macaulay_next(widths[-1], degree - 1))
        if bound < 1:
            break
        nxt = draw(st.integers(min_value=1, max_value=bound))
        widths.append(nxt)
        total += nxt
    return tuple(widths)


def test_charseq_requires_monotone_entries():
    with pytest.raises(DomainError):
        CharSeq((0, 2, 1), 1, 1)
    with pytest.raises(DomainError):
        CharSeq((0, 1), 1, 0)


def test_widths_helpers_invert_each_other():
    entries = (0, 1, 1, 2, 4, 4, 4)
    assert entries_from_widths(widths_from_entries(entries)) == entries


@pytest.mark.parametrize(
    "entries,cone_dim,l,expected",
    [
        ((0,), 1, 0, 1),
        ((0,), 1, 9, 1),
        ((0, 1, 2, 3), 2, 2, 6),
        ((0, 1, 1, 2), 1, 1, 3),
        ((0, 1, 1, 2), 1, 2, 4),
        ((0, 1, 1, 2), 1, 7, 4),
        ((0, 1, 2), 2, -1, 0),
        ((0, 1, 1, 2), 0, 1, 2),  # cone_dim 0: the width
        ((0, 1, 1, 2), 0, 3, 0),
    ],
)
def test_phi_from_charseq_examples(entries, cone_dim, l, expected):
    seq = CharSeq(entries, cone_dim, 1)  # codim plays no role in the value
    assert phi_from_charseq(seq, l) == expected


@pytest.mark.parametrize(
    "values,cone_dim,entries",
    [
        ((1, 1, 1, 1), 1, (0,)),
        ((1, 3, 4, 4, 4), 1, (0, 1, 1, 2)),
        ((1, 3, 6, 9, 12, 15), 2, (0, 1, 2)),
    ],
)
def test_charseq_from_phi_examples(values, cone_dim, entries):
    seq = charseq_from_phi(HilbertFn(values, cone_dim))
    assert seq.entries == entries


def test_charseq_from_phi_rejects_short_prefix():
    # stabilization needs two clean degrees after the last nonzero width
    with pytest.raises(NotConsistentError):
        charseq_from_phi(HilbertFn((1, 3, 4), 1))


def test_charseq_from_phi_rejects_negative_widths():
    with pytest.raises(NotConsistentError):
        charseq_from_phi(HilbertFn((1, 3, 2, 2, 2), 1))


@given(width_vectors(), st.integers(min_value=0, max_value=4))
@settings(max_examples=150)
@example(widths=[1, 2, 1], cone_dim=0)  # the 0-fold case: the values are the widths
def test_conversion_round_trip(widths, cone_dim):
    entries = entries_from_widths(widths)
    codim = widths[1] if len(widths) > 1 else 1
    seq = CharSeq(entries, cone_dim, codim)
    back = charseq_from_phi(hilbert_function(seq))
    assert back.entries == seq.entries
    assert back.cone_dim == seq.cone_dim
    assert back.codim == seq.codim


def test_validate_abs_passes_plane_quartic():
    report = validate_abs(CharSeq((0, 1, 2, 3), 2, 1))
    assert report.passed and not report.degenerate


def test_validate_abs_flags_connexity():
    report = validate_abs(CharSeq((0, 1, 1, 3), 1, 2))
    assert "connex_support" in report.failures()


def test_validate_abs_flags_codim_mismatch_and_width_one_rule():
    # three entries in degree 1 against declared codimension 2
    report = validate_abs(CharSeq((0, 1, 1, 1), 1, 2))
    assert "width_l1_matches_codim" in report.failures()
    # isolated width one followed by width below the codimension
    bad = CharSeq((0, 1, 1, 1, 2, 3), 2, 3)
    report = validate_abs(bad)
    assert "width_one_forces_codim" in report.failures()


def test_validate_abs_degenerate_is_soft():
    report = validate_abs(CharSeq((0, 1, 2, 3), 1, 2))  # aligned points in the plane
    assert report.degenerate
    assert report.passed


@pytest.mark.parametrize(
    "entries,cone_dim,codim,expected",
    [
        ((0,), 2, 2, True),
        ((0, 1, 1, 2), 2, 2, True),
        ((0, 1, 2, 3), 2, 2, False),
    ],
)
def test_bound_codim2(entries, cone_dim, codim, expected):
    assert bound_codim2(CharSeq(entries, cone_dim, codim)) is expected


def test_bound_codim2_preconditions():
    with pytest.raises(DomainError):
        bound_codim2(CharSeq((0, 1), 1, 2))
    with pytest.raises(DomainError):
        bound_codim2(CharSeq((0, 1), 2, 1))


@pytest.mark.parametrize(
    "d,r,expected",
    [(6, 2, 4), (3, 2, 2), (5, 5, 4), (4, 4, 3), (3, 1, 2)],
)
def test_aligned_bound(d, r, expected):
    assert aligned_bound(d, r) == expected


def test_aligned_bound_domain():
    with pytest.raises(DomainError):
        aligned_bound(4, 0)
    with pytest.raises(DomainError):
        aligned_bound(4, 5)


@pytest.mark.parametrize(
    "entries,expected",
    [((0,), -2), ((0, 1, 1, 2), 0), ((0, 1, 2, 3, 4), 2)],
)
def test_separation_index(entries, expected):
    assert separation_index(CharSeq(entries, 1, 2)) == expected


def test_separation_index_needs_point_group():
    with pytest.raises(DomainError):
        separation_index(CharSeq((0, 1), 2, 1))


@pytest.mark.parametrize(
    "degrees,entries",
    [
        ((4,), (0, 1, 2, 3)),
        ((2, 2), (0, 1, 1, 2)),
        ((2, 3), (0, 1, 1, 2, 2, 3)),
        ((2, 2, 2), (0, 1, 1, 1, 2, 2, 2, 3)),
    ],
)
def test_ci_charseq(degrees, entries):
    seq = ci_charseq(degrees)
    assert seq.entries == entries
    assert seq.codim == len(degrees)
    assert seq.d == prod(degrees)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
def test_ci_charseq_properties(degrees):
    seq = ci_charseq(degrees)
    assert is_gorenstein_symmetric(seq)
    assert is_zero_sequence(seq.widths, 0, cone_rule=True).ok


@pytest.mark.parametrize(
    "entries,expected",
    [((0, 1, 1, 2), True), ((0, 1, 1), False), ((0,), True), ((), True)],
)
def test_gorenstein_symmetry(entries, expected):
    assert is_gorenstein_symmetric(CharSeq(entries, 1, 2)) is expected


def test_seq_included_examples():
    inner = CharSeq((0, 1), 1, 1)
    outer = CharSeq((0, 1, 1, 2), 1, 2)
    assert seq_included(inner, outer)
    assert not seq_included(CharSeq((0, 1, 1), 1, 2), CharSeq((0, 1, 2, 3), 1, 1))
    assert seq_included(outer, outer)
    with pytest.raises(DomainError):
        seq_included(inner, CharSeq((0, 1), 2, 1))


def test_default_codim_is_the_positive_degree_one_width():
    assert default_codim((0, 1, 1, 2)) == 2
    assert default_codim((0, 2)) == 1  # no entry in degree 1
    assert default_codim(()) == 1
    assert charseq_from_phi(HilbertFn((1, 3, 4, 4, 4), 1)).codim == default_codim((0, 1, 1, 2))


def test_plane_curve_charseq():
    seq = plane_curve_charseq(4)
    assert seq.entries == (0, 1, 2, 3)
    assert seq.cone_dim == 2 and seq.codim == 1
    assert is_gorenstein_symmetric(seq)
