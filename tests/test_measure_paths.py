"""Differential tests: the one Hilbert function a point group carries, and the
two measurements read from it, against the two rank scans it replaced,
which are written out here as oracles."""

from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charseq import modlin
from charseq.constructions import aligned_points_on_curve, random_smooth_curve, split_section
from charseq.errors import GeometryError
from charseq.pointlab import (
    measure_abs,
    measure_rcs,
    phi_plane_curve,
    phi_points,
    point_group,
    random_points_on_curve,
)
from charseq.seqcalc import entries_from_widths, plane_curve_charseq


def scan_rcs(X, Y):
    """Entries of the relative sequence from the second differences of
    psi = phi_X - phi_Y, scanned until they stabilize."""
    d = X.degree
    cap = d + Y.size + 2
    psi_prev2 = psi_prev = 0
    widths = []
    for l in range(cap + 1):
        psi = phi_plane_curve(d, l) - phi_points(Y, l)
        w = psi - 2 * psi_prev + psi_prev2
        if w < 0:
            raise GeometryError(f"negative width at degree {l}")
        widths.append(w)
        total = psi - psi_prev
        psi_prev2, psi_prev = psi_prev, psi
        if total == d and w == 0:
            break
    else:
        raise GeometryError(f"non-stabilizing scan up to degree {cap}")
    entries = entries_from_widths(widths)
    if sum(n - i for i, n in enumerate(entries)) != Y.size:
        raise GeometryError("measured sequence does not account for the group degree")
    return entries


def scan_abs(Y):
    """Entries of the absolute sequence from the first differences of phi_Y,
    scanned until phi_Y reaches |Y|."""
    if Y.size == 0:
        return ()
    values = []
    for l in range(Y.size + 3):
        values.append(phi_points(Y, l))
        if values[-1] == Y.size:
            break
    else:
        raise GeometryError("Hilbert function did not reach the group degree")
    widths = [values[0]] + [values[i] - values[i - 1] for i in range(1, len(values))]
    return entries_from_widths(widths)


@lru_cache(maxsize=None)
def curve(p, d, k):
    return random_smooth_curve(p, d, seed=k)


def make_group(X, style, size, seed):
    """A group of about ``size`` smooth points of X: generic, with a collinear
    block, or containing a full section of degree 1 or 2."""
    if style == "generic":
        return random_points_on_curve(X, size, seed)
    if style == "aligned":
        block = aligned_points_on_curve(X, min(X.degree, size), seed) if size else ()
    else:
        _, block = split_section(X, 1 + seed % 2, seed)
    rest = random_points_on_curve(X, max(size - len(block), 0), seed + 1, avoid=block)
    return point_group(X.p, block + rest.points, X)


@st.composite
def groups(draw):
    p = draw(st.sampled_from((101, 10007)))
    d = draw(st.integers(min_value=1, max_value=6))
    style = draw(st.sampled_from(("generic", "aligned", "section")))
    assume(not (style == "section" and d == 1))  # a line has no line section
    X = curve(p, d, draw(st.integers(min_value=0, max_value=1)))
    size = draw(st.integers(min_value=0, max_value=25))
    try:
        Y = make_group(X, style, size, draw(st.integers(min_value=0, max_value=10**6)))
    except GeometryError:
        assume(False)
    return X, Y


@settings(max_examples=80, deadline=None)
@given(groups())
def test_measurements_match_the_old_scans(case):
    X, Y = case
    rel = measure_rcs(X, Y)
    assert rel.entries == scan_rcs(X, Y)
    assert rel.ambient == plane_curve_charseq(X.degree)
    seq = measure_abs(Y)
    assert seq.entries == scan_abs(Y)
    assert (seq.cone_dim, seq.d) == (1, Y.size)


@settings(max_examples=40, deadline=None)
@given(groups())
def test_hilbert_is_the_rank_scan_up_to_saturation(case):
    _, Y = case
    values = Y.hilbert
    assert values == tuple(phi_points(Y, l) for l in range(len(values)))
    assert values[-1] == Y.size and all(v < Y.size for v in values[:-1])
    r = len(values) - 1
    assert phi_points(Y, r + 1) == phi_points(Y, r + 2) == Y.size


@contextmanager
def counted_ranks():
    """The shapes of the matrices ``modlin.rank`` is called on inside the block."""
    shapes = []
    rank = modlin.rank

    def counting(matrix, p):
        shapes.append(matrix.shape)
        return rank(matrix, p)

    modlin.rank = counting
    try:
        yield shapes
    finally:
        modlin.rank = rank


@settings(max_examples=30, deadline=None)
@given(groups())
def test_one_rank_per_degree_and_none_after(case):
    X, Y = case
    with counted_ranks() as shapes:
        measure_rcs(X, Y)
    assert len(shapes) == (len(Y.hilbert) if Y.size else 0)
    with counted_ranks() as shapes:
        measure_abs(Y, codim=2)
    assert shapes == []
    with counted_ranks() as shapes:
        measure_abs(Y)  # the default codim costs one rank, of the coordinates
    assert shapes == ([(Y.size, 3)] if Y.size else [])


def test_a_scan_short_of_the_group_degree_raises(monkeypatch):
    # A rank that comes out too small (as an overflowing one can) must stop
    # the measurement instead of turning into a wrong sequence.
    X = curve(10007, 4, 0)
    Y = random_points_on_curve(X, 9, seed=2)
    rank = modlin.rank
    monkeypatch.setattr(modlin, "rank", lambda matrix, p: min(rank(matrix, p), Y.size - 1))
    with pytest.raises(GeometryError, match="below the group degree"):
        measure_rcs(X, Y)
