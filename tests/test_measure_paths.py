"""Differential tests: the one Hilbert function a point group carries, and the
two measurements read from it, against the rank scans they replaced,
which are written out here as oracles."""

from contextlib import contextmanager
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charseq import modlin, pointlab, verify
from charseq.constructions import (
    aligned_points_on_curve,
    random_smooth_curve,
    split_line,
    split_section,
)
from charseq.errors import GeometryError
from charseq.pointlab import (
    MAX_MODULUS,
    PointGroup,
    dim_linear_system,
    line_points_on_curve,
    measure_abs,
    measure_rcs,
    monomial_basis,
    phi_plane_curve,
    phi_points,
    point_group,
    proj_point,
    random_points_on_curve,
    span_rank,
)
from charseq.seqcalc import entries_from_widths, plane_curve_charseq


def scan_hilbert(Y):
    """phi_Y(0), ..., phi_Y(r) by one evaluation-matrix rank per degree,
    stopping at the first degree where phi_Y = |Y|."""
    values = [phi_points(Y, 0)]
    while values[-1] < Y.size:
        if len(values) == Y.size:
            raise GeometryError(
                f"Hilbert function stops at {values[-1]} in degree {Y.size - 1}, "
                f"below the group degree {Y.size}"
            )
        values.append(phi_points(Y, len(values)))
    return tuple(values)


def scan_rcs(X, Y, phi=phi_points):
    """Entries of the relative sequence from the second differences of
    psi = phi_X - phi_Y, scanned until they stabilize; ``phi`` gives phi_Y."""
    d = X.degree
    cap = d + Y.size + 2
    psi_prev2 = psi_prev = 0
    widths = []
    for l in range(cap + 1):
        psi = phi_plane_curve(d, l) - phi(Y, l)
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
    block, or containing a full section of degree 1 or 2 (of degree 1 on
    curves of degree 7 and 8, where fully split lines are rare and
    ``split_section``'s 40 attempts take seconds to give up)."""
    if style == "generic":
        return random_points_on_curve(X, size, seed)
    if style == "aligned":
        block = aligned_points_on_curve(X, min(X.degree, size), seed) if size else ()
    elif X.degree > 6:
        _, block = split_line(X, seed)
    else:
        _, block = split_section(X, 1 + seed % 2, seed)
    rest = random_points_on_curve(X, max(size - len(block), 0), seed + 1, avoid=block)
    return point_group(X.p, block + rest.points, X)


@st.composite
def groups(draw, max_degree=6, max_size=25):
    p = draw(st.sampled_from((101, 10007)))
    d = draw(st.integers(min_value=1, max_value=max_degree))
    style = draw(st.sampled_from(("generic", "aligned", "section")))
    assume(not (style == "section" and d == 1))  # a line has no line section
    X = curve(p, d, draw(st.integers(min_value=0, max_value=1)))
    size = draw(st.integers(min_value=0, max_value=max_size))
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


@settings(max_examples=60, deadline=None)
@given(groups(max_degree=8, max_size=40))
def test_hilbert_is_the_rank_scan_up_to_saturation(case):
    _, Y = case
    values = Y.hilbert
    assert values == scan_hilbert(Y)
    assert values[-1] == Y.size and all(v < Y.size for v in values[:-1])
    r = len(values) - 1
    assert phi_points(Y, r + 1) == phi_points(Y, r + 2) == Y.size
    assert span_rank(Y) == (modlin.rank(Y.coords_array(), Y.p) if Y.size else 0)


def nested_spans_full_width(coords, form, p):
    """``pointlab._nested_spans`` before it dropped pivot columns: every
    level eliminates all |Y| columns."""
    n = coords.shape[0]
    inverse = np.array([pow(int(w), -1, p) for w in modlin.matmul(coords, form, p)], dtype=np.int64)
    v = coords * inverse.reshape(-1, 1) % p
    value = 0
    candidates = np.ones((1, n), dtype=np.int64)
    while True:
        reduced, pivots = modlin.rref(candidates, p)
        reduced = reduced[: len(pivots)]
        value += len(pivots)
        yield value
        candidates = (v.T[:, None, :] * reduced[None, :, :] % p).reshape(-1, n)
        candidates = modlin.reduce_rows(candidates, reduced, pivots, p)


def spans_up_to(spans, size):
    """The values of a nested-span scan up to |Y|, or its first |Y| + 1
    values if it never gets there."""
    values = []
    for value in spans:
        values.append(value)
        if value == size or len(values) > size:
            return values


def full_width_hilbert(Y):
    coords = Y.coords_array()
    form = pointlab._free_line(coords, Y.p)
    assert form is not None
    return tuple(spans_up_to(nested_spans_full_width(coords, form, Y.p), Y.size))


@settings(max_examples=60, deadline=None)
@given(groups(max_degree=8, max_size=40))
def test_narrowed_elimination_matches_the_full_width_one(case):
    _, Y = case
    coords = Y.coords_array()
    form = pointlab._free_line(coords, Y.p)
    assume(form is not None)
    narrowed = spans_up_to(pointlab._nested_spans(coords, form, Y.p), Y.size)
    assert narrowed == spans_up_to(nested_spans_full_width(coords, form, Y.p), Y.size)


@pytest.mark.parametrize(
    "d, size", [(4, 40), (4, 70), (4, 120), (6, 60), (6, 140), (6, 160), (8, 60), (8, 130), (8, 180)]
)
def test_measure_grid_shapes_match_the_full_width_elimination(d, size):
    # the shapes the benchmark's measure workload times, at p = 10007
    X = curve(10007, d, 0)
    Y = random_points_on_curve(X, size, seed=size)
    values = full_width_hilbert(Y)
    assert values[-1] == size
    assert Y.hilbert == values
    l = d - 3
    assert dim_linear_system(X, Y) == size - (values[l] if l < len(values) else size)


def bigint_phi(Y, l):
    """phi_Y(l) as the rank of the degree-l evaluation matrix, computed by
    Gaussian elimination on Python integers: no int64 anywhere."""
    p = Y.p
    if l < 0 or Y.size == 0:
        return 0
    rows = [
        [pow(x, a, p) * pow(y, b, p) * pow(z, c, p) % p for a, b, c in monomial_basis(l)]
        for x, y, z in (q.coords for q in Y.points)
    ]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = [v * inv % p for v in rows[rank]]
        rows = [
            row if i <= rank or not row[col] else [(v - row[col] * w) % p for v, w in zip(row, top)]
            for i, row in enumerate(rows)
        ]
        rank += 1
    return rank


@settings(max_examples=40, deadline=None)
@given(
    style=st.sampled_from(("generic", "aligned", "quartic")),
    size=st.integers(1, 25),
    seed=st.integers(0, 10**6),
    infinity=st.booleans(),
)
def test_hilbert_at_the_modulus_bound_matches_a_bigint_rank(style, size, seed, infinity):
    # a point on z = 0 makes the scaling form y, x or a drawn line, so the
    # points are scaled by large inverses instead of by 1
    p = MAX_MODULUS
    if style == "quartic":
        X = verify.corpus_curve(p, 4)
        far = line_points_on_curve(X, proj_point(1, 0, 0, p), proj_point(0, 1, 0, p))[:infinity]
        rest = random_points_on_curve(X, size - len(far), seed, avoid=far)
        Y = point_group(p, far + rest.points, X)
        assert measure_rcs(X, Y).entries == scan_rcs(X, Y, phi=bigint_phi)
    else:
        Y = verify._plane_group(p, size, style, seed)
        if infinity:
            Y = point_group(p, Y.points[1:] + (proj_point(seed, 1, 0, p),))
    values = Y.hilbert
    assert values == tuple(bigint_phi(Y, l) for l in range(len(values)))
    assert values[-1] == Y.size and all(v < Y.size for v in values[:-1])


def plane(p):
    """Every point of P^2(F_p)."""
    return sorted({proj_point(*v, p) for v in product(range(p), repeat=3) if any(v)})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.randoms(use_true_random=False))
def test_hilbert_of_any_point_set_over_a_small_field(p, rng):
    pts = plane(p)
    Y = point_group(p, rng.sample(pts, rng.randrange(len(pts) + 1)))
    assert Y.hilbert == scan_hilbert(Y)


def forced_group(p, branch):
    """A group whose linear form must be y, x, a line of the pencil through
    the first scan point (1:0:0) or, with that point in the group, through
    the next one (1:0:1), or none at all (the fallback)."""
    pts = plane(p)
    if branch == "y":  # z vanishes at (1, 1, 0), y nowhere
        return [q for q in pts if q.coords[1] and q.coords[2]][-3:] + [proj_point(1, 1, 0, p)]
    if branch == "x":  # y and z vanish at (1, 0, 0), x nowhere
        return [q for q in pts if q.coords[0]][:4]
    if branch == "pencil":  # x, y, z each vanish at a point, (1:0:0) is free
        return [proj_point(0, 1, 0, p), proj_point(0, 0, 1, p)]
    if branch == "moved":  # a point on each coordinate line, (1:0:0) among them
        return [proj_point(1, 0, 0, p), proj_point(0, 1, 0, p), proj_point(0, 0, 1, p)]
    # every line meets a full line, here z = 0, so no line avoids the group
    return [q for q in pts if q.coords[2] == 0] + [q for q in pts if q.coords[2]][:2]


# The pencil's first lines: through b = (1:0:0), the line to c1 = (0:1:0)
# is z and the line to c0 = (0:0:1) is -y, each through a point of the
# group, so the line to c0 + c1 = (0:1:1), -y + z, is taken; through
# b = (1:0:1) the lines to c1 and c0 are -x + z and -y, and the line to
# (0:1:1) is -x - y + z.
PENCIL_FORMS = {"pencil": (0, -1, 1), "moved": (-1, -1, 1)}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("branch", ("y", "x", "pencil", "moved", "fallback"))
def test_each_choice_of_the_linear_form(p, branch):
    Y = point_group(p, forced_group(p, branch))
    form = pointlab._free_line(Y.coords_array(), p)
    if branch == "fallback":
        assert form is None
    elif branch in PENCIL_FORMS:
        assert form.tolist() == [c % p for c in PENCIL_FORMS[branch]]
    else:
        assert form.tolist() == {"y": [0, 1, 0], "x": [1, 0, 0]}[branch]
    with counted("rank") as ranks:
        values = Y.hilbert
    assert values == scan_hilbert(Y)
    assert len(ranks) == (len(values) if branch == "fallback" else 0)


@contextmanager
def counted(name):
    """The shapes of the matrices ``modlin.<name>`` is called on inside the block."""
    shapes = []
    original = getattr(modlin, name)

    def counting(matrix, p):
        shapes.append(matrix.shape)
        return original(matrix, p)

    setattr(modlin, name, counting)
    try:
        yield shapes
    finally:
        setattr(modlin, name, original)


@settings(max_examples=30, deadline=None)
@given(groups())
def test_measure_rcs_then_measure_abs_run_one_elimination(case):
    X, Y = case
    with counted("rank") as ranks, counted("rref") as rrefs:
        measure_rcs(X, Y)
        measure_abs(Y)  # codim reads phi_Y(1)
    assert ranks == []
    # level 0 eliminates the constant 1 in all |Y| columns; level l + 1 the
    # multiples of each vector new at level l by the three coordinates, in
    # the |Y| - phi(l) columns that hold no pivot yet
    values = Y.hilbert
    new = [b - a for a, b in zip((0,) + values, values)]
    assert rrefs == [(1, Y.size)] + [(3 * k, Y.size - v) for k, v in zip(new[:-1], values[:-1])]


def test_a_scan_short_of_the_group_degree_raises(monkeypatch):
    # An elimination that loses a pivot (as an overflowing one can) must
    # stop the measurement instead of turning into a wrong sequence.
    X = curve(10007, 4, 0)
    Y = random_points_on_curve(X, 9, seed=2)
    rref = modlin.rref

    def dropping(matrix, p):
        reduced, pivots = rref(matrix, p)
        return reduced, pivots[:-1]

    monkeypatch.setattr(modlin, "rref", dropping)
    with pytest.raises(GeometryError, match="below the group degree"):
        measure_rcs(X, Y)


def test_a_fallback_scan_short_of_the_group_degree_raises(monkeypatch):
    Y = point_group(5, forced_group(5, "fallback"))
    rank = modlin.rank
    monkeypatch.setattr(modlin, "rank", lambda matrix, p: min(rank(matrix, p), Y.size - 1))
    with pytest.raises(GeometryError, match="below the group degree"):
        measure_abs(Y)


@settings(max_examples=40, deadline=None)
@given(groups(max_degree=8))
def test_dim_linear_system_reads_the_hilbert_function(case):
    X, Y = case
    with counted("rank") as ranks:
        dim = dim_linear_system(X, Y)
    assert ranks == []
    assert dim == Y.size - phi_points(Y, X.degree - 3)


def test_width_check_catches_a_wrong_linear_span(monkeypatch):
    # A Hilbert function off by one in degree 1 corrupts the width w[1] and
    # the span read from the same function alike; the check must compare
    # w[1] with an independent rank of the coordinates.
    hilbert = PointGroup.hilbert.func

    def corrupted(Y):
        values = hilbert(Y)
        return values[:1] + (values[1] - 1,) + values[2:] if len(values) > 2 else values

    monkeypatch.setattr(PointGroup, "hilbert", property(corrupted))
    monkeypatch.setattr(verify, "WIDTH_GROUPS", 6)
    result = verify.check_width_theorem()
    assert not result.passed and result.counts["violations"] > 0
    assert "l1_vs_span_codim" in result.detail
