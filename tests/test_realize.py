"""Case additions, filtrations, and the realization search."""

import random
import time
from dataclasses import asdict
from importlib import import_module

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charseq import modlin
from charseq.constructions import curve_from_vector, curves_through, line_through, multiply_curves
from charseq.errors import DomainError, GeometryError
from charseq.liaison import RelCharSeq
from charseq.pointlab import (
    evaluation_matrix,
    measure_rcs,
    plane_curve,
    point_group,
    point_pool,
    proj_point,
    random_points_on_curve,
    rational_points,
    section_points,
)
from charseq.realize import (
    add_case,
    addable_points,
    can_add_at_level,
    conjecture_scan,
    enumerate_admissible,
    filtration_points,
    is_admissible,
    realize,
)
from charseq.seqcalc import plane_curve_charseq
from charseq.verify import corpus_curve

realize_module = import_module("charseq.realize")  # the package's ``realize`` is the function


def seq_degree(seq) -> int:
    """Degree of the group a plane relative sequence describes: sum(n_i - i)."""
    return sum(n - i for i, n in enumerate(seq))


@pytest.mark.parametrize(
    "seq,expected",
    [
        ((0, 1, 2, 3), True),
        ((3, 3, 4, 5, 6, 7), True),
        ((2, 4, 5, 6), False),  # jump of two
        ((0, 0, 1, 2), False),  # entry below its index
        ((1, 2, 2, 3), True),
    ],
)
def test_is_admissible(seq, expected):
    assert is_admissible(seq) is expected


def test_add_case_examples():
    quartic = plane_curve_charseq(4)
    empty = RelCharSeq((0, 1, 2, 3), quartic)
    assert add_case(empty, 1).entries == (1, 1, 2, 3)
    sextic = plane_curve_charseq(6)
    rel = RelCharSeq((3, 3, 4, 4, 5, 5), sextic)
    assert add_case(rel, 5).entries == (3, 3, 4, 5, 5, 5)
    assert add_case(rel, 6).entries == (3, 3, 4, 4, 5, 6)
    with pytest.raises(DomainError):
        add_case(empty, 3)  # no admissible slot at that level
    with pytest.raises(DomainError):
        add_case(empty, 9)  # no entry with the previous value at all


def test_add_case_raises_degree_by_one():
    sextic = plane_curve_charseq(6)
    rel = RelCharSeq((2, 3, 4, 4, 5, 6), sextic)
    out = add_case(rel, 5)
    assert seq_degree(out.entries) == seq_degree(rel.entries) + 1


def test_filtration_basics(quartic_small):
    X = quartic_small
    everything = rational_points(X)
    empty = point_group(X.p, (), X)
    assert filtration_points(X, empty, 0) == ()
    assert filtration_points(X, empty, -1) == everything

    Y = random_points_on_curve(X, 3, seed=1)
    # below the first generator degree the filtration sees no constraint
    assert filtration_points(X, Y, 0) == everything
    # high-degree filtrations cut down to the group itself
    assert set(filtration_points(X, Y, 4)) == set(Y.points)


def test_filtration_antitone(quartic_small):
    X = quartic_small
    Y = random_points_on_curve(X, 5, seed=2)
    previous = None
    for t in range(0, 6):
        current = set(filtration_points(X, Y, t))
        if previous is not None:
            assert current <= previous
        previous = current
        assert set(Y.points) <= current


def test_witnessed_additions_match_the_calculus(quartic_small):
    X = quartic_small
    Y = random_points_on_curve(X, 4, seed=3)
    rel = measure_rcs(X, Y)
    for level in range(rel.entries[0], rel.entries[-1] + 2):
        try:
            expected = add_case(rel, level)
        except DomainError:
            assert can_add_at_level(X, Y, level) is None
            continue
        witness = can_add_at_level(X, Y, level)
        if witness is None:
            continue  # no rational witness; nothing to verify
        grown = measure_rcs(X, Y.union([witness]))
        assert grown.entries == expected.entries


def test_base_level_addition_always_available(quartic_small):
    X = quartic_small
    Y = random_points_on_curve(X, 4, seed=5)
    rel = measure_rcs(X, Y)
    n0 = rel.entries[0]
    witness = can_add_at_level(X, Y, n0 + 1)
    assert witness is not None
    grown = measure_rcs(X, Y.union([witness]))
    assert grown.entries == add_case(rel, n0 + 1).entries


def test_addable_points_are_minimum_first(quartic_small):
    X = quartic_small
    Y = random_points_on_curve(X, 3, seed=7)
    rel = measure_rcs(X, Y)
    options = addable_points(X, Y, rel.entries[0] + 1)
    if options:
        assert can_add_at_level(X, Y, rel.entries[0] + 1) == min(options)


def test_enumerate_admissible_counts():
    targets4 = sorted(set(enumerate_admissible(4, 10)))
    targets5 = sorted(set(enumerate_admissible(5, 10)))
    assert len(targets4) == 19
    assert len(targets5) == 26
    assert all(is_admissible(t) and seq_degree(t) <= 10 for t in targets4 + targets5)
    assert (0, 1, 2, 3) in targets4
    assert (4, 4, 4, 4) in targets4


def test_realize_round_trip_small(quartic_small):
    X = quartic_small
    for target in [(1, 2, 3, 4), (2, 2, 3, 3), (3, 3, 4, 4), (2, 3, 3, 4)]:
        Y = realize(X, target, seed=0)
        assert measure_rcs(X, Y).entries == target
        assert Y.size == seq_degree(target)


def test_realize_rejects_bad_targets(quartic_small):
    X = quartic_small
    with pytest.raises(DomainError):
        realize(X, (0, 2, 3, 4), seed=0)
    with pytest.raises(DomainError):
        realize(X, (1, 2, 3), seed=0)


def test_realize_exhaustion_says_what_it_tried(quartic_small, monkeypatch):
    # no witness ever: each attempt spends one search node on the first level
    monkeypatch.setattr(realize_module, "_node_witnesses", lambda X, Y, rel, level, held: ())
    message = (
        r"exhausted for target \(2, 2, 3, 3\) after 3 attempts and 3 search nodes "
        r"\(budget 600 per attempt\): no rational witness chain reached the target"
    )
    with pytest.raises(GeometryError, match=message):
        realize(quartic_small, (2, 2, 3, 3), seed=0)


def test_realize_empty_target(quartic_small):
    X = quartic_small
    Y = realize(X, (0, 1, 2, 3), seed=0)
    assert Y.size == 0


def test_conjecture_scan_clean(quartic_small):
    report = conjecture_scan(quartic_small, 1, 25, seed=0)
    assert report.violations == 0
    assert len(report.trials) == 25
    assert all(t.dominated and t.disagreement_connex for t in report.trials)
    assert all(len(t.measured) == 4 for t in report.trials)
    payload = asdict(report)
    assert payload["violations"] == 0 and len(payload["trials"]) == 25


def test_filtration_on_big_fields(quartic_big, monkeypatch):
    X = quartic_big
    Y = random_points_on_curve(X, 3, seed=1)
    grown = (len(X.pool.smooth), X.pool.lines)

    def no_pool(curve, size):
        raise AssertionError("the point pool was read")

    monkeypatch.setattr(realize_module, "point_pool", no_pool)
    # unconstrained stages are all of X: they read the pool or a candidate set
    with pytest.raises(AssertionError, match="point pool was read"):
        filtration_points(X, Y, 0)
    # constrained stages are exact at any modulus, contain the group and
    # never touch the pool
    exact = filtration_points(X, Y, 2)
    assert set(Y.points) <= set(exact)
    assert (len(X.pool.smooth), X.pool.lines) == grown
    pts = filtration_points(X, Y, 2, candidates=Y.points)
    assert set(pts) <= set(Y.points)
    # an empty group has an empty filtration in every degree >= 0, unread
    empty = point_group(X.p, (), X)
    assert all(filtration_points(X, empty, t) == () for t in range(4))
    assert (len(X.pool.smooth), X.pool.lines) == grown


def test_first_plateau_additions_on_the_big_field():
    # The one-point move at the first plateau always exists over the closure;
    # over the rational points it can be blocked when the residual points of
    # the pinning curve are irrational.  On this fixed corpus the move exists
    # rationally in 33 of 36 cases, and every returned witness reproduces the
    # predicted sequence exactly.
    from charseq.verify import corpus_curve

    ok = blocked = 0
    for d in (4, 5, 6):
        X = corpus_curve(10007, d)
        for seed in range(12):
            Y = random_points_on_curve(X, 3 + seed % 8, seed=seed)
            rel = measure_rcs(X, Y)
            n = rel.entries
            j = next((i for i in range(len(n) - 1) if n[i + 1] == n[i]), None)
            assert j is not None  # every corpus member has a plateau
            level = n[j] + 1
            expected = add_case(rel, level)
            witness = can_add_at_level(X, Y, level)
            if witness is None:
                blocked += 1
                continue
            assert measure_rcs(X, Y.union([witness])).entries == expected.entries
            ok += 1
    assert ok == 33 and blocked == 3


def test_base_addition_from_the_empty_group(quartic_small):
    X = quartic_small
    empty = point_group(X.p, (), X)
    witness = can_add_at_level(X, empty, 1)
    assert witness is not None and X.contains(witness)
    assert measure_rcs(X, empty.union([witness])).entries == (1, 1, 2, 3)


def filter_rows_one_by_one(points, kernel, t, p):
    """The pool filter the held matrices replaced: sort, evaluate, then test
    each row on its own."""
    pts = tuple(sorted(set(points)))
    if not pts:
        return ()
    hits = evaluation_matrix(pts, t, p) @ kernel.T % p
    return tuple(q for q, row in zip(pts, hits) if not row.any())


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from((4, 5)), size=st.integers(1, 16), seed=st.integers(0, 10**6))
def test_held_pool_matrices_filter_like_the_row_loop(d, size, seed):
    X = corpus_curve(101, d)
    Y = random_points_on_curve(X, size, seed)
    for t in range(9):
        kernel = curves_through(X.p, t, Y.points)
        got = filtration_points(X, Y, t)
        if kernel.shape[0] == 0:
            assert got == point_pool(X, 600)
            continue
        oracle = filter_rows_one_by_one(point_pool(X, 600), kernel, t, X.p)
        assert got == oracle
    pts, values = X.pool_evaluation(3)
    assert X.pool_evaluation(3)[1] is values  # one matrix per (curve, degree)
    assert pts == point_pool(X, 600)


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from((4, 5)),
    target=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
)
def test_the_search_carries_the_measured_sequence(d, target, seed):
    # at every search node the sequence handed down equals a fresh measurement
    X = corpus_curve(101, d)
    targets = sorted(set(enumerate_admissible(d, 12)))
    witnesses = realize_module._node_witnesses

    def checked(X, Y, rel, level, held):
        assert rel == measure_rcs(X, Y)
        return witnesses(X, Y, rel, level, held)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize_module, "_node_witnesses", checked)
        try:
            realize(X, targets[target % len(targets)], seed=seed)
        except GeometryError:
            pass  # a search that runs dry still checked every node it visited


# Points returned and search nodes spent (``_node_witnesses`` calls) by
# realize on corpus_curve(101, d), recorded from a search that measured every
# node afresh; the sextic's is the deepest backtracking of its targets.
PINNED_SEARCHES = [
    (4, (3, 3, 3, 3), 0, 8, "16,8,1 21,41,1 25,89,1 62,58,1 63,48,1 84,73,1"),
    (4, (2, 2, 3, 3), 1, 4, "8,38,1 56,28,1 84,32,1 98,34,1"),
    (4, (4, 5, 5, 5), 0, 6,
        "1,29,1 2,90,1 5,64,1 8,38,1 16,67,1 30,6,1 40,87,1 59,8,1 64,24,1 "
        "72,90,1 79,69,1 86,17,1 92,29,1"
    ),
    (4, (5, 5, 6, 6), 1, 5,
        "4,80,1 6,83,1 8,94,1 12,22,1 22,27,1 27,12,1 34,74,1 51,90,1 53,73,1 "
        "59,96,1 62,58,1 64,24,1 71,46,1 83,98,1 86,42,1 98,34,1"
    ),
    (4, (1, 2, 3, 3), 2, 5, "21,91,1 22,27,1 51,90,1"),
    (4, (3, 4, 5, 5), 0, 4,
        "2,90,1 5,64,1 8,38,1 16,67,1 30,6,1 40,87,1 64,24,1 72,90,1 79,69,1 "
        "86,17,1 92,29,1"
    ),
    (4, (4, 4, 4, 5), 2, 3,
        "5,58,1 8,38,1 16,67,1 22,29,1 26,31,1 34,83,1 40,87,1 43,74,1 58,75,1 "
        "86,17,1 89,72,1"
    ),
    (4, (2, 3, 3, 4), 0, 2, "2,90,1 5,64,1 8,38,1 30,6,1 64,24,1 84,76,1"),
    (4, (0, 1, 2, 3), 0, 0, ""),
    (5, (4, 4, 5, 5, 5), 2, 20,
        "3,60,1 6,87,1 39,27,1 48,80,1 49,69,1 54,10,1 57,31,1 61,93,1 68,43,1 "
        "81,20,1 81,80,1 84,88,1 96,57,1"
    ),
    (5, (3, 4, 4, 4, 4), 0, 19,
        "6,87,1 9,61,1 27,32,1 27,63,1 31,69,1 40,8,1 47,71,1 51,33,1 91,100,1"
    ),
    (5, (3, 3, 3, 4, 4), 0, 17, "6,87,1 9,61,1 27,32,1 31,69,1 40,8,1 51,33,1 91,100,1"),
    (5, (2, 3, 4, 5, 5), 2, 11,
        "3,60,1 48,80,1 49,69,1 61,93,1 68,43,1 81,20,1 81,80,1 84,88,1 96,57,1"
    ),
    (5, (4, 4, 4, 4, 5), 1, 10,
        "15,84,1 18,37,1 23,86,1 25,75,1 26,75,1 41,13,1 49,82,1 65,53,1 "
        "84,88,1 90,1,0 90,78,1"
    ),
    (5, (5, 5, 5, 6, 6), 1, 9,
        "2,19,1 9,70,1 20,65,1 25,75,1 39,27,1 41,74,1 49,82,1 56,67,1 60,93,1 "
        "65,53,1 68,81,1 77,85,1 80,28,1 81,8,1 84,88,1 90,1,0 94,84,1"
    ),
    (5, (4, 5, 5, 6, 6), 1, 8,
        "2,19,1 9,70,1 20,65,1 25,75,1 39,27,1 41,74,1 49,82,1 56,67,1 60,93,1 "
        "65,53,1 68,81,1 77,85,1 80,28,1 84,88,1 90,1,0 94,84,1"
    ),
    (5, (3, 3, 4, 4, 5), 1, 8,
        "18,37,1 23,86,1 25,75,1 26,75,1 49,82,1 65,53,1 84,88,1 90,1,0 90,78,1"
    ),
    (5, (3, 4, 5, 6, 6), 2, 6,
        "5,39,1 7,68,1 31,12,1 44,94,1 48,80,1 49,69,1 55,57,1 69,13,1 75,38,1 "
        "81,20,1 84,25,1 84,88,1 96,57,1 100,58,1"
    ),
    (5, (4, 5, 6, 6, 7), 0, 5,
        "4,65,1 6,83,1 31,69,1 33,23,1 41,74,1 41,95,1 49,82,1 54,10,1 55,96,1 "
        "63,22,1 67,4,1 75,12,1 75,38,1 77,32,1 81,20,1 84,11,1 84,55,1 98,38,1"
    ),
    (5, (2, 2, 2, 3, 4), 0, 3, "26,75,1 40,8,1 81,80,1"),
    (6, (4, 4, 5, 6, 7, 7), 3, 416,
        "0,80,1 4,46,1 7,86,1 17,51,1 21,72,1 24,55,1 31,21,1 32,49,1 35,73,1 "
        "54,35,1 55,19,1 58,59,1 64,47,1 77,4,1 78,54,1 79,59,1 84,43,1 90,90,1"
    ),
]


def test_the_search_is_pinned(monkeypatch):
    calls = [0]
    witnesses = realize_module._node_witnesses

    def counted(*args):
        calls[0] += 1
        return witnesses(*args)

    def no_filtration(*args):
        raise AssertionError("a search node took a fresh filtration")

    monkeypatch.setattr(realize_module, "_node_witnesses", counted)
    # at p <= 101 every node reads its witnesses off the held pool residuals
    monkeypatch.setattr(realize_module, "filtration_points", no_filtration)
    for d, target, seed, nodes, points in PINNED_SEARCHES:
        X = corpus_curve(101, d)
        calls[0] = 0
        found = realize(X, target, seed=seed)
        expected = tuple(proj_point(*map(int, q.split(",")), X.p) for q in points.split())
        assert (found.points, calls[0]) == (expected, nodes), (d, target, seed)


def test_no_split_line_fails_fast(monkeypatch):
    # corpus_curve(101, 7) has no line through seven of its rational points:
    # split_line's proof of that ends each attempt at its first call
    X = corpus_curve(101, 7)
    constructions = import_module("charseq.constructions")
    calls = []
    split_line = constructions.split_line
    monkeypatch.setattr(
        constructions, "split_line", lambda *a, **k: calls.append(1) or split_line(*a, **k)
    )
    start = time.perf_counter()
    with pytest.raises(GeometryError, match="after 3 attempts.*no fully split line exists"):
        realize(X, (1, 2, 3, 4, 5, 6, 7), seed=0)
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 3


def kernel_section(X, kernel, t):
    """Rational points of X on the first kernel form that meets X properly;
    None when every kernel form shares a component with X."""
    for row in kernel:
        try:
            return section_points(X, curve_from_vector(X.p, t, row), require_transverse=False).points
        except GeometryError:
            continue
    return None


def filtration_by_kernel(X, Y, t, candidates=None):
    """The filtration by the kernel route the span test replaced: a basis of
    the degree-t forms through Y, and the tested points every one kills."""
    everything = point_pool(X, 600) if candidates is None else tuple(sorted(set(candidates)))
    if t >= 0 and Y.size == 0:
        return ()
    if t < 0:
        return everything
    kernel = curves_through(Y.p, t, Y.points)
    if kernel.shape[0] == 0:
        return everything
    if candidates is None and X.p <= 101:  # the pool, in pool order
        hits = evaluation_matrix(everything, t, X.p) @ kernel.T % X.p
        return tuple(q for q, row in zip(everything, hits) if not row.any())
    if candidates is None:
        candidates = kernel_section(X, kernel, t)
    return filter_rows_one_by_one(everything if candidates is None else candidates, kernel, t, X.p)


def curve_with_a_line(p):
    """A quartic with a line component: the corpus cubic times a line."""
    line = line_through(p, proj_point(1, 0, 1, p), proj_point(0, 1, 1, p))
    return multiply_curves(line, corpus_curve(p, 3))


def filtration_case(p, d, on_line, size, seed, tested):
    X = curve_with_a_line(p) if d == "line" else corpus_curve(p, d)
    # with more than t points on the line, every degree-t form through Y
    # contains it, so no kernel form meets X properly
    line_points = tuple(proj_point(1, s, 1 + s, p) for s in range(on_line if d == "line" else 0))
    rest = random_points_on_curve(X, size, seed, avoid=line_points)
    Y = point_group(p, line_points + rest.points, X)
    candidates = {
        "pool": None,
        "candidates": Y.points + point_pool(X, 60)[seed % 3 :: 3],
        "none": (),
    }[tested]
    return X, Y, candidates


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from((101, 10007)),
    d=st.sampled_from((4, 5, 6, "line")),
    on_line=st.integers(0, 8),
    size=st.integers(0, 9),
    seed=st.integers(0, 10**6),
    tested=st.sampled_from(("pool", "candidates", "none")),
)
@example(p=10007, d=6, on_line=0, size=7, seed=1, tested="pool")
@example(p=10007, d=5, on_line=0, size=0, seed=2, tested="pool")  # empty Y
@example(p=101, d=5, on_line=0, size=9, seed=3, tested="candidates")
@example(p=10007, d="line", on_line=6, size=2, seed=4, tested="pool")  # forms contain the line
@example(p=101, d="line", on_line=5, size=3, seed=5, tested="pool")
def test_the_span_test_filters_like_the_kernel_route(p, d, on_line, size, seed, tested):
    X, Y, candidates = filtration_case(p, d, on_line, size, seed, tested)
    oracle = {t: filtration_by_kernel(X, Y, t, candidates) for t in range(-2, 9)}
    for t in range(-1, 9):
        assert filtration_points(X, Y, t, candidates) == oracle[t], t
    levels = range(0, 10)
    got = [addable_points(X, Y, level, candidates) for level in levels]
    first = [can_add_at_level(X, Y, level, candidates) for level in levels]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize_module, "filtration_points", lambda X, Y, t, c=None: oracle[t])
        assert got == [addable_points(X, Y, level, candidates) for level in levels]
        assert first == [can_add_at_level(X, Y, level, candidates) for level in levels]


def test_the_filtration_and_the_search_build_no_kernel(quartic_small, monkeypatch):
    X = quartic_small
    Y = random_points_on_curve(X, 5, seed=4)
    pool = point_pool(X, 600)
    expected = [filtration_points(X, Y, t) for t in range(-1, 7)]
    expected += [filtration_points(X, Y, t, candidates=pool[::2]) for t in range(-1, 7)]
    found = realize(X, (3, 3, 4, 4), seed=1)

    def no_kernel(*args):
        raise AssertionError("a kernel basis was built")

    monkeypatch.setattr(modlin, "kernel_basis", no_kernel)
    got = [filtration_points(X, Y, t) for t in range(-1, 7)]
    got += [filtration_points(X, Y, t, candidates=pool[::2]) for t in range(-1, 7)]
    assert got == expected
    assert realize(X, (3, 3, 4, 4), seed=1) == found


def count_rrefs(monkeypatch):
    """Patch ``modlin.rref`` to count its calls into the returned list."""
    calls = [0]
    rref = modlin.rref

    def counted(*args):
        calls[0] += 1
        return rref(*args)

    monkeypatch.setattr(modlin, "rref", counted)
    return calls


def test_a_large_prime_witness_set_takes_one_section(monkeypatch):
    # the stage at level - 1 is tested among the points of the stage at
    # level - 2, so only the outer stage is found on a section, and only
    # where a form of degree level - 2 runs through Y
    X = corpus_curve(10007, 5)
    calls = [0]
    section_through = realize_module._section_through

    def counted(*args):
        calls[0] += 1
        return section_through(*args)

    monkeypatch.setattr(realize_module, "_section_through", counted)
    sections = []
    for size in (3, 6, 8, 10, 12, 14):
        Y = random_points_on_curve(X, size, seed=0)
        rel = measure_rcs(X, Y)
        for level in (level for level in range(2, 10) if realize_module._raises(rel, level)):
            calls[0] = 0
            realize_module._witnesses(X, Y, rel, level)
            forms = curves_through(X.p, level - 2, Y.points).shape[0] > 0
            assert calls[0] == forms, (size, level)
            sections.append(calls[0])
    assert sections.count(1) >= 3  # not vacuous: three witness sets take a section


def test_a_large_prime_filtration_takes_one_echelon_form(monkeypatch):
    # the span test's echelon form also gives the section form its kernel
    X = corpus_curve(10007, 5)
    Y = random_points_on_curve(X, 6, seed=0)
    calls = count_rrefs(monkeypatch)
    for t in range(1, 6):
        calls[0] = 0
        filtration_points(X, Y, t)
        assert calls[0] == 1, t


@pytest.mark.parametrize(
    "case", [0, 3, 9, 10, 20], ids=lambda k: "-".join(map(str, PINNED_SEARCHES[k][1]))
)
def test_search_nodes_take_no_echelon_form(monkeypatch, case):
    # a search's echelon forms are those of its split section, the base
    # measurement and the final measurement, whatever its node count (5 to
    # 416 among these pinned searches): the held residuals take none
    d, target, seed, _, _ = PINNED_SEARCHES[case]
    X = corpus_curve(101, d)
    split_section = realize_module.split_section
    bases = []

    def recorded(*args):
        before = calls[0]
        base = split_section(*args)
        bases.append((base[1], calls[0] - before))
        return base

    calls = count_rrefs(monkeypatch)
    monkeypatch.setattr(realize_module, "split_section", recorded)
    found = realize(X, target, seed=seed)
    total = calls[0]

    def rrefs_measuring(points):
        before = calls[0]
        measure_rcs(X, point_group(X.p, points, X))
        return calls[0] - before

    assert len(bases) <= 1  # one attempt, on a section or the empty group
    base, in_split = bases[0] if bases else ((), 0)
    assert total == in_split + rrefs_measuring(base) + rrefs_measuring(found.points)


def nodal_cubic(p):
    """y^2 z = x^3 + x^2 z, singular at (0:0:1), which the pool holds."""
    return plane_curve(p, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})


def residual_curve(curve):
    """The F_101 curves the held residuals are tested on."""
    if curve == "nodal cubic":
        X = nodal_cubic(101)
        assert not X.pool.smooth[proj_point(0, 0, 1, X.p)]
        return X
    return curve_with_a_line(101) if curve == "line" else corpus_curve(101, curve)


RESIDUAL_CURVES = st.sampled_from((4, 5, 6, "nodal cubic", "line"))


def residuals_by_echelon_forms(X, Y, levels):
    """The residuals by the route ``_PoolResiduals.of`` once took: in each
    held degree the pool matrix reduced against one echelon form of Y's
    rows; the pool matrix itself for an empty Y."""
    rows = {}
    for t in realize_module._degrees(levels):
        rows[t] = X.pool_evaluation(t)[1]
        if Y.size:
            reduced, pivots = modlin.rref(evaluation_matrix(Y.points, t, Y.p), Y.p)
            rows[t] = modlin.reduce_rows(rows[t], reduced, pivots, X.p)
    return rows


@settings(max_examples=30, deadline=None)
@given(
    curve=RESIDUAL_CURVES,
    size=st.integers(0, 12),
    seed=st.integers(0, 10**6),
    top=st.integers(0, 10),
)
@example(curve="nodal cubic", size=12, seed=0, top=10)
@example(curve="line", size=12, seed=1, top=10)
@example(curve=6, size=0, seed=2, top=3)
def test_residuals_from_the_pool_match_the_echelon_route(curve, size, seed, top):
    # the pool matrices with Y's points added one at a time have the zero
    # rows, the filtration, of the pool reduced against Y's echelon forms
    X = residual_curve(curve)
    Y = random_points_on_curve(X, size, seed)
    levels = range(0, top + 1)
    held = realize_module._PoolResiduals.of(X, Y, levels)
    oracle = residuals_by_echelon_forms(X, Y, levels)
    assert held.rows.keys() == oracle.keys()
    for t, rows in oracle.items():
        assert np.array_equal(held.rows[t].any(axis=1), rows.any(axis=1)), t


@settings(max_examples=30, deadline=None)
@given(
    curve=RESIDUAL_CURVES,
    size=st.integers(0, 12),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
@example(curve="nodal cubic", size=0, seed=0, data=None)
@example(curve=6, size=12, seed=1, data=None)
def test_carried_residuals_give_the_fresh_witnesses(curve, size, seed, data):
    # walk a random witness chain; at every node the held residuals give the
    # witnesses of a fresh witness set through Y, in the same order
    X = residual_curve(curve)
    Y = random_points_on_curve(X, size, seed)
    rel, levels = measure_rcs(X, Y), range(0, 11)
    held = realize_module._PoolResiduals.of(X, Y, levels)
    rng = random.Random(seed)
    for _ in range(8):
        fresh = {level: realize_module._witnesses(X, Y, rel, level) for level in levels}
        for level in levels:
            assert realize_module._node_witnesses(X, Y, rel, level, held) == fresh[level], level
        choices = [(level, q) for level in levels for q in fresh[level]]
        if not choices:
            break
        level, q = data.draw(st.sampled_from(choices)) if data else rng.choice(choices)
        parent = {t: rows.copy() for t, rows in held.rows.items()}
        child = held.add(q, levels)
        assert all(np.array_equal(held.rows[t], rows) for t, rows in parent.items())
        Y, rel, held = Y.union([q]), add_case(rel, level), child
