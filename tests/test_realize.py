"""Case additions, filtrations, and the realization search."""

from importlib import import_module

import pytest

from charseq.errors import DomainError, GeometryError
from charseq.liaison import RelCharSeq
from charseq.pointlab import (
    measure_rcs,
    point_group,
    random_points_on_curve,
    rational_points,
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
    monkeypatch.setattr(realize_module, "addable_points", lambda X, Y, level: ())
    message = (
        r"exhausted for target \(2, 2, 3, 3\) after 3 attempts and 3 search nodes "
        r"\(budget 600 per attempt\): no rational witness chain reached the target"
    )
    with pytest.raises(GeometryError, match=message):
        realize(quartic_small, (2, 2, 3, 3), seed=0, retries=3)


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
    payload = report.to_json()
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
