"""Dimension bounds and the maximal-system classifier."""

import pytest

from charseq.constructions import split_section
from charseq.errors import DomainError
from charseq.liaison import minimal_delta_seq
from charseq.linsys import (
    CASE_CONTAINS,
    CASE_LARGE,
    CASE_RESIDUAL,
    classify_equal_phi,
    classify_maximal,
    find_contained_section,
    r_alpha,
)
from charseq.pointlab import dim_linear_system, point_group, random_points_on_curve

P = 10007


@pytest.mark.parametrize(
    "d,alpha,expected",
    [
        (4, 4, 2),
        (4, 3, 1),
        (6, 13, 5),
        (6, 12, 5),
        (6, 8, 2),
        (5, 1, 0),
    ],
)
def test_r_alpha_examples(d, alpha, expected):
    assert r_alpha(d, alpha) == expected


def test_r_alpha_branches_agree_on_overlap():
    for d in range(5, 9):
        for s in range(1, d - 2):
            alpha = s * d - (s + 1)
            assert r_alpha(d, alpha) == s * (s + 3) // 2 - (s + 1)
            assert r_alpha(d, alpha) == (s - 1) * (s + 2) // 2


def test_r_alpha_large_degree_is_flat():
    d = 5
    for alpha in range(3 * d, 4 * d):
        assert r_alpha(d, alpha) == alpha - (d - 1) * (d - 2) // 2


def test_classify_equal_phi_on_the_minimal_sequence_itself():
    d, alpha = 6, 9  # s = 2, r = 3
    delta = minimal_delta_seq(d, alpha)
    for i in range(2, 2 + d - 2):  # s <= i <= s + d - 3
        verdict = classify_equal_phi(delta, d, alpha, i)
        assert verdict.head_agrees and verdict.tail_agrees and verdict.holds
    assert classify_equal_phi(delta, d, alpha, 2 + d - 3).vacuous


def test_classify_equal_phi_rejects_broken_hypothesis():
    d, alpha = 6, 9
    from charseq.liaison import RelCharSeq
    from charseq.seqcalc import plane_curve_charseq

    # generic nine points have strictly larger values in the informative range
    generic = RelCharSeq((2, 2, 3, 3, 4, 4), plane_curve_charseq(6))
    with pytest.raises(DomainError):
        classify_equal_phi(generic, d, alpha, 3)
    with pytest.raises(DomainError):
        classify_equal_phi(minimal_delta_seq(d, alpha), d, alpha, 1)  # i below s
    with pytest.raises(DomainError):
        classify_equal_phi(minimal_delta_seq(d, alpha), d, 8, 3)  # alpha mismatch


def test_classify_maximal_cases(sextic_big):
    X = sextic_big
    _, sec = split_section(X, 2, seed=21)
    # case i: drop r <= s points from a degree-2 section
    for r in (0, 1, 2):
        Y = point_group(P, tuple(sorted(sec))[r:], X)
        verdict = classify_maximal(X, Y, seed=r)
        assert verdict.case == CASE_RESIDUAL
        assert verdict.certificate["containing_curve_degree"] == 2
        assert verdict.s == 2 and verdict.r == r

    # case ii: a full line section plus two generic points (r = 4 >= s + 2)
    _, line_pts = split_section(X, 1, seed=23)
    extra = random_points_on_curve(X, 2, seed=29, avoid=line_pts)
    Y = point_group(P, line_pts + extra.points, X)
    verdict = classify_maximal(X, Y, seed=0)
    assert verdict.case == CASE_CONTAINS
    assert verdict.certificate["contained_section_degree"] == 1


def test_classify_maximal_large_regime(quartic_big):
    X = quartic_big
    Y = random_points_on_curve(X, 11, seed=31)  # alpha = 11: s = 3 >= d - 2
    verdict = classify_maximal(X, Y, seed=0)
    assert verdict.case == CASE_LARGE
    assert verdict.dimension == dim_linear_system(X, Y)


def test_classify_maximal_rejects_non_maximal(sextic_big):
    X = sextic_big
    # ten generic points on a sextic: dim 0 < r(10) = 1
    Y = random_points_on_curve(X, 10, seed=37)
    if dim_linear_system(X, Y) != r_alpha(6, 10):
        with pytest.raises(DomainError):
            classify_maximal(X, Y, seed=0)


def test_find_contained_section_positive_and_negative(sextic_big):
    X = sextic_big
    _, line_pts = split_section(X, 1, seed=41)
    extra = random_points_on_curve(X, 3, seed=43, avoid=line_pts)
    Y = point_group(P, line_pts + extra.points, X)
    found = find_contained_section(X, Y, 1, seed=0)
    assert found is not None and found.degree == 1
    assert all(found.contains(q) for q in line_pts)
    scattered = random_points_on_curve(X, 9, seed=47)
    assert find_contained_section(X, scattered, 1, seed=0) is None
