"""Cross-validation of sequence-level statements against direct measurement.

Each test here checks an identity in both worlds at once: the sequence
calculus computes a prediction, the rank engine measures the actual
configuration, and the two must agree exactly.
"""

import numpy as np
import pytest

from charseq import modlin
from charseq.constructions import (
    multiply_curves,
    split_line,
    split_section,
)
from charseq.liaison import minimal_delta_seq, phi_rel, rel_degree, split_on_gap
from charseq.linsys import classify_equal_phi
from charseq.errors import DomainError
from charseq.pointlab import (
    line_point,
    measure_abs,
    measure_rcs,
    phi_points,
    point_group,
    proj_point,
    random_points_on_curve,
)
from charseq.seqcalc import aligned_bound, separation_index, seq_included
from charseq.verify import corpus_curve

P = 10007


@pytest.fixture(scope="module")
def reducible_quartic():
    """A quartic that is a line times a cubic, with points of the line in hand."""
    cubic = corpus_curve(P, 3)
    line, crossings = split_line(cubic, seed=4)
    X = multiply_curves(line, cubic)
    cd = line.coeff_dict()
    basis = modlin.kernel_basis(
        np.array(
            [[cd.get((1, 0, 0), 0), cd.get((0, 1, 0), 0), cd.get((0, 0, 1), 0)]],
            dtype=np.int64,
        ),
        P,
    )
    a = proj_point(*(int(v) for v in basis[0]), P)
    b = proj_point(*(int(v) for v in basis[1]), P)
    line_pool = tuple(
        q for q in (line_point(a, b, t, P) for t in range(60)) if q not in set(crossings)
    )
    return X, line, cubic, line_pool, crossings


def test_gap_split_matches_component_measurements(reducible_quartic):
    X, line, cubic, line_pool, crossings = reducible_quartic
    for n_line, n_cubic in ((5, 0), (5, 2)):
        on_line = tuple(sorted(line_pool[:n_line]))
        on_cubic = random_points_on_curve(cubic, n_cubic, seed=9, avoid=crossings).points
        rel = measure_rcs(X, point_group(P, on_line + on_cubic, X))
        split = split_on_gap(rel)
        assert split is not None, rel.entries
        assert split.section_degree == 1  # the line is the high-degree-shift piece
        assert split.high.entries == measure_rcs(line, point_group(P, on_line, line)).entries
        assert split.low.entries == measure_rcs(cubic, point_group(P, on_cubic, cubic)).entries


def test_frozen_gap_sequences(reducible_quartic):
    # five collinear points on the product quartic measure (1, 2, 3, 5):
    # the staircase of the empty cubic piece shifted by one, then the jump
    X, _, _, line_pool, _ = reducible_quartic
    rel = measure_rcs(X, point_group(P, tuple(sorted(line_pool[:5])), X))
    assert rel.entries == (1, 2, 3, 5)
    assert "jump_above_one" in rel.violations(irreducible=True)
    assert rel.violations(irreducible=False) == ()


def test_aligned_bound_on_measured_groups(quartic_big, sextic_big):
    def max_collinear(points) -> int:
        best = 2 if len(points) >= 2 else len(points)
        pts = list(points)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                (x1, y1, z1), (x2, y2, z2) = pts[i].coords, pts[j].coords
                row = (
                    (y1 * z2 - z1 * y2) % P,
                    (z1 * x2 - x1 * z2) % P,
                    (x1 * y2 - y1 * x2) % P,
                )
                count = sum(
                    1
                    for q in pts
                    if (row[0] * q.coords[0] + row[1] * q.coords[1] + row[2] * q.coords[2]) % P == 0
                )
                best = max(best, count)
        return best

    from charseq.constructions import mixed_random_group

    for X in (quartic_big, sextic_big):
        for k, style in ((0, "generic"), (1, "aligned"), (2, "aligned"), (3, "conic")):
            Y = mixed_random_group(X, 7 + k, seed=500 + k, style=style)
            seq = measure_abs(Y)
            r = max_collinear(Y.points)
            assert seq.entries[-1] <= aligned_bound(Y.size, r)


def test_separation_index_is_saturation_degree_minus_two(quartic_big):
    X = quartic_big
    for seed, size in ((1, 4), (2, 7), (3, 10)):
        Y = random_points_on_curve(X, size, seed=seed)
        seq = measure_abs(Y)
        saturation = next(l for l in range(size + 1) if phi_points(Y, l) == size)
        assert separation_index(seq) == saturation - 2


def test_phi_strictly_increasing_until_constant(quartic_big):
    X = quartic_big
    for seed in (4, 5):
        Y = random_points_on_curve(X, 6 + seed, seed=seed)
        values = [phi_points(Y, l) for l in range(Y.size + 2)]
        plateau = values.index(Y.size)
        assert all(a < b for a, b in zip(values[:plateau], values[1 : plateau + 1]))
        assert all(v == Y.size for v in values[plateau:])


def test_sequence_inclusion_for_nested_groups(sextic_big):
    X = sextic_big
    big = random_points_on_curve(X, 12, seed=6)
    small = point_group(P, big.points[:7], X)
    assert seq_included(measure_abs(small), measure_abs(big))
    # measured sequences on a smooth curve satisfy every relative invariant
    assert measure_rcs(X, big).violations(irreducible=True) == ()
    assert measure_rcs(X, small).violations(irreducible=True) == ()


def test_entries_bounded_by_section_degree_plus_ambient(sextic_big):
    # a group inside a degree-s curve has n_i <= s + m_i
    X = sextic_big
    for s in (1, 2):
        _, sec = split_section(X, s, seed=60 + s)
        for take in (3, 5, len(sec)):
            Y = point_group(P, tuple(sorted(sec))[:take], X)
            rel = measure_rcs(X, Y)
            assert all(n <= s + i for i, n in enumerate(rel.entries))


def test_equal_phi_proposition_on_measured_corpus():
    # wherever a measured group ties the minimal sequence at an informative
    # degree, the predicted head or tail agreement must be observed
    checked = 0
    for d in (4, 5, 6):
        X = corpus_curve(P, d)
        for seed in range(14):
            size = 2 + (seed * 3) % (2 * d)
            Y = random_points_on_curve(X, size, seed=700 + seed)
            rel = measure_rcs(X, Y)
            alpha = rel_degree(rel)
            if alpha < 1:
                continue
            delta = minimal_delta_seq(d, alpha)
            s = delta.entries[0]
            for i in range(s, s + d - 2):
                if phi_rel(rel, i) != phi_rel(delta, i):
                    continue
                verdict = classify_equal_phi(rel, d, alpha, i)
                if not verdict.vacuous:
                    assert verdict.holds, (d, seed, rel.entries, i)
                    checked += 1
    assert checked >= 10  # the corpus exercises the proposition for real


def test_equal_phi_vacuous_boundary_example():
    # at the top informative degree the equality holds for every group of
    # the same degree, so no agreement can be forced there: the verdict says so
    from charseq.liaison import RelCharSeq
    from charseq.seqcalc import plane_curve_charseq

    rel = RelCharSeq((3, 3, 4, 4, 5, 5), plane_curve_charseq(6))
    verdict = classify_equal_phi(rel, 6, 9, 5)
    assert verdict.vacuous
    assert not verdict.head_agrees and not verdict.tail_agrees
    with pytest.raises(DomainError):
        classify_equal_phi(rel, 6, 9, 4)  # the values differ at 4
