"""Constructive realization of relative sequences on a plane curve.

A sequence (n_i) with n_i >= i and steps in {0, 1} is admissible, and every
admissible sequence is the measured sequence of some point group on an
irreducible plane curve.  The construction walks the proof backwards:
strip plateaus down to a pure staircase (a transverse section), then re-add
one point per plateau, each located through the degree filtration of the
ideal of the current group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import modlin
from .constructions import curve_from_vector, fold_seed, split_section
from .errors import DomainError, GeometryError
from .liaison import RelCharSeq, minimal_delta_seq, phi_rel
from .pointlab import (
    SMALL_FIELD_SCAN,
    PlaneCurve,
    PointGroup,
    ProjPoint,
    evaluation_matrix,
    measure_rcs,
    point_group,
    point_pool,
    random_points_on_curve,
    section_points,
)


def is_admissible(seq: Sequence[int]) -> bool:
    """Whether n_i >= i and n_i <= n_{i+1} <= n_i + 1 throughout."""
    entries = list(seq)
    if any(n < i for i, n in enumerate(entries)):
        return False
    return all(a <= b <= a + 1 for a, b in zip(entries, entries[1:]))


def add_case(rel: RelCharSeq, level: int) -> RelCharSeq:
    """Raise the last entry equal to ``level - 1`` up to ``level``.

    This is the one-point move on the box diagram; the move must keep the
    sequence admissible or the addition is rejected.
    """
    n = list(rel.entries)
    candidates = [i for i, v in enumerate(n) if v == level - 1]
    if not candidates:
        raise DomainError(f"inadmissible addition: no entry has value {level - 1}")
    i = candidates[-1]
    n[i] = level
    if not is_admissible(n):
        raise DomainError(f"inadmissible addition: raising index {i} to {level} breaks the steps")
    return RelCharSeq(tuple(n), rel.ambient)


def _candidate_points(
    X: PlaneCurve, candidates: Iterable[ProjPoint] | None
) -> tuple[ProjPoint, ...]:
    return point_pool(X, 600) if candidates is None else tuple(sorted(set(candidates)))


def filtration_points(
    X: PlaneCurve, Y: PointGroup, t: int, candidates: Iterable[ProjPoint] | None = None
) -> tuple[ProjPoint, ...]:
    """Rational points of X killed by every form of degree <= t through Y.

    Checking degree t alone suffices: lower-degree forms through Y reappear
    among their degree-t multiples.  A point is killed by them exactly when
    its degree-t evaluation row lies in the row span of Y's, so one echelon
    form of Y's rows reduces the tested rows and the zero rows are kept.
    Tested are ``candidates`` when given, else the whole pool up to the
    full-scan limit (through ``PlaneCurve.pool_evaluation``), else the points
    of X on one form through Y, exact through resultants.  Where Y imposes
    every degree-t condition the stage is all of X: ``candidates`` or the pool.
    """
    if t < 0:
        return _candidate_points(X, candidates)
    if Y.size == 0:
        return ()
    reduced, pivots = modlin.rref(evaluation_matrix(Y.points, t, Y.p), Y.p)
    if len(pivots) == reduced.shape[1]:
        return _candidate_points(X, candidates)
    if candidates is None and X.p <= SMALL_FIELD_SCAN:
        pts, rows = X.pool_evaluation(t)
    else:
        if candidates is None:
            pts = _section_through(X, t, modlin.rref_kernel(reduced, pivots, X.p))
        else:
            pts = _candidate_points(X, candidates)
        rows = evaluation_matrix(pts, t, X.p)
    return tuple(compress(pts, ~modlin.reduce_rows(rows, reduced, pivots, X.p).any(axis=1)))


def _section_through(X: PlaneCurve, t: int, forms: np.ndarray) -> tuple[ProjPoint, ...]:
    """Rational points of X on the first of the degree-t ``forms`` through Y
    that meets X properly, exactly; the pool, sorted, when every such form
    vanishes on all of X (multiples of the curve itself)."""
    for row in forms:
        try:
            g = curve_from_vector(X.p, t, row)
            return section_points(X, g, require_transverse=False).points
        except GeometryError:
            continue  # a form sharing a component with X
    return tuple(sorted(point_pool(X, 600)))


def addable_points(
    X: PlaneCurve, Y: PointGroup, level: int, candidates: Iterable[ProjPoint] | None = None
) -> tuple[ProjPoint, ...]:
    """All candidate points whose addition raises an entry up to ``level``.

    These are the points separated from Y exactly in degree ``level - 1``:
    inside the filtration at ``level - 2`` but outside it at ``level - 1``.
    """
    return _witnesses(X, Y, measure_rcs(X, Y), level, candidates)


def _witnesses(
    X: PlaneCurve,
    Y: PointGroup,
    rel: RelCharSeq,
    level: int,
    candidates: Iterable[ProjPoint] | None = None,
) -> tuple[ProjPoint, ...]:
    # ``addable_points`` for a group whose measured sequence ``rel`` is known
    if not _raises(rel, level):
        return ()
    # the stages are nested: the one at ``level - 1`` is among outer's points
    outer = filtration_points(X, Y, level - 2, candidates)
    inner = set(filtration_points(X, Y, level - 1, outer))
    return tuple(q for q in outer if q not in inner)


def _raises(rel: RelCharSeq, level: int) -> bool:
    # whether a point added at ``level`` keeps the sequence admissible
    try:
        add_case(rel, level)
    except DomainError:
        return False
    return True


def can_add_at_level(
    X: PlaneCurve, Y: PointGroup, level: int, candidates: Iterable[ProjPoint] | None = None
) -> ProjPoint | None:
    """Witness point for a case addition at ``level``, or None.

    The witness returned is the minimum in coordinate order, so the result
    does not depend on scan order or thread count.
    """
    options = addable_points(X, Y, level, candidates)
    return min(options) if options else None


def _reduction_levels(target: Sequence[int]) -> tuple[list[int], list[int]]:
    """Strip plateaus from the target; returns (staircase, levels to re-add).

    Each step lowers the first entry that starts a plateau; re-adding boxes
    at the recorded values in reverse order rebuilds the target.
    """
    seq = list(target)
    levels: list[int] = []
    while True:
        j = next((i for i in range(len(seq) - 1) if seq[i + 1] == seq[i]), None)
        if j is None:
            return seq, levels
        levels.append(seq[j])
        seq[j] -= 1


def enumerate_admissible(d: int, max_degree: int) -> Iterator[tuple[int, ...]]:
    """Every admissible sequence of length d with degree at most max_degree."""
    if d < 1:
        raise DomainError("d must be >= 1")

    def extend(prefix: list[int], degree: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == d:
            yield tuple(prefix)
            return
        i = len(prefix)
        for step in (0, 1):
            nxt = prefix[-1] + step
            cost = nxt - i
            if cost < 0 or degree + cost > max_degree:
                continue
            yield from extend(prefix + [nxt], degree + cost)

    for n0 in range(max_degree + 1):
        yield from extend([n0], n0)


DFS_BUDGET = 600  # search nodes per realize attempt
ATTEMPTS = 3  # realize attempts, each on a fresh base section and witness order


def realize(X: PlaneCurve, target: Sequence[int], seed: int = 0) -> PointGroup:
    """Construct a point group on X whose measured sequence equals ``target``.

    The target is stripped to its staircase base (realized by a transverse
    section, or the empty group), then rebuilt one point at a time through
    the filtration witnesses.  Each of the ``ATTEMPTS`` re-randomizes both
    the base section and the witness choices; exhaustion raises
    GeometryError saying how many attempts and search nodes it spent.
    """
    goal = tuple(int(v) for v in target)
    if len(goal) != X.degree:
        raise DomainError(f"target length {len(goal)} does not match curve degree {X.degree}")
    if not is_admissible(goal):
        raise DomainError(f"inadmissible target {goal}")
    staircase, levels = _reduction_levels(goal)
    base_degree = staircase[0]
    nodes = 0
    last_error = "no witness available"
    for attempt in range(ATTEMPTS):
        rng = random.Random(fold_seed(seed, attempt, 40699))
        budget = [DFS_BUDGET]
        try:
            pts = split_section(X, base_degree, rng.randrange(2**30))[1] if base_degree else ()
            Y = point_group(X.p, pts, X)
            found = Y
            if levels:  # the base is measured once; the search carries the sequence on
                held = _PoolResiduals.of(X, Y, levels) if X.p <= SMALL_FIELD_SCAN else None
                found = _realize_dfs(X, Y, measure_rcs(X, Y), levels[::-1], rng, budget, held)
        except GeometryError as err:
            last_error = str(err)
            continue
        finally:
            nodes += DFS_BUDGET - budget[0]
        if found is not None and measure_rcs(X, found).entries == goal:
            return found
        last_error = "no rational witness chain reached the target"
    raise GeometryError(
        f"realization search exhausted for target {goal} after {ATTEMPTS} attempts and "
        f"{nodes} search nodes (budget {DFS_BUDGET} per attempt): {last_error} "
        "(try a different seed or a larger modulus)"
    )


def _realize_dfs(
    X: PlaneCurve,
    Y: PointGroup,
    rel: RelCharSeq,
    levels: list[int],
    rng: random.Random,
    budget: list[int],
    held: _PoolResiduals | None,
) -> PointGroup | None:
    # Depth-first over witness choices: a witness that exists over the
    # closure may be irrational, so a greedy chain can die and another
    # branch must be tried.  ``rel`` is Y's measured sequence: a witness at
    # ``level`` raises the one entry ``add_case`` raises, so every child's
    # sequence is known without measuring it.  ``held`` is Y's pool
    # residuals where the search holds them, and each child gets its own.
    if not levels:
        return Y
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    level, rest = levels[0], levels[1:]
    options = list(_node_witnesses(X, Y, rel, level, held))
    rng.shuffle(options)
    grown = add_case(rel, level) if options else rel
    for q in options:
        child = None if held is None else held.add(q, rest)
        result = _realize_dfs(X, Y.union([q]), grown, rest, rng, budget, child)
        if result is not None:
            return result
    return None


def _node_witnesses(
    X: PlaneCurve, Y: PointGroup, rel: RelCharSeq, level: int, held: _PoolResiduals | None
) -> tuple[ProjPoint, ...]:
    # one search node's witnesses at ``level``: read off the held residuals,
    # else a fresh witness set through Y
    if held is None:
        return _witnesses(X, Y, rel, level)
    return held.witnesses(level) if _raises(rel, level) else ()


def _degrees(levels: Iterable[int]) -> list[int]:
    # the filtration degrees that witnesses at ``levels`` are read from
    return sorted({t for level in levels for t in (level - 1, level - 2) if t >= 0})


@dataclass(frozen=True, eq=False)
class _PoolResiduals:
    """The realization search's state at p <= SMALL_FIELD_SCAN.

    For each degree t in ``rows``, R_t is the pool's degree-t evaluation
    matrix (``PlaneCurve.pool_evaluation``) reduced against the degree-t
    rows of the current group Y, so a pool point is in the degree-t
    filtration of Y exactly when its row of R_t is zero; for t < 0 every
    row counts as zero.  The state starts from the pool matrices (those of
    the empty group) and grows by ``add``, base points and witnesses alike.
    The arrays are never written in place, so a child state shares or
    replaces them and its parent survives backtracking.
    """

    p: int
    index: dict[ProjPoint, int]  # each pool point's row, in pool order
    rows: dict[int, np.ndarray]

    @classmethod
    def of(cls, X: PlaneCurve, Y: PointGroup, levels: Iterable[int]) -> "_PoolResiduals":
        """Y's residuals in every degree that witnesses at ``levels`` need:
        the pool matrices, with Y's points added one at a time."""
        index = {q: i for i, q in enumerate(point_pool(X, 600))}
        held = cls(X.p, index, {t: X.pool_evaluation(t)[1] for t in _degrees(levels)})
        for q in Y.points:
            held = held.add(q, levels)
        return held

    def _inside(self, t: int) -> np.ndarray:
        # which pool points lie in the degree-t filtration
        if t < 0:
            return np.ones(len(self.index), dtype=bool)
        return ~self.rows[t].any(axis=1)

    def witnesses(self, level: int) -> tuple[ProjPoint, ...]:
        """Pool points, in pool order, inside the filtration at ``level - 2``
        and outside it at ``level - 1``."""
        return tuple(compress(self.index, self._inside(level - 2) & ~self._inside(level - 1)))

    def add(self, q: ProjPoint, levels: Iterable[int]) -> "_PoolResiduals":
        """The residuals of Y + q in the degrees ``levels`` need.  With r
        the row of q, scaled to 1 at its first nonzero column c, each R_t
        becomes R_t - R_t[:, c] (x) r, one rank-1 update; where r is zero,
        q is in the span already and R_t is shared."""
        i, p = self.index[q], self.p
        grown = {}
        for t in _degrees(levels):
            rows = self.rows[t]
            nonzero = np.flatnonzero(rows[i])
            if nonzero.size:
                c = int(nonzero[0])
                r = rows[i] * pow(int(rows[i, c]), -1, p) % p
                rows = (rows - np.outer(rows[:, c], r)) % p
            grown[t] = rows
        return _PoolResiduals(p, self.index, grown)


@dataclass(frozen=True)
class ScanTrial:
    degree: int
    measured: tuple[int, ...]
    dominated: bool
    disagreement_connex: bool


@dataclass(frozen=True)
class ScanReport:
    curve_degree: int
    section_degree: int
    trials: tuple[ScanTrial, ...]
    violations: int


def conjecture_scan(X: PlaneCurve, s: int, trials: int, seed: int = 0) -> ScanReport:
    """Empirical scan of section-domination for random groups of degree s*d.

    For each trial group Y the Hilbert values are compared pointwise with
    the degree-s section's; the scan records domination failures and any
    non-connex disagreement set.  On a plane curve both properties are
    theorems, so the scan doubles as an end-to-end check of the machinery.
    """
    if s < 1 or trials < 0:
        raise DomainError("need s >= 1 and trials >= 0")
    d = X.degree
    section = minimal_delta_seq(d, s * d)  # r = 0: the full section staircase
    top = s + d
    out = []
    violations = 0
    for k in range(trials):
        Y = random_points_on_curve(X, s * d, fold_seed(seed, k, 5077))
        rel = measure_rcs(X, Y)
        diffs = [phi_rel(rel, l) - phi_rel(section, l) for l in range(top + 1)]
        dominated = all(v >= 0 for v in diffs)
        support = [l for l, v in enumerate(diffs) if v != 0]
        connex = not support or support == list(range(support[0], support[-1] + 1))
        if not (dominated and connex):
            violations += 1
        out.append(ScanTrial(s * d, rel.entries, dominated, connex))
    return ScanReport(d, s, tuple(out), violations)
