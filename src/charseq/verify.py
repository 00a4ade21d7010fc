"""The invariant corpus: every acceptance criterion as a named check.

Each check builds its own seeded corpus, exercises the calculus against the
geometry engine (or against independent enumeration), and reports exact
pass/fail with counts.  The CLI ``verify`` subcommand and the acceptance
test suite both run these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import modlin
from .constructions import (
    fold_seed,
    line_through,
    mixed_random_group,
    multiply_curves,
    random_smooth_curve,
    sextic_with_marked_sections,
    split_section,
)
from .errors import CharseqError, GeometryError
from .liaison import (
    add_section,
    genus_acm_curve,
    halphen_bound,
    link,
    minimal_delta_seq,
    phi_rel,
    rel_degree,
)
from .linsys import CASE_CONTAINS, CASE_EITHER, CASE_RESIDUAL, classify_maximal, r_alpha
from .macaulay import is_zero_sequence, macaulay_next
from .pointlab import (
    PlaneCurve,
    PointGroup,
    dim_linear_system,
    intersect_curves,
    measure_abs,
    measure_rcs,
    point_group,
    point_pool,
    proj_point,
    random_points_on_curve,
)
from .realize import addable_points, can_add_at_level, conjecture_scan, enumerate_admissible, realize
from .seqcalc import (
    CharSeq,
    charseq_from_phi,
    ci_charseq,
    entries_from_widths,
    hilbert_function,
    is_gorenstein_symmetric,
    validate_abs,
)

VERIFY_MODULUS = 10007
SMALL_MODULUS = 101
# corpus sizes: the counts every verify report carries
ROUND_TRIP_MAX_DEGREE, ROUND_TRIP_MAX_CONE_DIM = 12, 4
LIAISON_PARTITIONS = 20
SHIFT_PAIRS = 50
HALPHEN_SAMPLES = 200
REALIZATION_MAX_DEGREE = 10
SCAN_TRIALS = 500


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail, **self.counts}


_CURVES: dict[tuple[int, int], PlaneCurve] = {}


def corpus_curve(p: int, d: int) -> PlaneCurve:
    """Fixed smooth curve fixture for the corpus, one per (modulus, degree)."""
    key = (p, d)
    if key not in _CURVES:
        _CURVES[key] = random_smooth_curve(p, d, seed=fold_seed(p, d, 12))
    return _CURVES[key]


def enumerate_width_vectors(max_degree: int) -> Iterator[tuple[int, ...]]:
    """All connex 0-sequence width vectors with l_0 = 1 and total <= max_degree."""

    def extend(widths: list[int], total: int) -> Iterator[tuple[int, ...]]:
        yield tuple(widths)
        degree = len(widths)
        bound = max_degree - total
        if degree >= 1:
            bound = min(bound, macaulay_next(widths[-1], degree - 1) if degree >= 2 else bound)
        for nxt in range(1, bound + 1):
            yield from extend(widths + [nxt], total + nxt)

    yield from extend([1], 1)


# --- criterion 1 ---


def check_conversion_round_trip() -> CheckResult:
    total = 0
    bad = 0
    sample_fail = ""
    for widths in enumerate_width_vectors(ROUND_TRIP_MAX_DEGREE):
        entries = entries_from_widths(widths)
        for cone_dim in range(1, ROUND_TRIP_MAX_CONE_DIM + 1):
            codim = widths[1] if len(widths) > 1 else 1
            seq = CharSeq(entries, cone_dim, codim)
            back = charseq_from_phi(hilbert_function(seq))
            total += 1
            if back.entries != seq.entries or back.cone_dim != seq.cone_dim or back.codim != seq.codim:
                bad += 1
                if not sample_fail:
                    sample_fail = f"{seq.entries} cone_dim={cone_dim}"
    return CheckResult(
        "conversion_round_trip",
        bad == 0,
        f"{total} sequences round-tripped exactly" if bad == 0 else f"{bad} failures, first {sample_fail}",
        {"total": total, "failures": bad},
    )


# --- criterion 2 ---


def _plane_group(p: int, size: int, style: str, seed: int) -> PointGroup:
    rng = random.Random(seed)

    def fresh_point(existing):
        while True:
            q = proj_point(rng.randrange(p), rng.randrange(p), rng.randrange(p) or 1, p)
            if q not in existing:
                return q

    pts: set = set()
    if style == "aligned" and size >= 3:
        a, b = fresh_point(pts), fresh_point(pts)
        k = rng.randrange(3, min(size, 9) + 1)
        while len(pts) < k:
            t = rng.randrange(p)
            x = tuple((a.coords[i] + t * b.coords[i]) % p for i in range(3))
            if any(x):
                pts.add(proj_point(*x, p))
    elif style == "conic" and size >= 6:
        # rational normal conic through a random projectivity of (t^2 : t : 1)
        mat = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        k = rng.randrange(6, min(size, 10) + 1)
        guard = 0
        while len(pts) < k and guard < 20 * k:
            guard += 1
            t = rng.randrange(p)
            v = (t * t % p, t, 1)
            w = tuple(sum(mat[i][j] * v[j] for j in range(3)) % p for i in range(3))
            if any(w):
                pts.add(proj_point(*w, p))
    while len(pts) < size:
        pts.add(fresh_point(pts))
    return point_group(p, tuple(sorted(pts))[:size])


def check_width_theorem(groups: int = 200) -> CheckResult:
    violations = []
    styles = ("generic", "aligned", "conic")
    for k in range(groups):
        size = 1 + (k * 7) % 25
        style = styles[k % 3]
        group = _plane_group(VERIFY_MODULUS, size, style, fold_seed(2024, k))
        seq = measure_abs(group)
        w = seq.widths
        report = validate_abs(seq)
        # an independent rank of the coordinates, not the measured phi_Y(1)
        span = modlin.rank(group.coords_array(), VERIFY_MODULUS)
        problems = list(report.failures())
        if report.degenerate:
            problems.append("degenerate_vs_span")
        if group.size >= 2 and (len(w) < 2 or w[1] != span - 1):
            problems.append("l1_vs_span_codim")
        if not is_zero_sequence(w, 0, cone_rule=True).ok:
            problems.append("growth")
        if problems:
            violations.append((k, style, seq.entries, problems))
    return CheckResult(
        "width_theorem_on_measured_groups",
        not violations,
        f"{groups} measured plane groups satisfy the width constraints"
        if not violations
        else f"{len(violations)} violations, first: {violations[0]}",
        {"groups": groups, "violations": len(violations)},
    )


# --- criterion 3 ---


def _lines_in_general_position(p: int, k: int, seed: int) -> PlaneCurve:
    rng = random.Random(seed)
    lines = []
    while len(lines) < k:
        a = proj_point(rng.randrange(p), rng.randrange(p), rng.randrange(1, p), p)
        b = proj_point(rng.randrange(p), rng.randrange(p), rng.randrange(1, p), p)
        if a == b:
            continue
        lines.append(line_through(p, a, b))
    out = lines[0]
    for line in lines[1:]:
        out = multiply_curves(out, line)
    return out


def check_complete_intersections() -> CheckResult:
    cases = []
    for d1 in range(2, 5):
        for d2 in range(d1, 5):
            expected = ci_charseq((d1, d2))
            got = None
            for attempt in range(20):
                c1 = _lines_in_general_position(VERIFY_MODULUS, d1, fold_seed(31, d1, d2, attempt))
                c2 = _lines_in_general_position(VERIFY_MODULUS, d2, fold_seed(37, d1, d2, attempt))
                try:
                    pts = intersect_curves(c1, c2, seed=attempt)
                except GeometryError:
                    continue
                if len(pts) != d1 * d2:
                    continue
                got = measure_abs(point_group(c1.p, pts))
                break
            ok = (
                got is not None
                and got.entries == expected.entries
                and got.codim == expected.codim
                and is_gorenstein_symmetric(expected)
                and is_gorenstein_symmetric(got)
            )
            cases.append(((d1, d2), ok))
    bad = [c for c, ok in cases if not ok]
    return CheckResult(
        "complete_intersections",
        not bad,
        "measured CI groups match the monomial-box sequences, all Gorenstein-symmetric"
        if not bad
        else f"failures at {bad}",
        {"cases": len(cases), "failures": len(bad)},
    )


# --- criterion 4 ---


def check_liaison() -> CheckResult:
    failures = []
    total = 0
    for d in (3, 4, 5, 6):
        X = corpus_curve(VERIFY_MODULUS, d)
        for s in (1, 2, 3):
            _, pts = split_section(X, s, seed=fold_seed(41, d, s))
            rng = random.Random(fold_seed(43, d, s))
            for k in range(LIAISON_PARTITIONS):
                size = rng.randrange(0, len(pts) + 1)
                sub = tuple(sorted(rng.sample(pts, size)))
                rest = tuple(sorted(set(pts) - set(sub)))
                rel_y = measure_rcs(X, point_group(X.p, sub, X))
                rel_res = measure_rcs(X, point_group(X.p, rest, X))
                total += 1
                linked = link(rel_y, s)
                if linked.entries != rel_res.entries:
                    failures.append((d, s, k, "link"))
                    continue
                if link(linked, s).entries != rel_y.entries:
                    failures.append((d, s, k, "involution"))
                if rel_degree(rel_y) + rel_degree(rel_res) != s * d:
                    failures.append((d, s, k, "boxes"))
    return CheckResult(
        "liaison_theorem",
        not failures,
        f"{total} random bipartitions linked exactly" if not failures else f"failures: {failures[:3]}",
        {"bipartitions": total, "failures": len(failures)},
    )


# --- criterion 5 ---


def check_section_shift() -> CheckResult:
    failures = 0
    total = 0
    for k in range(SHIFT_PAIRS):
        d = 3 + k % 4
        s = 1 + k % 2
        X = corpus_curve(VERIFY_MODULUS, d)
        _, sec = split_section(X, s, seed=fold_seed(53, k))
        size = 1 + k % 7
        Y = random_points_on_curve(X, size, fold_seed(59, k), avoid=sec)
        rel = measure_rcs(X, Y)
        union = point_group(X.p, Y.points + sec, X)
        total += 1
        if add_section(rel, s).entries != measure_rcs(X, union).entries:
            failures += 1
    return CheckResult(
        "section_shift",
        failures == 0,
        f"{total} disjoint (Y, section) unions match the shift exactly"
        if failures == 0
        else f"{failures} mismatches",
        {"pairs": total, "failures": failures},
    )


# --- criterion 6 ---


def check_minimality_and_halphen() -> CheckResult:
    styles = ("generic", "aligned", "conic", "generic")
    domination_failures = 0
    checked = 0
    k = 0
    while checked < HALPHEN_SAMPLES:
        d = 3 + k % 4
        X = corpus_curve(VERIFY_MODULUS, d)
        alpha = d + (k * 5) % (2 * d + 1)  # d <= alpha <= 3d
        style = styles[k % 4]
        k += 1
        try:
            Y = mixed_random_group(X, alpha, fold_seed(61, k), style=style)
        except GeometryError:
            continue
        rel = measure_rcs(X, Y)
        delta = minimal_delta_seq(d, alpha)
        top = max(rel.entries[-1], delta.entries[-1]) + 1
        if any(phi_rel(rel, l) < phi_rel(delta, l) for l in range(top + 1)):
            domination_failures += 1
        checked += 1

    genus_failures = []
    plane_failures = []
    for d in range(3, 9):
        for alpha in range(d, 4 * d + 1):
            delta = minimal_delta_seq(d, alpha)
            if genus_acm_curve(delta, alpha) != halphen_bound(alpha, d):
                genus_failures.append((d, alpha))
            if alpha == d and halphen_bound(alpha, d) != (d - 1) * (d - 2) // 2:
                plane_failures.append(d)
    ok = domination_failures == 0 and not genus_failures and not plane_failures
    return CheckResult(
        "minimality_and_halphen",
        ok,
        f"{checked} groups dominate the minimal sequence; genus grid matches the bound exactly"
        if ok
        else f"domination failures {domination_failures}, genus {genus_failures[:3]}, plane {plane_failures}",
        {"groups": checked, "domination_failures": domination_failures, "genus_failures": len(genus_failures)},
    )


# --- criterion 7 ---


def check_linear_systems() -> CheckResult:
    problems = []
    section_cases = 0
    for d in (4, 5, 6):
        X = corpus_curve(VERIFY_MODULUS, d)
        for s in range(1, d - 2):
            _, sec = split_section(X, s, seed=fold_seed(67, d, s))
            dim = dim_linear_system(X, point_group(X.p, sec, X))
            section_cases += 1
            if dim != r_alpha(d, s * d):
                problems.append((d, s, "section_dim", dim))

    random_cases = 0
    equality_cases = 0
    for k in range(90):
        d = 4 + k % 3
        X = corpus_curve(VERIFY_MODULUS, d)
        smax = d - 2
        alpha = max(1, (k * 7) % (smax * d))
        try:
            Y = mixed_random_group(X, alpha, fold_seed(71, k), style=("generic", "aligned", "conic")[k % 3])
        except GeometryError:
            continue
        dim = dim_linear_system(X, Y)
        bound = r_alpha(d, alpha)
        random_cases += 1
        if dim > bound:
            problems.append((d, alpha, "bound_exceeded", dim))
        elif dim == bound:
            equality_cases += 1
            try:
                classify_maximal(X, Y, seed=k)
            except CharseqError as err:
                problems.append((d, alpha, "certificate", str(err)))

    # engineered equality cases hitting each verdict
    X6 = corpus_curve(VERIFY_MODULUS, 6)
    _, sec12 = split_section(X6, 2, seed=fold_seed(73, 6))
    for r in (0, 1, 2):
        Y = point_group(X6.p, tuple(sorted(sec12))[r:], X6)
        verdict = classify_maximal(X6, Y, seed=r)
        if verdict.case_tag != CASE_RESIDUAL:
            problems.append(("case_i", r, verdict.case_tag))
    # boundary r = s+1: drop three points lying on one line of the section
    line_of, pts_of = split_section(X6, 1, seed=fold_seed(79, 6))
    other, pts_other = split_section(X6, 1, seed=fold_seed(83, 6), avoid=frozenset(pts_of))
    section2 = pts_of + pts_other
    Y_boundary = point_group(X6.p, tuple(sorted(set(section2) - set(pts_of[:3]))), X6)
    verdict = classify_maximal(X6, Y_boundary, seed=0)
    if verdict.case_tag != CASE_EITHER:
        problems.append(("case_iii", verdict.case_tag))
    # case ii: a full line section plus generic extras (r = 4 >= s+2 at alpha=8)
    extra = random_points_on_curve(X6, 2, fold_seed(89, 6), avoid=pts_of)
    Y_contains = point_group(X6.p, pts_of + extra.points, X6)
    verdict = classify_maximal(X6, Y_contains, seed=0)
    if verdict.case_tag != CASE_CONTAINS or "contained_section" not in verdict.certificate:
        problems.append(("case_ii", verdict.case_tag))

    return CheckResult(
        "linear_system_bounds",
        not problems,
        f"{section_cases} sections at the exact bound, {random_cases} random groups under it "
        f"({equality_cases} equality cases certified)"
        if not problems
        else f"problems: {problems[:4]}",
        {"sections": section_cases, "random": random_cases, "equalities": equality_cases, "problems": len(problems)},
    )


# --- criterion 8 ---


def check_sextic_remark() -> CheckResult:
    cfg = sextic_with_marked_sections(VERIFY_MODULUS, seed=0)
    X = cfg.curve
    special = set(cfg.line_points) | set(cfg.conic_points)
    aligned5 = tuple(sorted(cfg.line_points))[:5]
    gen4 = random_points_on_curve(X, 4, fold_seed(97, 1), avoid=special)
    group_a = point_group(X.p, aligned5 + gen4.points, X)
    conic8 = tuple(sorted(cfg.conic_points))[:8]
    gen1 = random_points_on_curve(X, 1, fold_seed(97, 2), avoid=special)
    group_b = point_group(X.p, conic8 + gen1.points, X)
    pool = tuple(sorted(set(point_pool(X, 300)) | special))

    expected = (3, 3, 4, 4, 5, 5)
    problems = []
    rel_a = measure_rcs(X, group_a)
    rel_b = measure_rcs(X, group_b)
    if rel_a.entries != expected:
        problems.append(("scr_a", rel_a.entries))
    if rel_b.entries != expected:
        problems.append(("scr_b", rel_b.entries))
    if can_add_at_level(X, group_a, 5, candidates=pool) is not None:
        problems.append(("five_aligned_addition_possible",))
    witness = can_add_at_level(X, group_b, 5, candidates=pool)
    leftovers = set(cfg.conic_points) - set(conic8)
    if witness is None or witness not in leftovers:
        problems.append(("conic_witness", witness))
    else:
        after = measure_rcs(X, group_b.union([witness]))
        if after.entries != (3, 3, 4, 5, 5, 5):
            problems.append(("post_addition", after.entries))
        options = addable_points(X, group_b, 5, candidates=pool)
        if set(options) != leftovers:
            problems.append(("witness_set", len(options)))
    return CheckResult(
        "sextic_remark",
        not problems,
        "both nine-point configurations measure (3,3,4,4,5,5); the level-5 addition is "
        "impossible from the aligned one and lands on the four leftover conic points from the other"
        if not problems
        else f"problems: {problems}",
        {"problems": len(problems)},
    )


# --- criterion 9 ---


def check_realization() -> CheckResult:
    failures = []
    total = 0
    for d in (4, 5):
        X = corpus_curve(SMALL_MODULUS, d)
        for target in sorted(set(enumerate_admissible(d, REALIZATION_MAX_DEGREE))):
            total += 1
            try:
                Y = realize(X, target, seed=0)
            except GeometryError as err:
                failures.append((d, target, str(err)))
                continue
            if measure_rcs(X, Y).entries != target:
                failures.append((d, target, "measured off target"))
    return CheckResult(
        "realization_theorem",
        not failures,
        f"all {total} admissible targets realized and re-measured exactly"
        if not failures
        else f"{len(failures)} failures, first {failures[0]}",
        {"targets": total, "failures": len(failures)},
    )


# --- criterion 10 ---


def check_conjecture_scanner() -> CheckResult:
    grid = ((4, 1), (4, 2), (5, 1), (5, 2), (6, 1))
    per = SCAN_TRIALS // len(grid)
    violations = 0
    ran = 0
    for d, s in grid:
        X = corpus_curve(VERIFY_MODULUS, d)
        report = conjecture_scan(X, s, per, seed=fold_seed(101, d, s))
        violations += report.violations
        ran += len(report.trials)
    return CheckResult(
        "conjecture_scanner",
        violations == 0,
        f"{ran} trials, zero domination/connexity violations"
        if violations == 0
        else f"{violations} violations in {ran} trials",
        {"trials": ran, "violations": violations},
    )


ALL_CHECKS: dict[str, Callable[[], CheckResult]] = {
    "conversion_round_trip": check_conversion_round_trip,
    "width_theorem": check_width_theorem,
    "complete_intersections": check_complete_intersections,
    "liaison_theorem": check_liaison,
    "section_shift": check_section_shift,
    "minimality_and_halphen": check_minimality_and_halphen,
    "linear_system_bounds": check_linear_systems,
    "sextic_remark": check_sextic_remark,
    "realization_theorem": check_realization,
    "conjecture_scanner": check_conjecture_scanner,
}


def run_all(names: list[str] | None = None) -> list[CheckResult]:
    selected = names or list(ALL_CHECKS)
    out = []
    for name in selected:
        if name not in ALL_CHECKS:
            raise CharseqError(f"unknown check {name!r}; known: {', '.join(ALL_CHECKS)}")
        out.append(ALL_CHECKS[name]())
    return out
