"""Linear systems of maximal dimension on a plane curve.

The degree alpha of a point group decomposes as alpha = s*d - r with
0 <= r < d; the dimension of any complete linear system of that degree is
bounded by r(alpha), and groups attaining the bound carry one of two
geometric certificates: they sit inside a degree-s section (as the residual
of r points) or they contain a full degree-(s-1) section.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .constructions import curve_from_vector, curves_through
from .errors import DomainError, GeometryError
from .liaison import RelCharSeq, _decompose, minimal_delta_seq, phi_rel, rel_degree
from .pointlab import (
    PlaneCurve,
    PointGroup,
    dim_linear_system,
    measure_rcs,
    section_points,
)

CASE_RESIDUAL = "residual-of-r-points-in-degree-s-section"
CASE_CONTAINS = "contains-degree-(s-1)-section"
CASE_EITHER = "either-boundary-case"
CASE_LARGE = "large-degree-regime"

SECTION_TRIALS = 4000  # point subsets find_contained_section fits a curve through


def r_alpha(d: int, alpha: int) -> int:
    """Maximal dimension of a complete linear system of degree alpha.

    For s >= d - 2 every system has dimension alpha - (d-1)(d-2)/2; below
    that the bound is s(s+3)/2 - r for r <= s+1 and (s-1)(s+2)/2 for
    r >= s+1 (the branches agree on the overlap).
    """
    s, r = _decompose(alpha, d)
    if s >= d - 2:
        return alpha - (d - 1) * (d - 2) // 2
    if r <= s + 1:
        return s * (s + 3) // 2 - r
    return (s - 1) * (s + 2) // 2


@dataclass(frozen=True)
class EqualPhiVerdict:
    """Outcome of the equal-Hilbert-value analysis at one degree."""

    case: str  # "tail", "head", or "either"
    head_agrees: bool  # n_t equals the minimal sequence for t <= d-r-1
    tail_agrees: bool  # n_t equals the minimal sequence for t >= d-r
    holds: bool  # the agreement predicted by the case was observed
    vacuous: bool  # the equality hypothesis carries no information here
    delta_entries: tuple[int, ...]


def classify_equal_phi(rel: RelCharSeq, d: int, alpha: int, i: int) -> EqualPhiVerdict:
    """Where a group whose Hilbert value ties the minimal sequence must agree
    with it.

    The hypothesis is phi_Y(i) = phi_Delta(i) for some i with
    s <= i <= s+d-3; depending on the position of i relative to s+d-r-2 the
    head (indices <= d-r-1) or the tail (indices >= d-r) of the sequence is
    forced onto the minimal one, with both options open on the boundary.
    At i = s+d-3 with r > 0 the equality holds for every group and the
    verdict is flagged vacuous.
    """
    if rel.d != d:
        raise DomainError(f"sequence has degree {rel.d}, not d={d}")
    if rel_degree(rel) != alpha:
        raise DomainError(f"sequence has total degree {rel_degree(rel)}, not alpha={alpha}")
    s, r = _decompose(alpha, d)
    if not (s <= i <= s + d - 3):
        raise DomainError(f"hypothesis fails: i={i} outside [{s}, {s + d - 3}]")
    delta = minimal_delta_seq(d, alpha)
    if phi_rel(rel, i) != phi_rel(delta, i):
        raise DomainError(f"hypothesis fails: phi_Y({i}) != phi_Delta({i})")
    n = rel.entries
    dn = delta.entries
    head_agrees = all(n[t] == dn[t] for t in range(0, max(d - r, 0)))
    tail_agrees = all(n[t] == dn[t] for t in range(max(d - r, 0), d))
    if i >= s + d - r - 1:
        case, holds = "tail", tail_agrees
    elif i <= s + d - r - 3:
        case, holds = "head", head_agrees
    else:
        case, holds = "either", head_agrees or tail_agrees
    vacuous = r > 0 and i == s + d - 3
    return EqualPhiVerdict(case, head_agrees, tail_agrees, holds, vacuous, dn)


@dataclass(frozen=True)
class MaxSysVerdict:
    alpha: int
    s: int
    r: int
    case: str
    dimension: int
    certificate: dict


def classify_maximal(X: PlaneCurve, Y: PointGroup, seed: int = 0) -> MaxSysVerdict:
    """Classify a group whose linear system attains the dimension bound.

    Certificates are sequence equalities re-checked by rank: case (i)
    produces the degree-s curve through Y (its section contains Y), case
    (ii) checks agreement of the sequence tail with the minimal one and, at
    small degree, hunts for the contained section explicitly.
    """
    d = X.degree
    alpha = Y.size
    if alpha == 0:
        raise DomainError("cannot classify the empty group")
    s, r = _decompose(alpha, d)
    dim = dim_linear_system(X, Y)
    if s >= d - 2:
        return MaxSysVerdict(alpha, s, r, CASE_LARGE, dim, {"flat_dimension": dim})
    bound = r_alpha(d, alpha)
    if dim != bound:
        raise DomainError(f"not maximal: dim |Y| = {dim} < r(alpha) = {bound}")
    rel = measure_rcs(X, Y)
    delta = minimal_delta_seq(d, alpha)
    certificate: dict = {"measured": list(rel.entries), "minimal": list(delta.entries)}

    def residual_certificate() -> bool:
        if rel.entries[0] != s:
            return False
        witness = _curve_through_group(X, Y, s)
        if witness is None:
            return False
        certificate["containing_curve_degree"] = s
        certificate["containing_curve"] = [list(t) for t in witness.terms]
        return True

    def contains_certificate() -> bool:
        if any(rel.entries[t] != delta.entries[t] for t in range(d - r, d)):
            return False
        certificate["tail_agreement_from"] = d - r
        if d <= 6:
            section_curve = find_contained_section(X, Y, s - 1, seed=seed)
            if section_curve is not None:
                certificate["contained_section_degree"] = s - 1
                certificate["contained_section"] = [list(t) for t in section_curve.terms]
        return True

    if r <= s:
        if not residual_certificate():
            raise GeometryError("maximal group fails its residual certificate")
        return MaxSysVerdict(alpha, s, r, CASE_RESIDUAL, dim, certificate)
    if r >= s + 2:
        if not contains_certificate():
            raise GeometryError("maximal group fails its contained-section certificate")
        return MaxSysVerdict(alpha, s, r, CASE_CONTAINS, dim, certificate)
    got_residual = residual_certificate()
    got_contains = contains_certificate()
    if not (got_residual or got_contains):
        raise GeometryError("boundary-case maximal group fails both certificates")
    certificate["residual_certificate"] = got_residual
    certificate["contains_certificate"] = got_contains
    return MaxSysVerdict(alpha, s, r, CASE_EITHER, dim, certificate)


def _curve_through_group(X: PlaneCurve, Y: PointGroup, degree: int) -> PlaneCurve | None:
    """A degree-``degree`` curve through every point of Y, proper against X."""
    kernel = curves_through(Y.p, degree, Y.points)
    if kernel.shape[0] == 0:
        return None
    # degree < deg X, so no kernel member can contain the (irreducible) curve
    return curve_from_vector(X.p, degree, kernel[0])


def find_contained_section(
    X: PlaneCurve, Y: PointGroup, degree: int, seed: int = 0
) -> PlaneCurve | None:
    """Search for a degree-``degree`` curve whose full section of X sits in Y.

    Candidate curves are fitted through point subsets of Y large enough to
    pin them down; a hit is verified exactly: the rational section has the
    full Bezout cardinality and is contained in Y.
    """
    if degree < 1 or Y.size < degree * X.degree:
        return None
    need = comb(degree + 2, 2) - 1  # points that generically pin the curve
    pts = list(Y.points)
    if need > len(pts):
        return None
    rng = random.Random(seed)
    if comb(len(pts), need) <= SECTION_TRIALS:
        indices = list(combinations(range(len(pts)), need))
        rng.shuffle(indices)
    else:
        indices = [tuple(rng.sample(range(len(pts)), need)) for _ in range(SECTION_TRIALS)]
    target = set(Y.points)
    for subset in indices:
        chosen = tuple(pts[i] for i in subset)
        kernel = curves_through(Y.p, degree, chosen)
        if kernel.shape[0] != 1:
            continue
        try:
            candidate = curve_from_vector(X.p, degree, kernel[0])
            section = section_points(X, candidate, require_transverse=False)
        except GeometryError:
            continue
        if len(section.points) == degree * X.degree and set(section.points) <= target:
            return candidate
    return None
