"""Seeded builders for the geometric corpus.

Fully split sections, curves through prescribed points, and the marked
sextic configuration.  Every builder is deterministic given its seed and
retries internally against the usual genericity failures (tangent lines,
irrational residual roots, singular members).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import modlin
from .errors import GeometryError
from .pointlab import (
    SMALL_FIELD_SCAN,
    PlaneCurve,
    PointGroup,
    ProjPoint,
    cross,
    evaluation_matrix,
    intersect_curves,
    is_singular_point,
    line_coefficients,
    line_point,
    line_points_on_curve,
    meets_transversally,
    monomial_basis,
    multiply_curves,
    plane_curve,
    point_group,
    point_pool,
    proj_point,
    random_points_on_curve,
    random_proj_point,
)


def fold_seed(*parts: int) -> int:
    """Deterministic seed derivation that never touches salted hashing."""
    acc = 0x9E3779B9
    for v in parts:
        acc = (acc * 1000003 + (int(v) & 0xFFFFFFFFFFFF)) % (2**63)
    return acc


def fermat_curve(p: int, d: int) -> PlaneCurve:
    return plane_curve(p, {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1})


def line_through(p: int, a: ProjPoint, b: ProjPoint) -> PlaneCurve:
    """The unique line through two distinct points (cross product coefficients)."""
    coeffs = cross(a.coords, b.coords, p)
    if not any(coeffs):
        raise GeometryError("points coincide; no unique line")
    return plane_curve(p, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs)))


def curve_from_vector(p: int, d: int, vec) -> PlaneCurve:
    basis = monomial_basis(d)
    coeffs = {e: int(c) % p for e, c in zip(basis, vec) if int(c) % p}
    if not coeffs:
        raise GeometryError("zero coefficient vector")
    return plane_curve(p, coeffs)


def curves_through(p: int, d: int, points: tuple[ProjPoint, ...]) -> np.ndarray:
    """Kernel basis (rows = coefficient vectors) of degree-d forms through the points."""
    if not points:
        n = len(monomial_basis(d))
        return np.eye(n, dtype=np.int64)
    mat = evaluation_matrix(points, d, p)
    return modlin.kernel_basis(mat, p)


def random_curve_through(
    p: int, d: int, points: tuple[ProjPoint, ...], seed: int
) -> PlaneCurve:
    """A pseudorandom degree-d curve through the given points."""
    basis = curves_through(p, d, points)
    if basis.shape[0] == 0:
        raise GeometryError(f"no degree-{d} curve passes through all {len(points)} points")
    rng = random.Random(seed)
    for _ in range(64):
        combo = np.array([rng.randrange(p) for _ in range(basis.shape[0])], dtype=np.int64)
        vec = modlin.matmul(combo, basis, p)
        if np.any(vec):
            return curve_from_vector(p, d, vec)
    raise GeometryError("could not draw a nonzero curve from the kernel")


SMOOTH_SAMPLES = 16  # pool points random_smooth_curve checks
SPLIT_LINE_TRIES = 400  # lines split_line draws before it gives up


def random_smooth_curve(p: int, d: int, seed: int) -> PlaneCurve:
    """A random degree-d curve whose sampled rational points are all smooth.

    Smoothness is checked at up to SMOOTH_SAMPLES pool points (nonvanishing
    partials), which is the working notion of a smooth irreducible member
    here; curves with fewer than four rational points or a singular sample
    are redrawn.
    """
    for attempt in range(64):
        curve = random_curve_through(p, d, (), seed * 64 + attempt)
        pool = point_pool(curve, SMOOTH_SAMPLES)
        if len(pool) >= 4 and all(curve.pool.smooth[q] for q in pool[:SMOOTH_SAMPLES]):
            return curve
    raise GeometryError(f"no smooth-looking degree-{d} curve found over p={p}")


def split_line(
    X: PlaneCurve, seed: int, avoid: frozenset[ProjPoint] = frozenset()
) -> tuple[PlaneCurve, tuple[ProjPoint, ...]]:
    """A line meeting X in deg(X) distinct smooth rational points, none in ``avoid``.

    Random lines through two rational points of X are redrawn until the
    residual degree splits completely over the field.  For p <= SMALL_FIELD_SCAN
    each line's points are read from the curve's exact table of d-point
    lines (``PlaneCurve.split_lines``), and an empty table raises at once.
    """
    d = X.degree
    pool = X.smooth_pool
    if len(pool) < 2:
        raise GeometryError("not enough smooth rational points to anchor a line")
    table = X.split_lines if X.p <= SMALL_FIELD_SCAN else None
    if table is not None and not table.split:
        raise GeometryError(
            f"no fully split line exists on this degree-{d} curve: none of the "
            f"{table.lines} distinct lines through pairs of its {table.points} rational "
            f"points holds exactly {d} of them"
        )
    rng = random.Random(seed)
    lines = set()
    for _ in range(SPLIT_LINE_TRIES):
        a, b = rng.sample(pool, 2)
        line_key = proj_point(*cross(a.coords, b.coords, X.p), X.p)
        lines.add(line_key)
        pts = line_points_on_curve(X, a, b) if table is None else table.split.get(line_key, ())
        if len(pts) != d:
            continue
        if any(q in avoid for q in pts):
            continue
        line = line_through(X.p, a, b)
        # simple points only: no tangency and no singular point on the line.
        # For d <= p the line is no component (that holds p + 1 > d points),
        # so by Bezout its d distinct meetings are simple and the test cannot
        # fail; for d > p a component line can hold exactly d = p + 1 points.
        if d > X.p and not meets_transversally(X, line, pts):
            continue
        return line, pts
    raise GeometryError(
        f"no fully split line found on this degree-{d} curve in {SPLIT_LINE_TRIES} tries: "
        f"{len(lines)} distinct lines through pairs of its {len(pool)} smooth pool points; "
        "try another seed"
    )


def split_section(
    X: PlaneCurve, s: int, seed: int, avoid: frozenset[ProjPoint] = frozenset()
) -> tuple[PlaneCurve, tuple[ProjPoint, ...]]:
    """A degree-s curve H meeting X transversally in s*deg(X) rational points.

    Built as a union of s fully split lines whose mutual crossings stay off
    X, which keeps the section reduced.  Returns (H, section points).
    """
    if s < 1:
        raise GeometryError("section degree must be >= 1")
    for attempt in range(40):
        rng = random.Random(fold_seed(seed, attempt, 71))
        banned = set(avoid)
        lines: list[PlaneCurve] = []
        points: list[ProjPoint] = []
        ok = True
        for i in range(s):
            try:
                line, pts = split_line(X, rng.randrange(2**30), frozenset(banned))
            except GeometryError:
                if X.p <= SMALL_FIELD_SCAN and not X.split_lines.split:
                    raise  # proven: no split line exists, so no retry can help
                ok = False
                break
            lines.append(line)
            points.extend(pts)
            banned.update(pts)
        if not ok:
            continue
        if s > 1 and _lines_cross_on_curve(X, lines):
            continue
        H = lines[0]
        for line in lines[1:]:
            H = multiply_curves(H, line)
        return H, tuple(sorted(points))
    raise GeometryError(f"no transverse degree-{s} section found; try another seed")


def _lines_cross_on_curve(X: PlaneCurve, lines) -> bool:
    """Whether two of the distinct lines cross at a point of X; two lines
    cross at the cross product of their coefficient vectors."""
    return any(
        X.contains(proj_point(*cross(line_coefficients(a), line_coefficients(b), X.p), X.p))
        for a, b in combinations(lines, 2)
    )


def aligned_points_on_curve(X: PlaneCurve, k: int, seed: int) -> tuple[ProjPoint, ...]:
    """k distinct smooth rational collinear points of X."""
    d = X.degree
    if k > d:
        raise GeometryError(f"a line meets a degree-{d} curve in at most {d} points")
    pool = X.smooth_pool
    rng = random.Random(seed)
    for _ in range(400):
        a, b = rng.sample(pool, 2)
        pts = [q for q in line_points_on_curve(X, a, b) if not is_singular_point(X, q)]
        if len(pts) >= k:
            return tuple(sorted(rng.sample(pts, k)))
    raise GeometryError("no line with enough rational curve points found")


_STYLE_CODES = {"generic": 1, "aligned": 2, "conic": 3}


def mixed_random_group(X: PlaneCurve, size: int, seed: int, style: str = "generic") -> PointGroup:
    """Corpus group of the requested size: generic points, or a mix with an
    aligned block ('aligned') or a block on a conic section ('conic')."""
    if style not in _STYLE_CODES:
        raise GeometryError(f"unknown corpus style {style!r}")
    rng = random.Random(fold_seed(seed, _STYLE_CODES[style], size))
    if style == "generic" or size <= 2:
        return random_points_on_curve(X, size, rng.randrange(2**30))
    if style == "aligned":
        k = min(X.degree, max(3, size // 2), size)
        block = aligned_points_on_curve(X, k, rng.randrange(2**30))
        rest = random_points_on_curve(
            X, size - k, rng.randrange(2**30), avoid=block
        )
        return point_group(X.p, block + rest.points, X)
    block = _conic_block(X, min(size, 6), rng.randrange(2**30))
    rest = random_points_on_curve(X, size - len(block), rng.randrange(2**30), avoid=block)
    return point_group(X.p, block + rest.points, X)


def _conic_block(X: PlaneCurve, k: int, seed: int) -> tuple[ProjPoint, ...]:
    # Up to k smooth rational points of X on one conic: anchor a conic on
    # five curve points and harvest further rational intersections.
    rng = random.Random(seed)
    anchor = random_points_on_curve(X, 5, rng.randrange(2**30)).points
    for attempt in range(40):
        try:
            conic = random_curve_through(X.p, 2, anchor, rng.randrange(2**30))
            common = intersect_curves(X, conic, seed=attempt)
        except GeometryError:
            anchor = random_points_on_curve(X, 5, rng.randrange(2**30)).points
            continue
        usable = [q for q in common if not is_singular_point(X, q)]
        if len(usable) >= k:
            return tuple(sorted(usable[:k]))
        if curves_through(X.p, 2, anchor).shape[0] == 1:
            break  # the anchor pins the conic, so every retry meets X the same way
    # fall back to the anchor itself (five points always sit on a conic)
    return tuple(sorted(anchor[: min(k, 5)]))


@dataclass(frozen=True)
class SexticConfig:
    """A sextic with a fully rational line section and conic section.

    ``line_points`` are the six collinear curve points, ``conic_points`` the
    twelve on the marked conic; both sections are transverse and smooth on
    the curve.
    """

    curve: PlaneCurve
    line_points: tuple[ProjPoint, ...]
    conic_points: tuple[ProjPoint, ...]


def sextic_with_marked_sections(p: int, seed: int) -> SexticConfig:
    """Build a sextic through 12 chosen points of a conic and 5 of a line.

    Both marked sections are then forced fully rational: the sixth point of
    the line section is the remaining root of a degree-6 restriction that
    already has five rational roots, and the conic section is pinned to the
    twelve chosen points by the degree count.
    """
    for attempt in range(200):
        sub = random.Random(fold_seed(seed, attempt, 977))
        try:
            config = _try_sextic(p, sub)
        except GeometryError:
            continue
        if config is not None:
            return config
    raise GeometryError("no usable marked sextic found; try another seed")


def _try_sextic(p: int, rng: random.Random) -> SexticConfig | None:
    # random conic through 5 random plane points; its rational points are
    # harvested with random lines
    base_pts = []
    while len(base_pts) < 5:
        q = random_proj_point(rng, p)
        if q not in base_pts:
            base_pts.append(q)
    try:
        conic = random_curve_through(p, 2, tuple(base_pts), rng.randrange(2**30))
    except GeometryError:
        return None
    conic_pool = point_pool(conic, 40)
    if len(conic_pool) < 14:
        return None
    conic_pts = sorted(random.Random(rng.randrange(2**30)).sample(sorted(conic_pool), 12))

    line_anchor = (random_proj_point(rng, p), random_proj_point(rng, p))
    if line_anchor[0] == line_anchor[1]:
        return None
    line = line_through(p, *line_anchor)
    idx = random.Random(rng.randrange(2**30)).sample(range(p + 1), 5)
    line_pts = sorted(line_point(*line_anchor, t, p) for t in idx)
    if any(conic.contains(q) for q in line_pts) or any(line.contains(q) for q in conic_pts):
        return None

    through = tuple(conic_pts) + tuple(line_pts)
    try:
        sextic = random_curve_through(p, 6, through, rng.randrange(2**30))
    except GeometryError:
        return None

    # the conic and line must not divide the sextic
    if all(sextic.contains(q) for q in conic_pool[:14]):
        return None
    full_line_pts = line_points_on_curve(sextic, *line_anchor)
    if len(full_line_pts) != 6:
        return None

    # conic section must be exactly the twelve chosen points, all smooth
    try:
        section = intersect_curves(sextic, conic, seed=rng.randrange(2**30))
    except GeometryError:
        return None
    if sorted(section) != sorted(conic_pts):
        return None
    special = set(full_line_pts) | set(conic_pts)
    if any(is_singular_point(sextic, q) for q in special):
        return None
    return SexticConfig(sextic, full_line_pts, tuple(sorted(conic_pts)))
