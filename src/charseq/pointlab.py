"""Exact projective plane geometry over a prime field.

Points, curves, evaluation matrices, and the rank-based measurement of
Hilbert functions and characteristic sequences.  Everything is exact mod p
and deterministic; a seed enters only where points are sampled.  So this
module doubles as the brute-force oracle behind every sequence-level
statement in the package.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, count, islice
from math import comb
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import modlin
from .errors import DomainError, GeometryError
from .liaison import RelCharSeq, rel_from_abs
from .seqcalc import CharSeq, entries_from_widths, phi_from_charseq, plane_curve_charseq

SMALL_FIELD_SCAN = 101  # full P^2 enumeration is feasible up to here
POOL_MAX = 5000
# The largest prime with (p - 1)^2 + p < 2^63: below it a product of two
# residues plus a residue fits in int64, so elimination steps are exact.
MAX_MODULUS = 3037000493


def _is_prime(n: int) -> bool:
    """Miller-Rabin to bases 2, 3, 5 and 7, which is exact below 3215031751
    (Pomerance, Selfridge & Wagstaff 1980), so for every n <= MAX_MODULUS."""
    if n < 11 or any(n % a == 0 for a in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


def check_modulus(p: int) -> int:
    if p > MAX_MODULUS:
        raise DomainError(
            f"modulus {p} is above MAX_MODULUS = {MAX_MODULUS}, the bound of exact int64 arithmetic"
        )
    if not _is_prime(p):
        raise DomainError(f"modulus must be prime, got {p}")
    return p


@dataclass(frozen=True, order=True)
class ProjPoint:
    """Projective plane point, normalized so the last nonzero coordinate is 1."""

    coords: tuple[int, int, int]


def proj_point(x: int, y: int, z: int, p: int) -> ProjPoint:
    coords = (x % p, y % p, z % p)
    last = next((i for i in (2, 1, 0) if coords[i] != 0), None)
    if last is None:
        raise DomainError("projective point needs a nonzero coordinate")
    inv = pow(coords[last], -1, p)
    return ProjPoint(tuple((c * inv) % p for c in coords))


@dataclass(frozen=True)
class PlaneCurve:
    """Homogeneous trivariate form over F_p, stored as sorted monomial terms."""

    p: int
    terms: tuple[tuple[int, int, int, int], ...]  # (e1, e2, e3, coeff)

    @property
    def degree(self) -> int:
        e1, e2, e3, _ = self.terms[0]
        return e1 + e2 + e3

    @cached_property
    def partials(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """The three partial derivatives, as term lists like ``terms``: each
        term whose derivative in the variable is nonzero, lowered in it."""
        return tuple(
            tuple(
                (*(v - (i == var) for i, v in enumerate(e)), e[var] * c % self.p)
                for *e, c in self.terms
                if e[var] * c % self.p
            )
            for var in range(3)
        )

    @cached_property
    def pool(self) -> "PointPool":
        """The rational points found so far, grown by ``point_pool``: all of
        them for p <= SMALL_FIELD_SCAN, else those on the lines sampled."""
        pool = PointPool()
        if self.p <= SMALL_FIELD_SCAN:
            pool.add(self, rational_points(self))
        return pool

    @cached_property
    def smooth_pool(self) -> tuple[ProjPoint, ...]:
        """The smooth points of a pool of max(4d, 48) rational points, where
        random lines are anchored; built once per curve."""
        return tuple(q for q in point_pool(self, max(4 * self.degree, 48)) if self.pool.smooth[q])

    @cached_property
    def split_lines(self) -> "LineTable":
        """The lines through pairs of rational points that hold exactly deg(X)
        of them; exact, for p <= SMALL_FIELD_SCAN.  Built once per curve."""
        return _line_table(self)

    @cached_property
    def _pool_matrices(self) -> dict[int, np.ndarray]:
        return {}

    def pool_evaluation(self, t: int) -> tuple[tuple["ProjPoint", ...], np.ndarray]:
        """Every rational point, in pool order, and their degree-t evaluation
        matrix, built once per degree.  Only for p <= SMALL_FIELD_SCAN, where
        the pool is complete and never grows, so a held matrix stays valid."""
        if self.p > SMALL_FIELD_SCAN:
            raise GeometryError(f"pool evaluation needs p <= {SMALL_FIELD_SCAN}, got {self.p}")
        pts = tuple(self.pool.smooth)
        if t not in self._pool_matrices:
            self._pool_matrices[t] = evaluation_matrix(pts, t, self.p)
        return pts, self._pool_matrices[t]

    def coeff_dict(self) -> dict[tuple[int, int, int], int]:
        return {(e1, e2, e3): c for e1, e2, e3, c in self.terms}

    def evaluate(self, q: ProjPoint) -> int:
        return _eval_at(self.terms, _powers(q, self.degree, self.p), self.p)

    def contains(self, q: ProjPoint) -> bool:
        return self.evaluate(q) == 0


def _powers(q: ProjPoint, d: int, p: int) -> tuple[list[int], ...]:
    """x^0..x^d, y^0..y^d and z^0..z^d of q mod p, for ``_eval_at``."""
    tables = []
    for v in q.coords:
        row = [1]
        for _ in range(d):
            row.append(row[-1] * v % p)
        tables.append(row)
    return tuple(tables)


def _eval_at(terms, powers: tuple[list[int], ...], p: int) -> int:
    """A term list (e1,e2,e3,c) at the point whose ``_powers`` are given."""
    xs, ys, zs = powers
    return sum(c * xs[e1] * ys[e2] * zs[e3] for e1, e2, e3, c in terms) % p


def cross(u: Sequence[int], v: Sequence[int], p: int) -> tuple[int, int, int]:
    """Cross product of two coordinate vectors mod p: the line through two
    points, the point on two lines, and zero exactly when u, v are dependent."""
    return (
        (u[1] * v[2] - u[2] * v[1]) % p,
        (u[2] * v[0] - u[0] * v[2]) % p,
        (u[0] * v[1] - u[1] * v[0]) % p,
    )


def line_coefficients(line: PlaneCurve) -> tuple[int, int, int]:
    """The coefficients of x, y and z in a linear form."""
    coeff = line.coeff_dict()
    return tuple(coeff.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def plane_curve(p: int, coeffs) -> PlaneCurve:
    """Build a curve from {(e1,e2,e3): c} or an iterable of (e1,e2,e3,c).

    Coefficients are reduced mod p, zero terms dropped; the form must be
    nonzero and homogeneous.
    """
    check_modulus(p)
    if isinstance(coeffs, dict):
        items = [(e[0], e[1], e[2], c) for e, c in coeffs.items()]
    else:
        items = [tuple(t) for t in coeffs]
    merged: dict[tuple[int, int, int], int] = {}
    for e1, e2, e3, c in items:
        if min(e1, e2, e3) < 0:
            raise DomainError("negative exponent in curve definition")
        key = (e1, e2, e3)
        merged[key] = (merged.get(key, 0) + c) % p
    terms = tuple(sorted((e1, e2, e3, c) for (e1, e2, e3), c in merged.items() if c != 0))
    if not terms:
        raise DomainError("the zero form does not define a curve")
    degrees = {e1 + e2 + e3 for e1, e2, e3, _ in terms}
    if len(degrees) != 1:
        raise DomainError(f"form is not homogeneous: degrees {sorted(degrees)}")
    return PlaneCurve(p, terms)


def multiply_curves(a: PlaneCurve, b: PlaneCurve) -> PlaneCurve:
    if a.p != b.p:
        raise DomainError("curves live over different fields")
    out: dict[tuple[int, int, int], int] = {}
    for e1, e2, e3, c in a.terms:
        for f1, f2, f3, d in b.terms:
            key = (e1 + f1, e2 + f2, e3 + f3)
            out[key] = (out.get(key, 0) + c * d) % a.p
    return plane_curve(a.p, out)


def gradient_at(curve: PlaneCurve, q: ProjPoint) -> tuple[int, int, int]:
    powers = _powers(q, curve.degree - 1, curve.p)
    return tuple(_eval_at(partial, powers, curve.p) for partial in curve.partials)


def is_singular_point(curve: PlaneCurve, q: ProjPoint) -> bool:
    """Whether every partial derivative vanishes at q (q assumed on the curve)."""
    return gradient_at(curve, q) == (0, 0, 0)


@dataclass(frozen=True)
class PointGroup:
    """A reduced set of distinct projective points, optionally on a curve."""

    p: int
    points: tuple[ProjPoint, ...]
    curve: PlaneCurve | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    def coords_array(self) -> np.ndarray:
        return np.array([q.coords for q in self.points], dtype=np.int64).reshape(-1, 3)

    @cached_property
    def hilbert(self) -> tuple[int, ...]:
        """phi_Y(0), ..., phi_Y(r), stopping at the first degree r where phi_Y = |Y|.

        One forward elimination over the nested spans of ``_nested_spans``
        gives every value.  Only a group that meets every line of
        ``_free_line``'s pencil takes one ``phi_points`` rank per degree,
        and that needs |Y| > p.
        The Hilbert function of distinct points does not decrease and never
        exceeds |Y|, so it stays at |Y| from r on; distinct points are
        separated in degree |Y| - 1, which bounds the scan.
        """
        coords = self.coords_array()
        form = _free_line(coords, self.p)
        if form is None:
            scan = (phi_points(self, l) for l in count())
        else:
            scan = _nested_spans(coords, form, self.p)
        values: list[int] = []
        for value in scan:
            values.append(value)
            if value == self.size:
                return tuple(values)
            if len(values) == self.size:
                raise GeometryError(
                    f"Hilbert function stops at {value} in degree {self.size - 1}, "
                    f"below the group degree {self.size}"
                )

    def union(self, extra: Iterable[ProjPoint]) -> "PointGroup":
        """This group plus ``extra``; only the new points are checked on the
        curve, as this group's were when it was built."""
        return _group(self.p, self.points, tuple(extra), self.curve)


def _free_line(coords: np.ndarray, p: int) -> np.ndarray | None:
    """Coefficients of a linear form that vanishes at no row of ``coords``:
    the first of z, y, x that does, else the first that does of the p + 1
    lines through b, the first ``_plane_scan`` point not a row: to c1, then
    to c0 + y*c1 for y = 0, 1, ... (``_frame(b)``).  Each other point lies on
    one of them, so one misses any group of at most p points; else None."""
    for var in (2, 1, 0):
        if np.all(coords[:, var] != 0):
            return np.eye(3, dtype=np.int64)[var]
    rows = set(map(tuple, coords.tolist()))
    b = next((v for v in _plane_scan(p, p) if proj_point(*v, p).coords not in rows), None)
    if b is None:
        return None
    c1, c0 = _frame(b)
    ends = chain([c1], (tuple(u + y * v for u, v in zip(c0, c1)) for y in range(p)))
    lines = (np.array(cross(b, c, p), dtype=np.int64) for c in ends)
    return next((line for line in lines if np.all(modlin.matmul(coords, line, p) != 0)), None)


def _nested_spans(coords: np.ndarray, form: np.ndarray, p: int) -> Iterator[int]:
    """phi(0), phi(1), ... of the points ``coords``, given a linear form L
    vanishing at none of them (Buchberger-Moeller).

    Scaled by 1/L(q)^l, the degree-l evaluation vectors are the monomials at
    v = q / L(q); as L(v) = 1 their spans S_l are nested, and S_(l+1) is S_l
    plus v_j * r for j = 0, 1, 2 and every row r new at level l, since
    v_j * S_(l-1) lies in S_l already.  The new rows are in reduced echelon
    form and vanish at every earlier pivot column, and so do their
    multiples.  Reduced against level l's rows alone, the candidates
    therefore vanish at every pivot column so far, which makes the rank of
    what is left the number of new dimensions; no earlier row is kept.  A
    zero column never holds a pivot, so each level's pivot columns are
    dropped: level l + 1 eliminates only the |Y| - phi(l) columns left.

    Two multipliers suffice.  Take k with L_k != 0, here the last nonzero
    coordinate of L (for L = z, v_k is 1).  As L(v) = 1,
    L_k * v_k * r = r - sum over j != k of L_j * v_j * r, and r reduces to
    zero against level l's rows, so the reduced v_k * r lies in the span of
    the other two reduced products: the rows span the same space, which
    has the same reduced echelon form and pivots.

    Each level's rank is bounded by Macaulay.  The new dimensions count
    h(l) = phi(l) - phi(l - 1), the Hilbert function of R/(I_Y + L): L
    vanishes at no point of Y, so it is a nonzerodivisor on R/I_Y, and the
    quotient is a graded quotient of a polynomial ring in two variables.
    There h(l) <= l + 1, and Macaulay's bound h(l)^<l> gives
    h(l + 1) <= h(l) + [h(l) = l + 1], so ``modlin.rref`` stops its column
    scan at that many pivots.
    """
    inverse = np.array([pow(int(w), -1, p) for w in modlin.matmul(coords, form, p)], dtype=np.int64)
    v = np.delete(coords, np.flatnonzero(form)[-1], axis=1) * inverse.reshape(-1, 1) % p
    value, bound = 0, 1
    candidates = np.ones((1, len(v)), dtype=np.int64)  # S_0 = span(1)
    for l in count():
        reduced, pivots = modlin.rref(candidates, p, bound)
        reduced = reduced[: len(pivots)]
        value += len(pivots)
        yield value
        bound = len(pivots) + (len(pivots) == l + 1)
        free = np.ones(len(v), dtype=bool)
        free[pivots] = False
        candidates = (v.T[:, None, :] * reduced[None, :, :] % p).reshape(-1, len(v))
        candidates = modlin.reduce_rows(candidates, reduced, pivots, p)[:, free]
        v = v[free]


def point_group(p: int, points: Iterable[ProjPoint], curve: PlaneCurve | None = None) -> PointGroup:
    return _group(p, (), tuple(points), curve)


def _group(
    p: int, checked: tuple[ProjPoint, ...], new: tuple[ProjPoint, ...], curve: PlaneCurve | None
) -> PointGroup:
    # ``checked`` already lie on ``curve``; only ``new`` is checked.
    raw = checked + new
    pts = tuple(sorted(set(raw), key=attrgetter("coords")))
    if len(pts) != len(raw):
        raise DomainError("point group needs pairwise distinct points")
    if curve is not None:
        _check_on_curve(curve, p, new)
    return PointGroup(p, pts, curve)


def _check_on_curve(curve: PlaneCurve, p: int, points: Iterable[ProjPoint]) -> None:
    """Raise DomainError unless the mod-p ``points`` lie on ``curve``.  A
    point of the curve's built pool, which admits only points found on it
    exactly, is not evaluated again."""
    if curve.p != p:
        raise DomainError("curve modulus differs from the group modulus")
    found = _pool_flags(curve)
    bad = [q for q in points if q not in found and not curve.contains(q)]
    if bad:
        raise DomainError(f"{len(bad)} point(s) do not lie on the ambient curve")


def _pool_flags(curve: PlaneCurve) -> dict[ProjPoint, bool]:
    """The smoothness ``curve``'s pool recorded per point, if the pool is
    built, else nothing.  A pool is never built here: at small p that would
    enumerate the plane."""
    pool = curve.__dict__.get("pool")  # the cached_property, if built
    return pool.smooth if pool is not None else {}


# --- monomials and evaluation ---


@lru_cache(maxsize=None)
def monomial_basis(l: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of degree l in graded lex order, x > y > z."""
    if l < 0:
        raise DomainError("degree must be >= 0")
    return tuple(
        (e1, e2, l - e1 - e2) for e1 in range(l, -1, -1) for e2 in range(l - e1, -1, -1)
    )


def _power_table(coords: np.ndarray, max_e: int, p: int) -> list[list[np.ndarray]]:
    n = coords.shape[0]
    table = []
    for var in range(3):
        col = coords[:, var] % p
        pws = [np.ones(n, dtype=np.int64)]
        for _ in range(max_e):
            pws.append((pws[-1] * col) % p)
        table.append(pws)
    return table


def evaluation_matrix(points: Sequence[ProjPoint], l: int, p: int) -> np.ndarray:
    """|points| x C(l+2,2) matrix of degree-l monomials evaluated at the points."""
    basis = monomial_basis(l)
    coords = np.array([q.coords for q in points], dtype=np.int64).reshape(-1, 3)
    table = _power_table(coords, l, p)
    out = np.empty((coords.shape[0], len(basis)), dtype=np.int64)
    for j, (e1, e2, e3) in enumerate(basis):
        out[:, j] = (table[0][e1] * table[1][e2]) % p * table[2][e3] % p
    return out


def evaluate_terms(terms, coords: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a term list (e1,e2,e3,c) at many points at once."""
    max_e = max(max(e1, e2, e3) for e1, e2, e3, _ in terms)
    table = _power_table(coords, max_e, p)
    acc = np.zeros(coords.shape[0], dtype=np.int64)
    for e1, e2, e3, c in terms:
        term = (table[0][e1] * table[1][e2]) % p
        term = (term * table[2][e3]) % p
        acc = (acc + c * term) % p
    return acc


def phi_points(group: PointGroup, l: int) -> int:
    """Hilbert function of a reduced point group: rank of the evaluation matrix."""
    if l < 0 or group.size == 0:
        return 0
    return modlin.rank(evaluation_matrix(group.points, l, group.p), group.p)


def phi_plane_curve(d: int, l: int) -> int:
    """Hilbert function of a plane curve of degree d, read from its
    sequence (0, 1, ..., d-1): C(l + 2, 2) - C(l - d + 2, 2)."""
    return phi_from_charseq(plane_curve_charseq(d), l)


def span_rank(group: PointGroup) -> int:
    """Rank of the coordinate matrix, 1 + projective dimension of the span:
    phi_Y(1), as the degree-1 evaluation matrix is the coordinate matrix."""
    return (group.hilbert + (group.size,))[1]


# --- rational points: exact scan for small fields, sampled lines above ---


def rational_points(curve: PlaneCurve) -> tuple[ProjPoint, ...]:
    """Every rational point of the curve; exact, for p <= SMALL_FIELD_SCAN."""
    p = curve.p
    if p > SMALL_FIELD_SCAN:
        raise GeometryError(
            f"rational scan infeasible: full enumeration needs p <= {SMALL_FIELD_SCAN}, got {p}"
        )
    xs, ys = np.meshgrid(np.arange(p, dtype=np.int64), np.arange(p, dtype=np.int64))
    chart1 = np.stack([xs.ravel(), ys.ravel(), np.ones(p * p, dtype=np.int64)], axis=1)
    chart2 = np.stack(
        [np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64), np.zeros(p, dtype=np.int64)],
        axis=1,
    )
    chart3 = np.array([[1, 0, 0]], dtype=np.int64)
    found = []
    for chart in (chart1, chart2, chart3):
        vals = evaluate_terms(curve.terms, chart, p)
        for row in chart[vals == 0]:
            found.append(ProjPoint((int(row[0]), int(row[1]), int(row[2]))))
    return tuple(sorted(found))


@dataclass
class PointPool:
    """One curve's rational points found so far (``PlaneCurve.pool``).

    ``smooth`` maps each point, in the order found, to whether the curve is
    smooth there, decided once as the point joins; ``lines`` counts the
    sampling lines drawn; ``sorted_smooth`` holds sorted prefixes.
    """

    smooth: dict[ProjPoint, bool] = field(default_factory=dict)
    lines: int = 0
    _sorted: dict[int, tuple[ProjPoint, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def add(self, curve: PlaneCurve, pts: Iterable[ProjPoint]) -> None:
        for q in pts:
            if q not in self.smooth:
                self.smooth[q] = not is_singular_point(curve, q)

    def sorted_smooth(self, n: int) -> tuple[ProjPoint, ...]:
        """The smooth points among the first n, sorted; held per n, as the
        pool only grows at its end, so a prefix never changes."""
        if n not in self._sorted:
            smooth = (q for q in islice(self.smooth, n) if self.smooth[q])
            self._sorted[n] = tuple(sorted(smooth, key=attrgetter("coords")))
        return self._sorted[n]


def line_point(a: ProjPoint, b: ProjPoint, t: int, p: int) -> ProjPoint:
    """Point t of the line through a and b: a + t*b for t < p, and b for t = p."""
    if t == p:
        return b
    return proj_point(*(u + t * v for u, v in zip(a.coords, b.coords)), p)


def _restrict_to_line(curve: PlaneCurve, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The d+1 coefficients, lowest first, of g(t) = F(a + t*b) for coordinate
    triples a and b, which need not be normalized or reduced; the top one
    is F(b).

    Nested Horner in x and y over linear polynomials in t, exact at every p,
    even p <= d where interpolation would run out of nodes.  A polynomial
    in t is packed into one integer with w bits per coefficient (Kronecker
    substitution, as in ``modlin._pow_linear``) and reduced mod p only when
    unpacked.  No slot carries into the next: with a and b reduced, every
    intermediate is a sum of at most C(d+2, 2) terms c * (a product of at
    most d factors u + v*t), where 0 <= c, u, v < p.  All coefficients are
    nonnegative, and those of a product sum to its value at t = 1, which is
    below (2p)^d.  So every slot stays below C(d+2, 2) * p * (2p)^d < 2^w.
    """
    p, d = curve.p, curve.degree
    (ax, ay, az), (bx, by, bz) = [v % p for v in a], [v % p for v in b]
    w = (comb(d + 2, 2) * p * (2 * p) ** d).bit_length()
    coeff = curve.coeff_dict()
    z_powers = [1]
    for _ in range(d):
        z = z_powers[-1]
        z_powers.append(az * z + (bz * z << w))
    g = 0
    for k in range(d, -1, -1):
        # h = the coefficient form of x^k, of degree m in y and z
        m, h = d - k, 0
        for j in range(m, -1, -1):
            h = ay * h + (by * h << w) + coeff.get((k, j, m - j), 0) * z_powers[m - j]
        g = ax * g + (bx * g << w) + h
    mask = (1 << w) - 1
    return [(g >> (w * i) & mask) % p for i in range(d + 1)]


def line_points_on_curve(curve: PlaneCurve, a: ProjPoint, b: ProjPoint) -> tuple[ProjPoint, ...]:
    """All rational points of the curve on the line through a and b (exact).

    They are the field roots t of the restriction F(a + t*b), and b when
    its top coefficient F(b) vanishes: at most deg(F) points, at a cost
    independent of p.  A line lying on the curve, where the restriction is
    identically zero, is no section and raises GeometryError.
    """
    p = curve.p
    if not any(cross(a.coords, b.coords, p)):
        raise DomainError("a line needs two distinct points")
    g = _restrict_to_line(curve, a.coords, b.coords)
    if not any(g):
        raise GeometryError("improper intersection: the line lies on the curve")
    pts = [line_point(a, b, t, p) for t in modlin.poly_roots(g, p)]
    if g[-1] == 0:
        pts.append(b)
    return tuple(sorted(pts))


@dataclass(frozen=True)
class LineTable:
    """A curve's lines through pairs of its rational points (``PlaneCurve.split_lines``).

    ``split`` maps each normalized line (its coefficients as a ProjPoint)
    that holds exactly deg(X) rational points of the curve to those points,
    sorted; ``lines`` counts the distinct lines and ``points`` the rational
    points they were drawn through.
    """

    split: dict[ProjPoint, tuple[ProjPoint, ...]]
    lines: int
    points: int


def _line_table(curve: PlaneCurve) -> LineTable:
    # All pairs at once: a line holding k rational points is the cross
    # product of exactly C(k, 2) pairs, so the d-point lines are the keys
    # seen C(d, 2) times (none for d = 1, where no pair fixes one point).
    p, d = curve.p, curve.degree
    if p > SMALL_FIELD_SCAN:
        raise GeometryError(f"a split-line table needs p <= {SMALL_FIELD_SCAN}, got {p}")
    pts = tuple(curve.pool.smooth)  # every rational point, sorted
    coords = np.array([q.coords for q in pts], dtype=np.int64).reshape(-1, 3)
    i, j = np.triu_indices(len(pts), 1)
    lines = np.cross(coords[i], coords[j]) % p
    # scale the last nonzero coefficient to 1, as proj_point does
    last = np.where(lines[:, 2] != 0, 2, np.where(lines[:, 1] != 0, 1, 0))
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    lines = lines * inverse[lines[np.arange(len(lines)), last]].reshape(-1, 1) % p
    keys = (lines[:, 0] * p + lines[:, 1]) * p + lines[:, 2]
    unique, line_of, counts = np.unique(keys, return_inverse=True, return_counts=True)
    rich = (counts == comb(d, 2))[line_of]
    n = len(pts)
    owned = np.unique(np.concatenate([line_of[rich] * n + i[rich], line_of[rich] * n + j[rich]]))
    split = {}
    for row in owned.reshape(-1, d):
        key = int(unique[row[0] // n])
        line = ProjPoint((key // (p * p), key // p % p, key % p))
        split[line] = tuple(pts[k] for k in row % n)
    return LineTable(split, len(unique), n)


def random_proj_point(rng: random.Random, p: int) -> ProjPoint:
    while True:
        x, y, z = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if (x, y, z) != (0, 0, 0):
            return proj_point(x, y, z, p)


def point_pool(curve: PlaneCurve, size: int) -> tuple[ProjPoint, ...]:
    """At least ``size`` rational points of the curve when that many can be
    found: the full set for small p, else the first points of the curve's
    pool, grown by random line sections (capped at POOL_MAX)."""
    pool = curve.pool
    if curve.p <= SMALL_FIELD_SCAN:
        return tuple(pool.smooth)
    size = min(size, POOL_MAX)
    base = zlib.crc32(repr(curve.terms).encode())
    budget = 40 * max(size, 1)
    # Each sampling line gets its own rng keyed by its index, so the pool is
    # a deterministic sequence and earlier prefixes never change as it grows.
    while len(pool.smooth) < size and pool.lines < budget:
        rng = random.Random(base * 1000003 + pool.lines)
        pool.lines += 1
        a = random_proj_point(rng, curve.p)
        b = random_proj_point(rng, curve.p)
        if any(cross(a.coords, b.coords, curve.p)):
            try:
                pool.add(curve, line_points_on_curve(curve, a, b))
            except GeometryError:
                pass  # a line on the curve is no section
    return tuple(islice(pool.smooth, size))


def random_points_on_curve(
    curve: PlaneCurve, count: int, seed: int, avoid: Iterable[ProjPoint] = ()
) -> PointGroup:
    """Deterministic sample of ``count`` distinct smooth rational points on the curve."""
    if count < 0:
        raise DomainError("count must be >= 0")
    if count == 0:
        return point_group(curve.p, (), curve)
    pool = point_pool(curve, max(4 * count, 64))
    banned = set(avoid)
    usable = [q for q in curve.pool.sorted_smooth(len(pool)) if q not in banned]
    if len(usable) < count:
        lines = curve.pool.lines
        source = "a full scan" if curve.p <= SMALL_FIELD_SCAN else f"{lines} sampling lines"
        raise GeometryError(
            f"insufficient rational points: need {count}, found {len(usable)} usable "
            f"among {len(pool)} pool points from {source} "
            "(raise the modulus or relax the constraints)"
        )
    rng = random.Random(seed)
    return point_group(curve.p, rng.sample(usable, count), curve)


# --- curve intersection via resultants ---


def _plane_scan(p: int, width: int) -> Iterator[tuple[int, int, int]]:
    """(1:a:b) for a < p and b < min(p, width), then (0:1:b) for b < p, then
    (0:0:1): every point of P^2(F_p) once when width >= p."""
    yield from ((1, a, b) for a in range(p) for b in range(min(p, width)))
    yield from ((0, 1, b) for b in range(p))
    yield (0, 0, 1)


def _frame(b: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """c1 and c0, the unit vectors that skip b's first nonzero coordinate:
    (b, c1, c0) is a basis, the identity for b = (1:0:0)."""
    i = next(k for k, v in enumerate(b) if v)
    return tuple(tuple(int(k == j) for k in range(3)) for j in range(3) if j != i)


def intersect_curves(f: PlaneCurve, h: PlaneCurve) -> tuple[ProjPoint, ...]:
    """All rational common zeros of two curves with no shared component.

    Exact for any prime field with p > deg(f)*deg(h).  The plane is swept by
    the lines through a centre b off both curves: line y joins b to
    c0 + y*c1, and one more joins b to c1 (``_frame``).  f(b) and h(b) are
    the top coefficients of every restriction, so the resultant R(y) of the
    two restrictions has degree <= deg(f)*deg(h), vanishes at each line
    through a common zero, and vanishes identically exactly when the curves
    share a component (GeometryError).  The common zeros on a line are the
    roots of the gcd of its restrictions; as every line through b is swept,
    the result does not depend on b.

    b is the first point of ``_plane_scan(p, e + 1)`` off f*h, of degree
    e = deg(f) + deg(h) <= deg(f)*deg(h) + 1 <= p.  A line y = a*x that is
    no component of f*h holds at most e of its zeros, so misses one of
    (1:a:0..e); at most e such lines are components.  For e + 1 >= p the
    scan is the plane, where no nonzero form of degree <= p vanishes.
    """
    if f.p != h.p:
        raise DomainError("curves live over different fields")
    p = f.p
    d, s = f.degree, h.degree
    if d * s >= p:
        raise DomainError(f"field too small for an exact intersection of degrees {d} and {s}")
    scan = (proj_point(*v, p) for v in _plane_scan(p, d + s + 1))
    b = next(q for q in scan if not (f.contains(q) or h.contains(q))).coords
    c1, c0 = _frame(b)

    def restrictions(a):
        return _restrict_to_line(f, a, b), _restrict_to_line(h, a, b)

    def node(y: int) -> tuple[int, ...]:
        return tuple(u + y * v for u, v in zip(c0, c1))

    nodes = range(d * s + 1)
    values = [modlin.poly_resultant(*restrictions(node(y)), p) for y in nodes]
    res_coeffs = modlin.interpolate(nodes, values, p)
    if not res_coeffs:
        raise GeometryError("improper intersection: the curves share a component")

    found: set[ProjPoint] = set()
    for a in [node(y) for y in modlin.poly_roots(res_coeffs, p)] + [c1]:
        g = modlin.poly_gcd(*restrictions(a), p)
        if len(g) > 1:
            for t in modlin.poly_roots(g, p):
                found.add(proj_point(*(u + t * v for u, v in zip(a, b)), p))
    for q in found:
        if not (f.contains(q) and h.contains(q)):
            raise GeometryError("internal error: intersection point fails verification")
    return tuple(sorted(found))


def section_points(X: PlaneCurve, H: PlaneCurve, require_transverse: bool = True) -> PointGroup:
    """The rational points of X cut out by the hypersurface H.

    X and H sharing a component raises GeometryError, on either route.  With
    ``require_transverse`` the section must consist of exactly
    deg(X)*deg(H) rational points; anything less (tangency, a singular
    point, irrational intersection points) raises GeometryError and the
    caller should re-randomize H.  That count is the whole test: with no
    shared component, the intersection multiplicities sum to deg(X)*deg(H)
    (Bezout), so deg(X)*deg(H) distinct meetings each have multiplicity 1,
    which holds exactly where both curves are smooth with distinct tangents.
    """
    if X.p != H.p:
        raise DomainError("section curve lives over a different field")
    p = X.p
    if H.degree == 1:
        basis = modlin.kernel_basis(np.array([line_coefficients(H)], dtype=np.int64), p)
        a = proj_point(*(int(v) for v in basis[0]), p)
        b = proj_point(*(int(v) for v in basis[1]), p)
        pts = line_points_on_curve(X, a, b)
    else:
        pts = intersect_curves(X, H)
    expected = X.degree * H.degree
    if require_transverse and len(pts) != expected:
        raise GeometryError(
            f"non-transverse or irrational intersection: found {len(pts)} rational "
            f"points, expected {expected}"
        )
    return point_group(p, pts, X)


# --- measurement ---


def measure_rcs(X: PlaneCurve, Y: PointGroup) -> RelCharSeq:
    """Measure the relative characteristic sequence of Y on the plane curve X:
    the measured absolute sequence of Y read over X through ``rel_from_abs``,
    which rejects a pair no relative sequence accounts for."""
    if Y.curve != X:  # a group built on X had each point checked then
        _check_on_curve(X, Y.p, Y.points)
    return rel_from_abs(plane_curve_charseq(X.degree), measure_abs(Y))


def measure_abs(Y: PointGroup) -> CharSeq:
    """Measure the absolute characteristic sequence of a reduced point group.

    Widths are the first differences of the Hilbert function, and codim is
    the codimension of the group inside its linear span, so aligned groups
    come out with codim 1 and validate cleanly.
    """
    values = Y.hilbert
    widths = [b - a for a, b in zip((0,) + values, values)]
    return CharSeq(entries_from_widths(widths), 1, max(span_rank(Y) - 1, 1))


def dim_linear_system(X: PlaneCurve, Y: PointGroup) -> int:
    """Dimension of the complete linear system through Y on the plane curve X:
    deg(Y) - phi_Y(d - 3), read from ``Y.hilbert``: 0 in negative degrees
    and |Y| past its end.

    Y must avoid the singular locus of X so its divisor class is defined:
    a point of X's built pool has its recorded smoothness read, any other
    point is checked.
    """
    if Y.curve != X:
        _check_on_curve(X, Y.p, Y.points)
    smooth = _pool_flags(X)
    for q in Y.points:
        if (not smooth[q]) if q in smooth else is_singular_point(X, q):
            raise GeometryError(f"singular-point collision at {q.coords}")
    l, values = X.degree - 3, Y.hilbert
    return Y.size - (0 if l < 0 else values[l] if l < len(values) else Y.size)


# --- file formats ---


def save_points(path, group: PointGroup) -> None:
    lines = [f"p={group.p}"]
    lines += [" ".join(str(c) for c in q.coords) for q in group.points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_rows(path, kind: str, width: int) -> tuple[int, list[tuple[int, ...]]]:
    """The modulus and the integer rows of a curve or point file."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or not text[0].startswith("p="):
        raise DomainError(f"{kind} file must start with a 'p=<modulus>' header")
    p = check_modulus(_ints((text[0][2:],), kind, text[0])[0])
    rows = []
    for line in text[1:]:
        fields = line.split()
        if not fields:
            continue
        if len(fields) != width:
            raise DomainError(f"{kind} rows carry {width} integers, got {line.strip()!r}")
        rows.append(_ints(fields, kind, line))
    return p, rows


def _ints(fields, kind: str, line: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in fields)
    except ValueError:
        raise DomainError(f"non-integer field in {kind} file line {line.strip()!r}") from None


def load_points(path, curve: PlaneCurve | None = None) -> PointGroup:
    p, rows = _read_rows(path, "point", 3)
    return point_group(p, [proj_point(x, y, z, p) for x, y, z in rows], curve)


def save_curve(path, curve: PlaneCurve) -> None:
    lines = [f"p={curve.p}"]
    lines += [f"{e1} {e2} {e3} {c}" for e1, e2, e3, c in curve.terms]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_curve(path) -> PlaneCurve:
    p, rows = _read_rows(path, "curve", 4)
    return plane_curve(p, rows)
