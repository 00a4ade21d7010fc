"""Differential tests: the pencil-of-lines intersection and the Euclidean
resultant against the route they replace, kept here as the oracle: a
symbolic change of coordinates in random frames, x-slices and Sylvester
determinants."""

import random
import time
from itertools import islice
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseq import modlin, pointlab
from charseq.constructions import multiply_curves, random_curve_through
from charseq.errors import CharseqError, DomainError, GeometryError
from charseq.pointlab import (
    MAX_MODULUS,
    ProjPoint,
    _frame,
    _plane_scan,
    intersect_curves,
    plane_curve,
    proj_point,
    random_proj_point,
)


def random_invertible(rng, p):
    """A 3x3 matrix over F_p with nonzero determinant, drawn from ``rng``."""
    while True:
        mat = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        if modlin.det(np.array(mat, dtype=np.int64), p) != 0:
            return mat


def substitute_linear(curve, matrix):
    """The form v -> f(M v) for a 3x3 matrix M over F_p."""
    p = curve.p
    rows = [tuple(int(x) % p for x in row) for row in matrix]

    def linear_power(row, e):
        a, b, c = row
        out = {}
        for i in range(e + 1):
            for j in range(e - i + 1):
                k = e - i - j
                coeff = comb(e, i) * comb(e - i, j) * pow(a, i, p) * pow(b, j, p) * pow(c, k, p)
                coeff %= p
                if coeff:
                    out[(i, j, k)] = (out.get((i, j, k), 0) + coeff) % p
        return out

    def dict_mul(u, v):
        out = {}
        for eu, cu in u.items():
            for ev, cv in v.items():
                key = (eu[0] + ev[0], eu[1] + ev[1], eu[2] + ev[2])
                out[key] = (out.get(key, 0) + cu * cv) % p
        return out

    total = {}
    for e1, e2, e3, c in curve.terms:
        piece = {(0, 0, 0): c}
        for var, e in ((0, e1), (1, e2), (2, e3)):
            if e:
                piece = dict_mul(piece, linear_power(rows[var], e))
        for key, val in piece.items():
            total[key] = (total.get(key, 0) + val) % p
    return plane_curve(p, total)


def pure_power_coeff(curve, var):
    d = curve.degree
    target = tuple(d if i == var else 0 for i in range(3))
    return next((c for e1, e2, e3, c in curve.terms if (e1, e2, e3) == target), 0)


def x_slices(curve):
    # coefficient of x^k as a polynomial in (y, z)
    slices = [dict() for _ in range(curve.degree + 1)]
    for e1, e2, e3, c in curve.terms:
        slices[e1][(e2, e3)] = c
    return slices


def eval_slice(slice_yz, y, z, p):
    return sum(c * pow(y, e2, p) * pow(z, e3, p) for (e2, e3), c in slice_yz.items()) % p


def sylvester(fc, hc, p):
    # coefficient lists in decreasing degree, full length
    n, m = len(fc) - 1, len(hc) - 1
    mat = np.zeros((n + m, n + m), dtype=np.int64)
    for i in range(m):
        mat[i, i : i + n + 1] = fc
    for i in range(n):
        mat[m + i, i : i + m + 1] = hc
    return mat % p


def sylvester_resultant(a, b, p):
    """Res(a, b) of two nonzero lists (lowest first) as a Sylvester determinant."""
    fa, fb = modlin.poly_trim(list(a)), modlin.poly_trim(list(b))
    return modlin.det(sylvester(fa[::-1], fb[::-1], p), p)  # 1 for two constants


def old_intersect_curves(f, h, seed=0):
    """The coordinate-change route: move to coordinates where both forms carry
    a full power of x, project out x by Sylvester determinants at d*s + 1
    slices, and map the common zeros back."""
    if f.p != h.p:
        raise DomainError("curves live over different fields")
    p = f.p
    d, s = f.degree, h.degree
    if d * s >= p:
        raise DomainError(f"field too small for an exact intersection of degrees {d} and {s}")
    rng = random.Random(seed)
    matrix = None
    f2, h2 = f, h
    if pure_power_coeff(f, 0) == 0 or pure_power_coeff(h, 0) == 0:
        for _ in range(64):
            candidate = random_invertible(rng, p)
            f2 = substitute_linear(f, candidate)
            h2 = substitute_linear(h, candidate)
            if pure_power_coeff(f2, 0) != 0 and pure_power_coeff(h2, 0) != 0:
                matrix = candidate
                break
        else:
            raise GeometryError("could not reach coordinates with full leading terms")
    fs, hs = x_slices(f2), x_slices(h2)
    nodes = list(range(d * s + 1))
    dets = []
    for y0 in nodes:
        fc = [eval_slice(fs[k], y0, 1, p) for k in range(d, -1, -1)]
        hc = [eval_slice(hs[k], y0, 1, p) for k in range(s, -1, -1)]
        dets.append(modlin.det(sylvester(fc, hc, p), p))
    res_coeffs = modlin.interpolate(nodes, dets, p)
    if not res_coeffs:
        raise GeometryError("improper intersection: the curves share a component")
    found = set()
    for y0 in modlin.poly_roots(res_coeffs, p):
        fc = [eval_slice(fs[k], y0, 1, p) for k in range(d + 1)]
        hc = [eval_slice(hs[k], y0, 1, p) for k in range(s + 1)]
        g = modlin.poly_gcd(fc, hc, p)
        if len(g) > 1:
            for x0 in modlin.poly_roots(g, p):
                found.add(proj_point(x0, y0, 1, p))
    # fiber at z = 0
    fc0 = [eval_slice(fs[k], 1, 0, p) for k in range(d + 1)]
    hc0 = [eval_slice(hs[k], 1, 0, p) for k in range(s + 1)]
    g0 = modlin.poly_gcd(fc0, hc0, p)
    if len(g0) > 1:
        for x0 in modlin.poly_roots(g0, p):
            found.add(proj_point(x0, 1, 0, p))
    q = ProjPoint((1, 0, 0))
    if f2.contains(q) and h2.contains(q):
        found.add(q)
    if matrix is not None:
        mapped = set()
        for q in found:
            v = [sum(matrix[i][j] * q.coords[j] for j in range(3)) for i in range(3)]
            mapped.add(proj_point(*v, p))
        found = mapped
    return tuple(sorted(found))


def outcome(intersect, *args):
    try:
        return intersect(*args)
    except CharseqError as err:
        return type(err)


THROUGH = {"through (1:0:0)": (1, 0, 0), "through (0:1:0)": (0, 1, 0)}
FACTOR = {"divisible by y": (0, 1, 0), "divisible by x": (1, 0, 0)}


def first_scan_points(p, d, s, k):
    """The first k points of the centre scan ``intersect_curves`` makes."""
    return [proj_point(*v, p) for v in islice(_plane_scan(p, d + s + 1), k)]


def planted_pair(p, d, s, kind, planted, seed):
    """Two curves of degrees d and s of the given kind through common
    points: random, through one point or the first scan points, with a
    line factor, or with a common component."""
    rng = random.Random(seed)
    if kind == "through the first scan points":
        pts = first_scan_points(p, d, s, 4)
    else:
        pts = [proj_point(*THROUGH[kind], p)] if kind in THROUGH else []
    for k in range(planted):
        pts.append(proj_point(rng.randrange(p), 1, 0, p) if k % 2 else random_proj_point(rng, p))
    pts = tuple(dict.fromkeys(pts))[: min(d, s)]  # few enough for distinct curves of each degree
    if kind == "common component":
        c = min(d, s, 2)
        common = random_curve_through(p, c, (), seed)
        f = multiply_curves(common, random_curve_through(p, d - c, (), seed + 1)) if d > c else common
        h = multiply_curves(common, random_curve_through(p, s - c, (), seed + 2)) if s > c else common
        return f, h, ()
    if kind in FACTOR:
        # f = line * g: the scan walks past the whole line y = 0 when the
        # line is y, and never meets x = 0
        line = plane_curve(p, {FACTOR[kind]: 1})
        pts = pts[: min(d - 1, s)]
        f = multiply_curves(line, random_curve_through(p, d - 1, pts, seed + 1)) if d > 1 else line
    else:
        f = random_curve_through(p, d, pts, seed + 1)
    return f, random_curve_through(p, s, pts, seed + 2), pts


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 101, 10007, MAX_MODULUS)),
    d=st.integers(1, 6),
    s=st.integers(1, 4),
    kind=st.sampled_from(
        ("random", *THROUGH, "through the first scan points", *FACTOR, "common component")
    ),
    planted=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_intersect_curves_matches_the_coordinate_change(p, d, s, kind, planted, seed):
    # common points are planted, every other one on z = 0: the line through
    # the centre (1:0:0) and c1 = (0:1:0), which the sweep reads on its own;
    # through (1:0:0) or the first scan points the centre moves, and (0:1:0)
    # would be lost by a sweep centred there
    f, h, pts = planted_pair(p, d, s, kind, planted, seed)
    # the common zeros do not depend on the frame: the old route at any
    # seed finds what the sweep from its one fixed frame finds
    got = outcome(intersect_curves, f, h)
    assert got == outcome(old_intersect_curves, f, h, seed)
    if d * s >= p:
        assert got is DomainError
    elif kind == "common component":
        assert got is GeometryError
    elif isinstance(got, tuple):  # a tiny field can still draw a shared component
        assert set(pts) <= set(got)


@pytest.mark.parametrize("kind", FACTOR)
def test_the_centre_scan_at_the_modulus_bound(kind, monkeypatch):
    # f * h has degree e = 7 and the curves share the scan's first points,
    # all on y = 0 and none on x = 0: divisible by y, f holds the scan's
    # whole first row (1:0:0..e), so the centre is (1:1:b) for some b
    p, d, s = MAX_MODULUS, 4, 3
    pts = tuple(first_scan_points(p, d, s, 3))
    line = plane_curve(p, {FACTOR[kind]: 1})
    f = multiply_curves(line, random_curve_through(p, d - 1, pts, 6))
    h = random_curve_through(p, s, pts, 7)
    centres = set()
    restrict = pointlab._restrict_to_line

    def recording(curve, a, b):
        centres.add(proj_point(*b, p))
        return restrict(curve, a, b)

    monkeypatch.setattr(pointlab, "_restrict_to_line", recording)
    start = time.perf_counter()
    got = intersect_curves(f, h)
    assert time.perf_counter() - start < 1
    monkeypatch.undo()
    assert got == old_intersect_curves(f, h)
    assert set(pts) <= set(got)
    # the centre is the first scan point off f * h
    (centre,) = centres
    scan = first_scan_points(p, d, s, 2 * (d + s + 1))
    k = scan.index(centre)
    assert all(f.contains(q) or h.contains(q) for q in scan[:k])
    assert not (f.contains(centre) or h.contains(centre))
    assert k >= (d + s + 1 if kind == "divisible by y" else len(pts))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("width", (1, 2, 3, 7))
def test_the_plane_scan_and_its_frames(p, width):
    scan = list(_plane_scan(p, width))
    points = {proj_point(*v, p) for v in scan}
    assert len(points) == len(scan) == p * min(p, width) + p + 1
    if width >= p:
        assert len(points) == p * p + p + 1  # the whole plane
    for b in scan:
        c1, c0 = _frame(b)
        assert sorted(c1) == sorted(c0) == [0, 0, 1]
        assert modlin.det(np.array([b, c1, c0], dtype=np.int64), p) != 0
    assert _frame((1, 0, 0)) == ((0, 1, 0), (0, 0, 1))


polys = st.lists(st.integers(0, 10**6), min_size=0, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 101, 10007)),
    a=polys,
    b=polys,
    common=st.lists(st.integers(0, 10**6), min_size=0, max_size=3),
    leads=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6)),
)
def test_poly_resultant_matches_the_sylvester_determinant(p, a, b, common, leads):
    # nonzero leading coefficients; a common factor of degree len(common),
    # trimmed so that both products keep degree <= 8
    la, lb, lc = (v % p or 1 for v in leads)
    c = [v % p for v in common] + [lc]
    a = [v % p for v in a][: 9 - len(c)] + [la]
    b = [v % p for v in b][: 9 - len(c)] + [lb]
    if len(c) > 1:
        a = poly_mul(a, c, p)
        b = poly_mul(b, c, p)
    got = modlin.poly_resultant(a, b, p)
    assert got == sylvester_resultant(a, b, p)
    if len(c) > 1:
        assert got == 0
    assert modlin.poly_resultant(a, [], p) == modlin.poly_resultant([], b, p) == 0


def poly_mul(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] = (out[i + j] + x * y) % p
    return out
