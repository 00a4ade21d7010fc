"""Differential tests: the shared line-section, gradient and transversality
paths against plain brute-force oracles written out here."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charseq import constructions, modlin
from charseq.constructions import (
    _lines_cross_on_curve,
    aligned_points_on_curve,
    curves_through,
    line_through,
    multiply_curves,
    random_curve_through,
    split_line,
    split_section,
)
from charseq.errors import DomainError, GeometryError
from charseq.linsys import _curve_through_group
from charseq.pointlab import (
    MAX_MODULUS,
    ProjPoint,
    _restrict_to_line,
    cross,
    evaluate_terms,
    gradient_at,
    intersect_curves,
    is_singular_point,
    line_coefficients,
    line_point,
    line_points_on_curve,
    meets_transversally,
    monomial_basis,
    plane_curve,
    point_pool,
    proj_point,
    random_points_on_curve,
    random_proj_point,
    rational_points,
    section_points,
)
from charseq.verify import corpus_curve

P = 101


def line_span_points(p, a, b):
    """Coordinates of all p+1 points of the line through two independent
    points: a + t*b for t < p, then b."""
    av = np.array(a.coords, dtype=np.int64)
    bv = np.array(b.coords, dtype=np.int64)
    ts = np.arange(p, dtype=np.int64).reshape(-1, 1)
    rows = (av.reshape(1, 3) + ts * bv.reshape(1, 3)) % p
    return np.vstack([rows, bv.reshape(1, 3)])


def brute_gradient(curve, q):
    """Formal partial derivatives, term by term, evaluated at q."""
    p = curve.p
    out = []
    for var in range(3):
        total = 0
        for *e, c in curve.terms:
            if e[var] == 0:
                continue
            k = e[var]
            e[var] -= 1
            value = k * c
            for coord, power in zip(q.coords, e):
                value *= coord**power
            total += value
        out.append(total % p)
    return tuple(out)


def brute_cross(u, v, p):
    return tuple(
        (u[(i + 1) % 3] * v[(i + 2) % 3] - u[(i + 2) % 3] * v[(i + 1) % 3]) % p
        for i in range(3)
    )


def all_points(p):
    for x in range(p):
        for y in range(p):
            yield proj_point(x, y, 1, p)
    for x in range(p):
        yield proj_point(x, 1, 0, p)
    yield proj_point(1, 0, 0, p)


PLANE = tuple(all_points(P))

coeff = st.integers(min_value=0, max_value=P - 1)
line_coeffs = st.tuples(coeff, coeff, coeff).filter(any)
curves = st.builds(
    lambda d, seed: random_curve_through(P, d, (), seed),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
big_curves = st.builds(
    lambda d, seed: random_curve_through(10007, d, (), seed),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10**6),
)


def make_line(abc):
    return plane_curve(P, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), abc)))


@settings(max_examples=60, deadline=None)
@given(
    curve=st.one_of(curves, big_curves),
    xyz=st.tuples(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9)),
)
def test_gradient_matches_brute_force(curve, xyz):
    assume(any(v % curve.p for v in xyz))
    q = proj_point(*xyz, curve.p)
    assert gradient_at(curve, q) == brute_gradient(curve, q)
    assert gradient_at(curve, q) == brute_gradient(curve, q)  # cached partials again


@settings(max_examples=40, deadline=None)
@given(
    curve=curves.filter(lambda X: X.degree >= 2),
    abc=line_coeffs,
    mode=st.sampled_from(("free", "tangent", "secant")),
    i=st.integers(0, 10**6),
    j=st.integers(0, 10**6),
)
def test_line_section_matches_plain_scan(curve, abc, mode, i, j):
    # tangent and secant lines through rational points of the curve make
    # tangencies and fully split sections common enough to test
    pts = rational_points(curve)
    if mode != "free" and len(pts) >= 2:
        a, b = pts[i % len(pts)], pts[j % len(pts)]
        if mode == "tangent" and any(brute_gradient(curve, a)):
            abc = brute_gradient(curve, a)
        elif mode == "secant" and a != b:
            abc = brute_cross(a.coords, b.coords, P)
    line = make_line(abc)
    on_line = [q for q in PLANE if line.contains(q)]
    assert len(on_line) == P + 1
    expected = tuple(sorted(q for q in on_line if curve.contains(q)))
    if len(expected) == P + 1:
        with pytest.raises(GeometryError):
            section_points(curve, line, require_transverse=False)
        return
    assert section_points(curve, line, require_transverse=False).points == expected
    simple = all(any(brute_cross(brute_gradient(curve, q), abc, P)) for q in expected)
    assert meets_transversally(curve, line, expected) == simple
    if len(expected) == curve.degree and simple:
        assert section_points(curve, line).points == expected
    else:
        with pytest.raises(GeometryError):
            section_points(curve, line)


@settings(max_examples=20, deadline=None)
@given(abc=line_coeffs)
def test_line_component_of_a_reducible_curve_raises(abc):
    line = make_line(abc)
    X = multiply_curves(line, corpus_curve(P, 3))
    for transverse in (True, False):
        with pytest.raises(GeometryError, match="lies on the curve"):
            section_points(X, line, require_transverse=transverse)


def test_line_component_raises_on_the_big_field():
    cubic = corpus_curve(10007, 3)
    line, _ = split_line(cubic, seed=4)
    with pytest.raises(GeometryError, match="lies on the curve"):
        section_points(multiply_curves(line, cubic), line, require_transverse=False)


def scan_line_points(curve, a, b):
    """The full scan that root finding replaced: the curve at all p+1 line points."""
    p = curve.p
    coords = line_span_points(p, a, b)
    vals = evaluate_terms(curve.terms, coords, p)
    return tuple(sorted({proj_point(*(int(v) for v in r), p) for r in coords[vals == 0]}))


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 7, 101, 10007)),
    d=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(("free", "b on X", "a and b on X", "line component")),
    seed=st.integers(0, 10**6),
)
def test_line_points_match_a_scan_of_the_line(p, d, mode, seed):
    rng = random.Random(seed)
    a = random_proj_point(rng, p)
    b = random_proj_point(rng, p)
    assume(a != b)
    if mode == "line component":
        X = line_through(p, a, b)
        if d > 1:
            X = multiply_curves(X, random_curve_through(p, d - 1, (), seed))
    else:
        through = {"free": (), "b on X": (b,), "a and b on X": (a, b)}[mode]
        X = random_curve_through(p, d, through, seed)
    got = line_points_on_curve(X, a, b)
    assert got == scan_line_points(X, a, b)
    if mode == "line component":
        assert len(got) == p + 1


def restrict_by_lists(curve, a, b):
    """``_restrict_to_line`` before it packed its polynomials, kept as the
    oracle: the same nested Horner with each polynomial in t a list,
    reduced mod p at every step."""
    p, d = curve.p, curve.degree
    (ax, ay, az), (bx, by, bz) = a, b
    coeff = curve.coeff_dict()
    z_powers = [[1]]
    for _ in range(d):
        z = z_powers[-1]
        z_powers.append([(az * u + bz * v) % p for u, v in zip(z + [0], [0] + z)])
    g = []
    for k in range(d, -1, -1):
        m, h = d - k, []
        for j in range(m, -1, -1):
            c = coeff.get((k, j, m - j), 0)
            h = [
                (ay * u + by * v + c * w) % p
                for u, v, w in zip(h + [0], [0] + h, z_powers[m - j])
            ]
        g = [(ax * u + bx * v + w) % p for u, v, w in zip(g + [0], [0] + g, h)]
    return g


def eval_by_pow(terms, q, p):
    """A term list at q with three ``pow`` calls per term, as before power tables."""
    x, y, z = q.coords
    return sum(c * pow(x, e1, p) * pow(y, e2, p) * pow(z, e3, p) for e1, e2, e3, c in terms) % p


def sparse_curve(p, d, rng, missing):
    """A form of degree d with about half of its monomials, coefficients
    drawn unreduced up to 20p, and no monomial in the variable ``missing``
    (if any), so that its partial there has no terms."""
    basis = [e for e in monomial_basis(d) if missing is None or e[missing] == 0]
    coeffs = {e: rng.randrange(20 * p) for e in basis if rng.random() < 0.5}
    assume(any(c % p for c in coeffs.values()))
    return plane_curve(p, coeffs)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 101, 10007, MAX_MODULUS)),
    d=st.integers(1, 10),
    missing=st.sampled_from((None, 0, 1, 2)),
    rng=st.randoms(use_true_random=False),
)
def test_packed_restriction_matches_list_horner(p, d, missing, rng):
    # a and b as intersect_curves passes them: unnormalized and unreduced;
    # p <= d occurs at p <= 7, and the bound is pinned at MAX_MODULUS, d = 8
    if p == MAX_MODULUS:
        d = 8
    X = sparse_curve(p, d, rng, missing)
    a = tuple(rng.randrange(20 * p + 1) for _ in range(3))
    b = tuple(rng.choice((rng.randrange(20 * p + 1), p - 1, 20 * p)) for _ in range(3))
    assert _restrict_to_line(X, a, b) == restrict_by_lists(X, a, b)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 101, 10007, MAX_MODULUS)),
    d=st.integers(1, 8),
    missing=st.sampled_from((None, 0, 1, 2)),
    xyz=st.tuples(st.integers(0, 10**10), st.integers(0, 10**10), st.integers(0, 10**10)),
    normalized=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_power_tables_match_the_pow_form(p, d, missing, xyz, normalized, rng):
    X = sparse_curve(p, d, rng, missing)
    if normalized:
        assume(any(v % p for v in xyz))
        q = proj_point(*xyz, p)
    else:
        q = ProjPoint(xyz)  # raw coordinates, unreduced
    value = eval_by_pow(X.terms, q, p)
    assert X.evaluate(q) == value and X.contains(q) == (value == 0)
    assert gradient_at(X, q) == tuple(eval_by_pow(partial, q, p) for partial in X.partials)
    if missing is not None:
        assert X.partials[missing] == () and gradient_at(X, q)[missing] == 0


def test_line_points_need_two_distinct_points():
    X = corpus_curve(P, 3)
    q = rational_points(X)[0]
    with pytest.raises(DomainError):
        line_points_on_curve(X, q, q)


def test_line_point_rows_match_line_span_points():
    rng = random.Random(3)
    a, b = random_proj_point(rng, P), random_proj_point(rng, P)
    rows = line_span_points(P, a, b)
    assert [line_point(a, b, t, P) for t in range(P + 1)] == [
        proj_point(*(int(v) for v in r), P) for r in rows
    ]


@pytest.mark.parametrize(
    "ts", [(0, 1, 2**31 + 5, MAX_MODULUS - 1), (7, 2**31 + 12345, 12345, MAX_MODULUS)]
)
def test_line_points_are_exact_at_a_large_prime(ts):
    # a product of four lines, each through a planted point of the line ab
    # (t = p plants b itself) and a point off it
    p = MAX_MODULUS
    a, b = proj_point(1, 2, 3, p), proj_point(4, 0, 1, p)
    planted = [line_point(a, b, t, p) for t in ts]
    X = None
    for i, q in enumerate(planted):
        r = proj_point(i + 1, 1, 0, p)
        assert not line_through(p, a, b).contains(r)
        L = line_through(p, q, r)
        X = L if X is None else multiply_curves(X, L)
    assert line_points_on_curve(X, a, b) == tuple(sorted(planted))


@pytest.mark.parametrize("p", [P, 10007])
def test_smooth_pool_is_built_once_per_curve(p):
    # the nodal cubic y^2 z = x^3 + x^2 z, singular at (0:0:1)
    X = plane_curve(p, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})
    node = proj_point(0, 0, 1, p)
    pool = X.smooth_pool
    assert X.smooth_pool is pool
    assert pool == tuple(q for q in point_pool(X, 48) if not is_singular_point(X, q))
    assert node not in pool
    if p == P:
        assert node in point_pool(X, 48)


def test_split_line_exhaustion_says_what_it_tried():
    X = corpus_curve(P, 7)  # no line meets it in seven rational points
    pts = rational_points(X)
    lines = {proj_point(*line_coefficients(line_through(P, a, b)), P) for a, b in combinations(pts, 2)}
    message = (
        f"no fully split line exists on this degree-7 curve: none of the {len(lines)} "
        f"distinct lines through pairs of its {len(pts)} rational points holds exactly 7"
    )
    with pytest.raises(GeometryError, match=message):
        split_line(X, seed=0)


def test_split_line_tries_say_what_they_drew_at_a_large_prime():
    # every line is drawn through two smooth pool points, so avoiding the
    # whole smooth pool rejects every split line and spends all 400 tries
    X = corpus_curve(10007, 4)
    pool = X.smooth_pool
    rng = random.Random(0)
    drawn = set()
    for _ in range(400):
        line = line_through(X.p, *rng.sample(pool, 2))
        drawn.add(frozenset(q for q in pool if line.contains(q)))
    message = f"in 400 tries: {len(drawn)} distinct lines through pairs of its {len(pool)} smooth"
    with pytest.raises(GeometryError, match=message):
        split_line(X, seed=0, avoid=frozenset(pool))


@pytest.mark.parametrize("failure", ("no split line", "crossing lines"))
def test_split_section_exhaustion_counts_each_failure(failure, monkeypatch):
    X = corpus_curve(10007, 4)
    if failure == "no split line":
        def refuse(*args):
            raise GeometryError("no fully split line found")

        monkeypatch.setattr(constructions, "split_line", refuse)
        counts = "40 found too few split lines and 0 had"
    else:
        monkeypatch.setattr(constructions, "_lines_cross_on_curve", lambda X, lines: True)
        counts = "0 found too few split lines and 40 had"
    message = f"no transverse degree-2 section found in 40 attempts: {counts} two lines crossing"
    with pytest.raises(GeometryError, match=message):
        split_section(X, 2, seed=0)


def test_aligned_points_exhaustion_says_what_it_tried(monkeypatch):
    # each line is cut down to two points, so no line holds three
    X = corpus_curve(10007, 4)
    pool = X.smooth_pool
    rng = random.Random(5)
    drawn = {proj_point(*cross(*(q.coords for q in rng.sample(pool, 2)), X.p), X.p) for _ in range(400)}
    monkeypatch.setattr(
        constructions, "line_points_on_curve", lambda X, a, b: line_points_on_curve(X, a, b)[:2]
    )
    message = (
        f"no line with 3 smooth rational curve points found in 400 tries: {len(drawn)} distinct "
        f"lines through pairs of its {len(pool)} smooth pool points held at most 2"
    )
    with pytest.raises(GeometryError, match=message):
        aligned_points_on_curve(X, 3, seed=5)
    # x^2 + y^2 over F_103 has one rational point, (0:0:1), and it is singular
    lines = plane_curve(103, {(2, 0, 0): 1, (0, 2, 0): 1})
    with pytest.raises(GeometryError, match="not enough smooth rational points"):
        aligned_points_on_curve(lines, 2, seed=0)


def nodal_cubic(p):
    """y^2 z = x^3 + x^2 z, singular at (0:0:1)."""
    return plane_curve(p, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})


def table_curve(p, kind, d, seed):
    if kind == "nodal cubic":
        return nodal_cubic(p)
    if kind == "line component":
        rng = random.Random(seed)
        a, b = random_proj_point(rng, p), random_proj_point(rng, p)
        assume(a != b)
        line = line_through(p, a, b)
        return line if d == 1 else multiply_curves(line, random_curve_through(p, d - 1, (), seed))
    return random_curve_through(p, d, (), seed)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, P)),
    kind=st.sampled_from(("nodal cubic", "line component", "random")),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(0, 10**6),
)
def test_split_line_table_matches_line_points(p, kind, d, seed):
    # the oracle: the exact line section through every pair of rational points
    X = table_curve(p, kind, d, seed)
    pts = rational_points(X)
    expected = {}
    for a, b in combinations(pts, 2):
        line = proj_point(*cross(a.coords, b.coords, p), p)
        if line not in expected:
            on_line = line_points_on_curve(X, a, b)
            expected[line] = on_line if len(on_line) == X.degree else None
    table = X.split_lines
    assert table.split == {k: v for k, v in expected.items() if v is not None}
    assert (table.lines, table.points) == (len(expected), len(pts))


@settings(max_examples=40, deadline=None)
@given(
    curve=curves.filter(lambda X: X.degree >= 2),
    seeds=st.lists(st.integers(0, 10**6), min_size=2, max_size=4),
    through=st.booleans(),
)
def test_lines_cross_on_curve_matches_the_resultant(curve, seeds, through):
    # the first two lines share a rational point of the curve when ``through``
    pts = rational_points(curve)
    assume(pts)
    rng = random.Random(seeds[0])
    hub = rng.choice(pts)
    lines = []
    for k, seed in enumerate(seeds):
        sub = random.Random(seed)
        a = hub if through and k < 2 else random_proj_point(sub, P)
        b = random_proj_point(sub, P)
        assume(a != b)
        lines.append(line_through(P, a, b))
    assume(len({proj_point(*line_coefficients(line), P) for line in lines}) == len(lines))
    for a, b in combinations(lines, 2):
        crossing = proj_point(*cross(line_coefficients(a), line_coefficients(b), P), P)
        assert intersect_curves(a, b) == (crossing,)
    oracle = any(curve.contains(q) for a, b in combinations(lines, 2) for q in intersect_curves(a, b))
    assert _lines_cross_on_curve(curve, lines) == oracle
    if through:
        assert oracle


def test_split_line_never_returns_a_component_line_over_f2():
    # X = z * (x^2 + xy + y^2 + z^2) over F_2: the line z = 0 is a component
    # holding exactly 3 = deg(X) rational points, all smooth, so it is in the
    # split-line table and is drawn; d > p, and only the tangency test
    # rejects it
    p = 2
    conic = plane_curve(p, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    X = multiply_curves(plane_curve(p, {(0, 0, 1): 1}), conic)
    component = proj_point(0, 0, 1, p)
    assert len(X.split_lines.split[component]) == 3
    assert sum(q.coords[2] == 0 for q in X.smooth_pool) == 3
    returned = {proj_point(*line_coefficients(split_line(X, seed)[0]), p) for seed in range(30)}
    assert returned and component not in returned


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7, P, 10007)),
    kind=st.sampled_from(("nodal cubic", "line component", "random")),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(0, 10**6),
)
def test_split_lines_pass_the_tangency_test(p, kind, d, seed):
    # the test is skipped for d <= p, where Bezout makes it hold; a line
    # component of degree p + 1 is where it is kept.  At p = 10007 a drawn
    # line that is a component lists all its p + 1 points, so none is drawn.
    assume(p < 10007 or (kind == "random" and 2 <= d <= 4))
    X = table_curve(p, kind, d, seed)
    try:
        line, pts = split_line(X, seed)
    except GeometryError:
        return
    assert len(pts) == X.degree and len(set(pts)) == len(pts)
    assert all(line.contains(q) and X.contains(q) for q in pts)
    assert meets_transversally(X, line, pts)


def _eye(d):
    return np.eye((d + 1) * (d + 2) // 2, dtype=np.int64)


EMPTY_INPUTS = [
    pytest.param(lambda X: modlin.rank(np.zeros((0, 6), dtype=np.int64), P), 0, id="rank-no-rows"),
    pytest.param(lambda X: modlin.rank(np.zeros((6, 0), dtype=np.int64), P), 0, id="rank-no-columns"),
    pytest.param(lambda X: modlin.rank([], P), 0, id="rank-empty-list"),
    *(
        pytest.param(lambda X, d=d: curves_through(P, d, ()), _eye(d), id=f"degree-{d}-forms-through-no-point")
        for d in (0, 1, 3)
    ),
    pytest.param(
        lambda X: evaluate_terms(X.terms, np.zeros((0, 3), dtype=np.int64), P),
        np.zeros(0, dtype=np.int64),
        id="curve-at-no-point",
    ),
    pytest.param(
        lambda X: _curve_through_group(X, random_points_on_curve(X, 3, 0), 0), None, id="degree-0-curve-through-points"
    ),
]


@pytest.mark.parametrize("compute, expected", EMPTY_INPUTS)
def test_empty_inputs_give_what_their_shortcuts_gave(compute, expected):
    # rank, curves_through, evaluate_terms and _curve_through_group once
    # returned these values early; the general path must reach them alone
    got = compute(corpus_curve(P, 4))
    assert type(got) is type(expected)
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    else:
        assert got == expected
