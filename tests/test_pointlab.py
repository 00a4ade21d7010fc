"""The geometry engine: evaluation ranks, measurement, sections, filtrations."""

import random
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseq import constructions, modlin, pointlab
from charseq.constructions import (
    aligned_points_on_curve,
    curves_through,
    fermat_curve,
    line_through,
    multiply_curves,
    split_line,
    split_section,
)
from charseq.errors import DomainError, GeometryError
from charseq.liaison import abs_from_rel, rel_degree
from charseq.pointlab import (
    MAX_MODULUS,
    PlaneCurve,
    _is_prime,
    check_modulus,
    dim_linear_system,
    gradient_at,
    intersect_curves,
    is_singular_point,
    line_points_on_curve,
    load_curve,
    load_points,
    measure_abs,
    measure_rcs,
    monomial_basis,
    phi_plane_curve,
    phi_points,
    plane_curve,
    point_group,
    proj_point,
    random_points_on_curve,
    random_proj_point,
    rational_points,
    save_curve,
    save_points,
    section_points,
)

P = 10007


def tangent_line(curve, q):
    """The tangent line of the curve at a smooth point q."""
    gx, gy, gz = gradient_at(curve, q)
    assert (gx, gy, gz) != (0, 0, 0), "no tangent line at a singular point"
    return plane_curve(curve.p, {(1, 0, 0): gx, (0, 1, 0): gy, (0, 0, 1): gz})


def test_proj_point_normalization():
    assert proj_point(2, 4, 2, 5).coords == (1, 2, 1)
    assert proj_point(3, 0, 0, 7).coords == (1, 0, 0)
    assert proj_point(0, 4, 0, 7).coords == (0, 1, 0)
    with pytest.raises(DomainError):
        proj_point(0, 0, 0, 7)
    assert proj_point(2, 3, 1, 7) == proj_point(4, 6, 2, 7)


def test_plane_curve_validation():
    with pytest.raises(DomainError):
        plane_curve(P, {(1, 0, 0): 1, (0, 2, 0): 1})  # inhomogeneous
    with pytest.raises(DomainError):
        plane_curve(P, {(1, 0, 0): P})  # identically zero after reduction
    f = plane_curve(P, {(2, 0, 0): 1, (0, 2, 0): P + 2})
    assert f.degree == 2 and f.coeff_dict() == {(2, 0, 0): 1, (0, 2, 0): 2}


def test_monomial_basis_order():
    assert monomial_basis(0) == ((0, 0, 0),)
    assert len(monomial_basis(1)) == 3
    basis3 = monomial_basis(3)
    assert len(basis3) == 10
    assert basis3[0] == (3, 0, 0) and basis3[-1] == (0, 0, 3)


def test_phi_points_small_configurations():
    pts = [proj_point(0, 0, 1, P)]
    group = point_group(P, pts)
    assert all(phi_points(group, l) == 1 for l in range(0, 5))
    triangle = point_group(P, [proj_point(1, 0, 0, P), proj_point(0, 1, 0, P), proj_point(0, 0, 1, P)])
    assert phi_points(triangle, 1) == 3
    # four points, exactly three on the line y = 0
    four = point_group(
        P,
        [
            proj_point(0, 0, 1, P),
            proj_point(1, 0, 1, P),
            proj_point(2, 0, 1, P),
            proj_point(0, 1, 1, P),
        ],
    )
    assert phi_points(four, 1) == 3
    assert phi_points(four, 2) == 4
    assert phi_points(four, -1) == 0


def test_phi_plane_curve_matches_the_closed_form():
    for d in range(1, 13):
        for l in range(-3, 31):
            high = comb(l - d + 2, 2) if l >= d else 0
            assert phi_plane_curve(d, l) == (comb(l + 2, 2) - high if l >= 0 else 0)


def test_phi_plane_curve_formula():
    assert phi_plane_curve(4, 2) == 6
    assert phi_plane_curve(4, 4) == 14
    assert phi_plane_curve(3, 5) == 15
    assert phi_plane_curve(5, -2) == 0
    with pytest.raises(DomainError):
        phi_plane_curve(0, 1)


def test_measure_abs_examples(quartic_big):
    X = quartic_big
    single = random_points_on_curve(X, 1, seed=3)
    assert measure_abs(single).entries == (0,)
    aligned = point_group(P, aligned_points_on_curve(X, 4, seed=5))
    seq = measure_abs(aligned)
    assert seq.entries == (0, 1, 2, 3)
    assert seq.codim == 1  # span is a line


@pytest.mark.parametrize("seed", [1, 3])
def test_conic_block_stops_once_its_conic_is_pinned(quartic_big, monkeypatch, seed):
    # Five anchors fixing the conic: every retry would meet X in the same
    # points, so one intersection decides between a block and the anchors.
    X = quartic_big
    calls = []
    intersect = constructions.intersect_curves
    monkeypatch.setattr(
        constructions, "intersect_curves", lambda *a, **k: calls.append(1) or intersect(*a, **k)
    )
    anchor = random_points_on_curve(X, 5, random.Random(seed).randrange(2**30)).points
    assert curves_through(P, 2, anchor).shape[0] == 1
    assert constructions._conic_block(X, 6, seed) == tuple(sorted(anchor))
    assert len(calls) == 1


def test_measure_rcs_examples(quartic_big):
    X = quartic_big
    empty = point_group(P, (), X)
    assert measure_rcs(X, empty).entries == (0, 1, 2, 3)
    line, pts = split_line(X, seed=2)
    rel = measure_rcs(X, point_group(P, pts, X))
    assert rel.entries == (1, 2, 3, 4)
    assert rel_degree(rel) == 4
    H, sec = split_section(X, 2, seed=4)
    rel2 = measure_rcs(X, point_group(P, sec, X))
    assert rel2.entries == (2, 3, 4, 5)
    assert rel_degree(rel2) == 8


def test_measure_rcs_rejects_points_off_curve(quartic_big):
    X = quartic_big
    q = proj_point(1, 0, 0, P)
    assert not X.contains(q)
    for measure in (measure_rcs, dim_linear_system):  # the group builder's check and text
        with pytest.raises(DomainError, match="1 point.s. do not lie on the ambient curve"):
            measure(X, point_group(P, [q]))


def test_abs_from_rel_matches_direct_measurement(quartic_big):
    X = quartic_big
    for seed in range(4):
        Y = random_points_on_curve(X, 5 + seed, seed=seed)
        rel = measure_rcs(X, Y)
        assert abs_from_rel(rel).entries == measure_abs(Y).entries


def test_containment_monotonicity(quartic_big):
    X = quartic_big
    big = random_points_on_curve(X, 9, seed=8)
    small = point_group(P, big.points[:5], X)
    rel_small = measure_rcs(X, small)
    rel_big = measure_rcs(X, big)
    assert all(a <= b for a, b in zip(rel_small.entries, rel_big.entries))


def test_random_points_determinism_and_membership(quartic_big):
    X = quartic_big
    a = random_points_on_curve(X, 10, seed=1)
    b = random_points_on_curve(X, 10, seed=1)
    c = random_points_on_curve(X, 10, seed=2)
    assert a.points == b.points
    assert a.points != c.points
    assert all(X.contains(q) for q in a.points)
    assert random_points_on_curve(X, 0, seed=1).size == 0


def test_random_points_insufficient_over_tiny_field():
    X = fermat_curve(5, 4)
    assert rational_points(X) == ()
    with pytest.raises(GeometryError):
        random_points_on_curve(X, 1, seed=0)


def test_section_points_line_and_errors(quartic_big):
    X = quartic_big
    line, pts = split_line(X, seed=7)
    section = section_points(X, line)
    assert section.points == tuple(sorted(pts))
    with pytest.raises(GeometryError):
        section_points(X, X)  # improper: the curve against itself
    q = pts[0]
    tangent = tangent_line(X, q)
    with pytest.raises(GeometryError):
        section_points(X, tangent)


def test_intersect_curves_bezout_count():
    # two conics in general position meet in four rational points here
    c1 = multiply_curves(
        line_through(P, proj_point(1, 0, 1, P), proj_point(0, 1, 1, P)),
        line_through(P, proj_point(2, 5, 1, P), proj_point(7, 1, 1, P)),
    )
    c2 = multiply_curves(
        line_through(P, proj_point(3, 3, 1, P), proj_point(4, 9, 1, P)),
        line_through(P, proj_point(5, 2, 1, P), proj_point(1, 8, 1, P)),
    )
    pts = intersect_curves(c1, c2)
    assert len(pts) == 4
    assert all(c1.contains(q) and c2.contains(q) for q in pts)
    with pytest.raises(GeometryError):
        intersect_curves(c1, multiply_curves(c1, c1))  # shared component


def test_section_characterization(quartic_big):
    # sections reach the top entry d-1+s; same-size random groups stay below
    X = quartic_big
    _, sec = split_section(X, 2, seed=9)
    assert measure_rcs(X, point_group(P, sec, X)).entries[-1] == 3 + 2
    for seed in range(3):
        Y = random_points_on_curve(X, 8, seed=100 + seed)
        if set(Y.points) == set(sec):
            continue
        assert measure_rcs(X, Y).entries[-1] < 5


def test_dim_linear_system_examples(quartic_big):
    X3 = fermat_curve(P, 3)
    one = random_points_on_curve(X3, 1, seed=1)
    assert dim_linear_system(X3, one) == 0
    X = quartic_big
    line, pts = split_line(X, seed=3)
    assert dim_linear_system(X, point_group(P, pts, X)) == 2
    assert dim_linear_system(X, point_group(P, (), X)) == 0


def counted_gradients(monkeypatch):
    """The points ``gradient_at`` is called on from here on."""
    calls = []
    gradient = pointlab.gradient_at
    monkeypatch.setattr(pointlab, "gradient_at", lambda curve, q: calls.append(q) or gradient(curve, q))
    return calls


def nodal_cubic(p):
    # the node (0:0:1) is a genuine singular rational point
    return plane_curve(p, {(0, 2, 1): 1, (2, 0, 1): -1, (3, 0, 0): -1})


def test_dim_linear_system_rejects_singular_points(monkeypatch):
    node = proj_point(0, 0, 1, P)
    # a curve with no pool: the node is checked, and no pool is built
    f = nodal_cubic(P)
    assert f.contains(node) and is_singular_point(f, node)
    with pytest.raises(GeometryError, match="singular-point collision"):
        dim_linear_system(f, point_group(P, [node], f))
    assert "pool" not in vars(f)
    # a built pool that does not hold the node: it is checked all the same
    f = nodal_cubic(P)
    random_points_on_curve(f, 5, seed=1)
    assert node not in f.pool.smooth
    with pytest.raises(GeometryError, match="singular-point collision"):
        dim_linear_system(f, point_group(P, [node], f))
    # a pool that holds the node recorded it singular: the flag is read
    g = nodal_cubic(101)
    node = proj_point(0, 0, 1, 101)
    assert g.pool.smooth[node] is False
    calls = counted_gradients(monkeypatch)
    with pytest.raises(GeometryError, match="singular-point collision"):
        dim_linear_system(g, point_group(101, [node], g))
    assert calls == []


def test_dim_linear_system_reads_the_pools_smoothness(quartic_big, monkeypatch):
    X = quartic_big
    Y = random_points_on_curve(X, 8, seed=4)
    rng = random.Random(7)
    outside = []
    while not outside:
        a, b = random_proj_point(rng, P), random_proj_point(rng, P)
        if a != b:
            outside = [q for q in line_points_on_curve(X, a, b) if q not in X.pool.smooth][:1]
    calls = counted_gradients(monkeypatch)
    # X's pool decided each of its points once, as the point joined, for
    # any group that holds them; a point it does not hold is checked
    assert dim_linear_system(X, Y) == 8 - phi_points(Y, 1)
    dim_linear_system(X, point_group(P, Y.points))
    assert calls == []
    dim_linear_system(X, Y.union(outside))
    assert calls == outside


def test_dim_linear_system_builds_no_pool(monkeypatch):
    # at p <= 101 a pool is the whole plane scanned; a curve that holds none
    # has each point checked instead, and still holds none afterwards
    X = plane_curve(101, fermat_curve(101, 4).terms)
    Y = point_group(101, rational_points(X)[:6], X)
    calls = counted_gradients(monkeypatch)
    assert dim_linear_system(X, Y) == 6 - phi_points(Y, 1)
    assert "pool" not in vars(X)
    assert calls == list(Y.points)


def test_minimal_hypersurface_degree_matches_kernel(quartic_big):
    # the first width below the full ring width marks the least curve degree
    # through the group, confirmed by an explicit kernel rank
    X = quartic_big
    for seed, size in ((1, 5), (2, 8), (3, 11)):
        Y = random_points_on_curve(X, size, seed=seed)
        seq = measure_abs(Y)
        w = seq.widths
        j = next(i for i in range(len(w) + 1) if i >= len(w) or w[i] < i + 1)
        least = next(
            l for l in range(0, size + 2) if phi_points(Y, l) < (l + 1) * (l + 2) // 2
        )
        assert j == least


def test_point_and_curve_files_round_trip(tmp_path, quartic_big):
    X = quartic_big
    Y = random_points_on_curve(X, 6, seed=12)
    pfile = tmp_path / "points.txt"
    cfile = tmp_path / "curve.txt"
    save_points(pfile, Y)
    save_curve(cfile, X)
    back_curve = load_curve(cfile)
    assert back_curve.terms == X.terms and back_curve.p == X.p
    back_points = load_points(pfile, back_curve)
    assert back_points.points == Y.points
    text = pfile.read_text()
    assert text.startswith(f"p={P}\n")
    with pytest.raises(DomainError):
        load_points(cfile)  # four-field curve rows are not point rows


def test_moduli_stop_at_the_int64_bound(tmp_path):
    # at MAX_MODULUS ranks stay exact; at the next prime every entry point refuses
    p = MAX_MODULUS
    assert check_modulus(p) == p
    rng = random.Random(0)
    for _ in range(20):
        a = [[rng.randrange(p) for _ in range(3)] for _ in range(8)]
        b = [[rng.randrange(p) for _ in range(10)] for _ in range(3)]
        assert modlin.rank(modlin.matmul(a, b, p), p) == 3
    above = 3037000507
    curve_file = tmp_path / "curve.txt"
    curve_file.write_text(f"p={above}\n0 0 4 1\n")
    for build in (
        lambda: check_modulus(above),
        lambda: plane_curve(above, {(0, 0, 4): 1}),
        lambda: load_curve(curve_file),
    ):
        with pytest.raises(DomainError, match="MAX_MODULUS"):
            build()


def is_prime_by_trial_division(n):
    """The primality proof ``check_modulus`` ran before Miller-Rabin."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_between(lo, hi):
    return [n for n in range(lo, hi) if is_prime_by_trial_division(n)]


def test_miller_rabin_matches_trial_division_up_to_1e5():
    assert [n for n in range(-2, 10**5 + 1) if _is_prime(n) != is_prime_by_trial_division(n)] == []


def test_miller_rabin_at_its_edges():
    # the least strong pseudoprimes to bases {2}, {2, 3} and {2, 3, 5}
    assert not any(_is_prime(n) for n in (2047, 1373653, 25326001))
    # 3215031751 = 151 * 751 * 28351 is the least one to bases {2, 3, 5, 7}:
    # the test is exact only below it, and MAX_MODULUS lies below it
    assert MAX_MODULUS < 3215031751 == 151 * 751 * 28351
    near = range(MAX_MODULUS - 600, MAX_MODULUS + 1)
    assert [n for n in near if _is_prime(n)] == [n for n in near if is_prime_by_trial_division(n)]
    assert _is_prime(MAX_MODULUS) and check_modulus(MAX_MODULUS) == MAX_MODULUS
    # products of two primes around sqrt(MAX_MODULUS), squares included
    around = primes_between(54_800, 55_400)
    products = [a * b for a in around for b in around if a <= b and a * b <= MAX_MODULUS]
    assert len(products) > 500 and not any(_is_prime(n) for n in products)
    with pytest.raises(DomainError, match="must be prime"):
        check_modulus(max(products))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, MAX_MODULUS), odd=st.booleans())
def test_miller_rabin_matches_trial_division_below_the_bound(n, odd):
    n = n | 1 if odd else n
    assert _is_prime(n) == is_prime_by_trial_division(n)


def test_point_group_rejects_duplicates_and_strays(quartic_big):
    q = proj_point(1, 2, 3, P)
    with pytest.raises(DomainError):
        point_group(P, [q, proj_point(2, 4, 6, P)])
    with pytest.raises(DomainError):
        point_group(P, [proj_point(1, 0, 0, P)], quartic_big)


def test_points_are_checked_on_their_curve_once(quartic_big, monkeypatch):
    X = quartic_big
    Y = random_points_on_curve(X, 6, seed=2)
    extra = random_points_on_curve(X, 8, seed=3, avoid=Y.points).points[:2]
    calls = []
    contains = PlaneCurve.contains
    monkeypatch.setattr(PlaneCurve, "contains", lambda curve, q: calls.append(q) or contains(curve, q))

    # a group built on X had each point checked then: no re-check
    measure_rcs(X, Y)
    dim_linear_system(X, Y)
    assert calls == []
    # a union evaluates only the new points that X's pool does not hold,
    # since the pool admits only points found on X exactly
    rng = random.Random(5)
    outside = []
    while len(outside) < 2:
        a, b = random_proj_point(rng, P), random_proj_point(rng, P)
        if a != b:
            outside += [q for q in line_points_on_curve(X, a, b) if q not in X.pool.smooth]
    outside = outside[:2]
    assert set(extra) <= set(X.pool.smooth)
    grown = Y.union(list(extra) + outside)
    assert calls == outside
    del calls[:]
    # a group with no curve, or built on another curve, is checked against
    # X's pool as well: 2 outside points x 2 groups x 2 functions
    on_no_curve = point_group(P, grown.points)
    on_other = point_group(P, grown.points, multiply_curves(X, line_through(P, *grown.points[:2])))
    del calls[:]
    for Z in (on_no_curve, on_other):
        measure_rcs(X, Z)
        dim_linear_system(X, Z)
    assert calls == 4 * [q for q in grown.points if q in outside]
    assert len(calls) == 8
    with pytest.raises(DomainError, match="do not lie on the ambient curve"):
        Y.union([proj_point(1, 0, 0, P)])


def test_a_group_builds_no_pool_to_check_its_points(monkeypatch):
    # at p <= 101 a pool is the whole plane scanned; a curve that holds none
    # has its points evaluated instead, and still holds none afterwards
    X = plane_curve(101, fermat_curve(101, 4).terms)
    pts = rational_points(X)[:6]
    calls = []
    contains = PlaneCurve.contains
    monkeypatch.setattr(PlaneCurve, "contains", lambda curve, q: calls.append(q) or contains(curve, q))
    point_group(101, pts[:5], X).union(pts[5:])
    assert "pool" not in vars(X)
    assert calls == list(pts)


def test_intersect_curves_matches_full_scan(quartic_small, quintic_small):
    # over the small field every point can be enumerated, giving an
    # independent check of the resultant route; the second pair passes
    # through (1:0:0), so the sweep needs another centre
    planted = (proj_point(1, 0, 0, 101), proj_point(3, 1, 0, 101), proj_point(5, 7, 1, 101))
    through = (
        constructions.random_curve_through(101, 4, planted, 1),
        constructions.random_curve_through(101, 3, planted, 2),
    )
    for X, H in ((quartic_small, quintic_small), through):
        expected = {q for q in rational_points(X) if H.contains(q)}
        assert set(intersect_curves(X, H)) == expected
    assert set(planted) <= expected


def test_intersection_and_measurement_make_no_draw(monkeypatch):
    # the centre of the sweep and the free line of a Hilbert function come
    # from a fixed scan of the plane: with every draw in pointlab refused,
    # a pair through (1:0:0) and a group on each coordinate line, both past
    # the first choices, still give their answers
    p = 101
    planted = (proj_point(1, 0, 0, p), proj_point(1, 0, 1, p))
    f = constructions.random_curve_through(p, 3, planted, 1)
    h = constructions.random_curve_through(p, 2, planted, 2)
    Y = point_group(p, [proj_point(1, 0, 0, p), proj_point(0, 1, 0, p), proj_point(0, 0, 1, p)])
    expected = {q for q in rational_points(f) if h.contains(q)}

    def refuse(*args):
        raise AssertionError("pointlab drew a random number")

    monkeypatch.setattr(pointlab, "random", SimpleNamespace(Random=refuse))
    assert set(intersect_curves(f, h)) == expected
    assert set(planted) <= expected
    assert Y.hilbert == (1, 3)


def test_section_points_resultant_path(quartic_small):
    from charseq.constructions import split_section

    X = quartic_small
    H, pts = split_section(X, 2, seed=13)
    section = section_points(X, H)
    assert section.points == tuple(sorted(pts))
    scan = {q for q in rational_points(X) if H.contains(q)}
    assert set(section.points) == scan


def test_a_failed_sextic_attempt_moves_to_the_next(monkeypatch):
    # a GeometryError inside an attempt ends it as a None would
    calls = []
    intersect = constructions.intersect_curves

    def fail_first(f, h):
        calls.append(f)
        if len(calls) == 1:
            raise GeometryError("first intersection refused")
        return intersect(f, h)

    monkeypatch.setattr(constructions, "intersect_curves", fail_first)
    cfg = constructions.sextic_with_marked_sections(10007, seed=0)
    assert len(calls) >= 2
    assert len(cfg.line_points) == 6 and len(cfg.conic_points) == 12
