"""The point pool a curve owns: each point's smoothness flag against the
per-point gradient test, the pool's prefixes and lifetime, and what
``random_points_on_curve`` reads from it."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseq import pointlab
from charseq.constructions import (
    line_through,
    multiply_curves,
    random_curve_through,
    random_smooth_curve,
)
from charseq.errors import GeometryError
from charseq.realize import realize
from charseq.pointlab import (
    is_singular_point,
    measure_rcs,
    plane_curve,
    point_pool,
    proj_point,
    random_points_on_curve,
    rational_points,
)


def nodal_cubic(p):
    """y^2 z = x^3 + x^2 z, singular at (0:0:1) only."""
    return plane_curve(p, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})


def product_of_lines(p):
    """Four lines, three through (1:1:1): singular where any two cross."""
    hub = proj_point(1, 1, 1, p)
    ends = [proj_point(1, 0, 0, p), proj_point(0, 1, 0, p), proj_point(3, 5, 1, p)]
    out = line_through(p, proj_point(0, 0, 1, p), proj_point(2, 7, 1, p))
    for q in ends:
        out = multiply_curves(out, line_through(p, hub, q))
    return out


def assert_flags_are_the_gradient_test(X):
    assert X.pool.smooth, "an empty pool checks nothing"
    for q, smooth in X.pool.smooth.items():
        assert smooth == (not is_singular_point(X, q)), q


@pytest.mark.parametrize("p", [101, 10007])
@pytest.mark.parametrize("build", [nodal_cubic, product_of_lines])
def test_pool_smoothness_is_the_gradient_test(p, build):
    X = build(p)
    pts = point_pool(X, 120)
    assert pts == tuple(X.pool.smooth)[: len(pts)]
    assert_flags_are_the_gradient_test(X)
    if p == 101:
        # the pool is every rational point, the singular ones included
        assert pts == rational_points(X)
        assert not all(X.pool.smooth.values())
    else:
        # a singular point that joins a sampled pool is flagged on the way in
        node = proj_point(0, 0, 1, p) if build is nodal_cubic else proj_point(1, 1, 1, p)
        X.pool.add(X, [node])
        assert X.pool.smooth[node] is False
        assert_flags_are_the_gradient_test(X)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([101, 10007]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_random_curves_pool_flags_and_samples(p, d, seed, smooth):
    X = random_smooth_curve(p, d, seed) if smooth else random_curve_through(p, d, (), seed)
    count = 1 + seed % 12
    try:
        Y = random_points_on_curve(X, count, seed)
    except GeometryError:
        Y = None
    for q, flag in X.pool.smooth.items():
        assert flag == (not is_singular_point(X, q)), q
    # the sample is drawn from the smooth pool points, as the gradient test finds them
    usable = [q for q in sorted(point_pool(X, max(4 * count, 64))) if not is_singular_point(X, q)]
    if Y is None:
        assert len(usable) < count
    else:
        assert Y.points == tuple(sorted(random.Random(seed).sample(usable, count)))


@pytest.mark.parametrize("p, d, seed", [(11, 4, 36), (101, 4, 24), (101, 4, 32), (101, 6, 25)])
def test_a_small_field_smooth_curve_is_smooth_at_every_rational_point(p, d, seed):
    # the first draw whose first 16 pool points are smooth is singular
    # further on; at p <= 101 the pool holds every rational point, and
    # random_smooth_curve checks them all
    draws = (random_curve_through(p, d, (), seed * 64 + attempt) for attempt in range(64))
    prefix = next(
        c
        for c in draws
        if len(point_pool(c, 16)) >= 4 and all(c.pool.smooth[q] for q in point_pool(c, 16)[:16])
    )
    assert any(is_singular_point(prefix, q) for q in rational_points(prefix))
    X = random_smooth_curve(p, d, seed)
    assert not any(is_singular_point(X, q) for q in rational_points(X))
    if (p, d) == (101, 4):
        assert measure_rcs(X, realize(X, (2, 3, 3, 4))).entries == (2, 3, 3, 4)


def test_pool_prefixes_do_not_depend_on_growth_order():
    p = 10007
    grown = nodal_cubic(p)
    first = point_pool(grown, 10)
    assert point_pool(grown, 200)[:10] == first
    # an equal curve built afresh owns its own pool, drawn from the same lines
    fresh = nodal_cubic(p)
    assert fresh.pool is not grown.pool
    assert point_pool(fresh, 200) == point_pool(grown, 200)
    assert fresh.pool.lines == grown.pool.lines


def test_smoothness_is_decided_once(monkeypatch):
    X = nodal_cubic(10007)
    first = random_points_on_curve(X, 5, seed=3)
    X.smooth_pool

    def no_gradient(curve, q):
        raise AssertionError("gradient evaluated again")

    monkeypatch.setattr(pointlab, "gradient_at", no_gradient)
    assert random_points_on_curve(X, 5, seed=3) == first
    assert random_points_on_curve(X, 7, seed=4).size == 7


@pytest.mark.parametrize("p", [101, 10007])
def test_a_curve_and_its_pool_are_freed_together(p):
    X = plane_curve(p, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -5})
    random_points_on_curve(X, 4, seed=0)
    X.smooth_pool
    curve_ref, pool_ref = weakref.ref(X), weakref.ref(X.pool)
    del X
    gc.collect()
    assert curve_ref() is None
    assert pool_ref() is None


def test_exhaustion_on_a_small_field_says_it_scanned_everything():
    X = plane_curve(5, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})  # no rational points
    message = r"need 1, found 0 usable among 0 pool points from a full scan"
    with pytest.raises(GeometryError, match=message):
        random_points_on_curve(X, 1, seed=0)


def test_exhaustion_on_a_large_field_counts_the_sampling_lines():
    # x^2 - 5 y^2 with 5 a non-residue mod 103: two conjugate lines whose only
    # rational point is their singular crossing (0:0:1)
    p = 103
    X = plane_curve(p, {(2, 0, 0): 1, (0, 2, 0): -5})
    assert pow(5, (p - 1) // 2, p) == p - 1
    message = r"need 2, found 0 usable among \d+ pool points from 2560 sampling lines"
    with pytest.raises(GeometryError, match=message):
        random_points_on_curve(X, 2, seed=0)
    assert X.pool.lines == 2560 and set(X.pool.smooth) <= {proj_point(0, 0, 1, p)}
