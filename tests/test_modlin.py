"""Prime-field linear algebra against independent small oracles."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charseq import modlin
from charseq.errors import DomainError
from charseq.pointlab import MAX_MODULUS

P = 10007


def poly_eval(coeffs, x, p):
    """Horner evaluation of a coefficient list, lowest degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def minor_rank(matrix, p):
    """Rank by exhaustive minors: the largest k with a nonzero k x k minor."""
    a = [[x % p for x in row] for row in matrix]
    n, m = len(a), len(a[0])

    def det_rec(rows, cols):
        if len(rows) == 1:
            return a[rows[0]][cols[0]] % p
        total = 0
        for idx, c in enumerate(cols):
            sub = det_rec(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = a[rows[0]][c] * sub
            total += -term if idx % 2 else term
        return total % p

    for k in range(min(n, m), 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                if det_rec(list(rows), list(cols)) != 0:
                    return k
    return 0


@given(st.integers(min_value=0, max_value=10**6))
def test_rank_of_small_random_matrices(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    m = rng.randrange(1, 5)
    p = rng.choice([2, 3, 101, P])
    mat = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    assert modlin.rank(mat, p) == minor_rank(mat, p)


def test_rank_with_forced_dependencies():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert modlin.rank(rows, P) == 2
    assert modlin.rank([[P, 2 * P], [3 * P, P]], P) == 0
    assert modlin.rank(np.zeros((0, 3), dtype=np.int64), P) == 0


def rref_by_gather(matrix, p):
    """``modlin.rref`` before its one-update pivot step, kept as the oracle:
    each pivot gathers the other rows nonzero in its column, updates them
    and scatters them back."""
    a = modlin.as_matrix(matrix, p).copy()
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 101, 10007, MAX_MODULUS)),
    st.integers(0, 10),
    st.integers(0, 10),
    st.integers(0, 10),
    st.randoms(use_true_random=False),
)
def test_rref_matches_the_gather_loop(p, n, m, inner, rng):
    # entries near p - 1 stress exactness at MAX_MODULUS; an n x inner times
    # inner x m product is rank-deficient when inner < min(n, m); empty,
    # tall and wide shapes all occur
    draw = lambda: rng.choice((rng.randrange(p), p - 1 - rng.randrange(min(p, 3))))
    if inner < min(n, m):
        left = [[draw() for _ in range(inner)] for _ in range(n)]
        right = [[draw() for _ in range(m)] for _ in range(inner)]
        rows = [[sum(u * right[t][j] for t, u in enumerate(row)) % p for j in range(m)] for row in left]
    else:
        rows = [[draw() for _ in range(m)] for _ in range(n)]
    matrix = np.array(rows, dtype=np.int64).reshape(n, m)
    reduced, pivots = modlin.rref(matrix, p)
    expected, expected_pivots = rref_by_gather(matrix, p)
    assert pivots == expected_pivots
    assert reduced.dtype == expected.dtype and reduced.shape == expected.shape
    assert reduced.tolist() == expected.tolist()


def test_kernel_is_exact_nullspace():
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randrange(1, 5), rng.randrange(1, 6)
        p = rng.choice([3, 101, P])
        mat = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)], dtype=np.int64)
        basis = modlin.kernel_basis(mat, p)
        assert basis.shape[0] == m - modlin.rank(mat, p)
        if basis.shape[0]:
            assert not ((mat @ basis.T) % p).any()
            assert modlin.rank(basis, p) == basis.shape[0]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((101, 10007, 2147483647)),
    st.integers(0, 4),
    st.integers(0, 12),
    st.integers(0, 4),
    st.randoms(use_true_random=False),
)
def test_matmul_matches_python_integers(p, n, k, m, rng):
    # near the top of the field, so that long sums overflow int64 unless chunked
    draw = lambda: rng.choice((rng.randrange(p), p - 1 - rng.randrange(3)))
    a = [[draw() for _ in range(k)] for _ in range(n)]
    b = [[draw() for _ in range(m)] for _ in range(k)]
    expected = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m)] for i in range(n)]
    got = modlin.matmul(
        np.array(a, dtype=np.int64).reshape(n, k), np.array(b, dtype=np.int64).reshape(k, m), p
    )
    assert got.shape == (n, m) and got.tolist() == expected


def test_matmul_at_the_int64_limit():
    p = 2147483647
    a = np.full((2, 3), p - 1, dtype=np.int64)
    b = np.full((3, 2), p - 1, dtype=np.int64)
    assert ((a @ b) % p).tolist() != [[3, 3], [3, 3]]  # plain int64 wraps around
    assert modlin.matmul(a, b, p).tolist() == [[3, 3], [3, 3]]
    assert modlin.matmul(a, [p - 1, 2, 0], p).tolist() == [p - 1, p - 1]  # a vector on the right
    with pytest.raises(DomainError):
        modlin.matmul(a, b, 4294967311)


def test_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 5)
        p = rng.choice([3, 101, P])
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]

        def cofactor(a):
            k = len(a)
            if k == 1:
                return a[0][0] % p
            total = 0
            for j in range(k):
                sub = [row[:j] + row[j + 1 :] for row in a[1:]]
                term = a[0][j] * cofactor(sub)
                total += -term if j % 2 else term
            return total % p

        assert modlin.det(np.array(mat, dtype=np.int64), p) == cofactor(mat)
    with pytest.raises(DomainError):
        modlin.det(np.zeros((2, 3), dtype=np.int64), P)


@given(st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1, max_size=7))
@settings(max_examples=100)
def test_interpolation_recovers_polynomials(coeffs):
    nodes = list(range(len(coeffs)))
    values = [poly_eval(coeffs, x, P) for x in nodes]
    got = modlin.interpolate(nodes, values, P)
    assert got == modlin.poly_trim(list(coeffs))


def test_poly_roots_and_gcd():
    # (x - 3)(x - 5) mod 101
    p = 101
    poly = [15, -8 % p, 1]
    assert modlin.poly_roots(poly, p) == [3, 5]
    other = [(-3) % p, 1]  # x - 3
    g = modlin.poly_gcd(poly, other, p)
    assert g == [(-3) % p, 1]
    assert modlin.poly_gcd(poly, [1], p) == [1]
    with pytest.raises(DomainError):
        modlin.poly_roots([0, 0], p)


def scan_roots(coeffs, p):
    """The full scan that poly_roots replaced: Horner at every field element."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(list(coeffs)):
        acc = (acc * xs + int(c) % p) % p
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def poly_mul(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def irreducible_quadratic(p):
    """t^2 - n for a non-residue n, or t^2 + t + 1 over F_2."""
    if p == 2:
        return [1, 1, 1]
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return [-n % p, 0, 1]


ROOT_FIELDS = (2, 3, 5, 7, 101, 10007)


@st.composite
def factored_polys(draw):
    """Products of linear factors (repeats and the root 0 included), of
    irreducible quadratics, and a nonzero constant, or plain coefficients."""
    p = draw(st.sampled_from(ROOT_FIELDS))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=12))
        return p, coeffs
    small = st.integers(0, min(p - 1, 4))
    roots = draw(st.lists(st.one_of(small, st.integers(0, p - 1)), max_size=9))
    poly = [draw(st.integers(1, p - 1))]
    for r in roots:
        poly = poly_mul(poly, [-r % p, 1], p)
    for _ in range(draw(st.integers(0, 2))):
        poly = poly_mul(poly, irreducible_quadratic(p), p)
    return p, poly


@settings(max_examples=400, deadline=None)
@given(factored_polys())
def test_poly_roots_match_a_full_scan(case):
    p, coeffs = case
    if not any(c % p for c in coeffs):
        with pytest.raises(DomainError):
            modlin.poly_roots(coeffs, p)
        return
    assert modlin.poly_roots(coeffs, p) == scan_roots(coeffs, p)


def test_poly_roots_special_shapes():
    for p in ROOT_FIELDS:
        assert modlin.poly_roots([p - 1], p) == []
        assert modlin.poly_roots([0, 0, 0, 1], p) == [0]
        assert modlin.poly_roots(irreducible_quadratic(p), p) == []
        assert modlin.poly_roots(poly_mul([0, 1], irreducible_quadratic(p), p), p) == [0]
    # t^p - t vanishes on the whole field
    assert modlin.poly_roots([0, -1] + [0] * 99 + [1], 101) == list(range(101))


def test_poly_roots_at_a_large_prime():
    p = 4294967311
    assert modlin.poly_roots([6, -5, 1], p) == [2, 3]
    roots = [0, 1, 2**31 + 7, p - 1]
    poly = [1]
    for r in roots + [p - 1]:  # p - 1 twice
        poly = poly_mul(poly, [-r % p, 1], p)
    assert modlin.poly_roots(poly_mul(poly, irreducible_quadratic(p), p), p) == roots
