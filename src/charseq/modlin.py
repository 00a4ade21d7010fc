"""Exact dense linear algebra and univariate arithmetic over a prime field.

Everything here works on numpy int64 arrays reduced mod p and is fully
deterministic: pivots are always the first nonzero entry in column order, so
identical inputs give identical echelon forms on any machine.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import DomainError

_INT64_MAX = 2**63 - 1


def as_matrix(rows, p: int) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, p)


def rref(matrix, p: int, max_rank: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, first-nonzero pivoting.

    Each pivot clears its column with one rank-1 update of the whole matrix;
    the pivot row's own factor is zeroed, so it is left as it is.  The
    update is exact in int64: a residue minus a product of two residues
    stays within (p - 1)^2 + p < 2^63 for p <= MAX_MODULUS.

    A caller that knows the rank is at most ``max_rank`` may pass it, and
    the column scan stops once it has found that many pivots.  The result
    is the same: the rank is then reached, so every row below the pivot
    rows lies in their span; it is zero at every pivot column, so it is
    zero, and the columns left hold no pivot and change no row.
    """
    a = as_matrix(matrix, p).copy()
    nrows, ncols = a.shape
    stop = nrows if max_rank is None else min(nrows, max_rank)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == stop:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        f = a[:, c].copy()
        f[r] = 0
        a -= np.outer(f, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def matmul(a, b, p: int) -> np.ndarray:
    """The product a @ b mod p, exact in int64 wherever ``rref`` is.

    The inner sum runs in chunks of at most (2^63 - 1 - p) / (p - 1)^2
    terms, reduced after each chunk, so no partial sum overflows; past
    that bound not even one product of residues fits, and DomainError is
    raised instead of a wrapped result.
    """
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    b = np.mod(np.asarray(b, dtype=np.int64), p)
    step = (_INT64_MAX - p) // (p - 1) ** 2
    if step < 1:
        raise DomainError(f"modulus {p} is too large for exact int64 products")
    inner = a.shape[-1]
    if inner <= step:
        return (a @ b) % p
    acc = (a[..., :step] @ b[:step]) % p
    for start in range(step, inner, step):
        acc = (acc + a[..., start : start + step] @ b[start : start + step]) % p
    return acc


def reduce_rows(rows, reduced, pivots: list[int], p: int) -> np.ndarray:
    """Each row minus its pivot-column entries times the pivot rows of an
    ``rref`` result: zero at every pivot column, and zero throughout exactly
    when the row lies in their span (Buchberger-Moeller's reduction)."""
    return (rows - matmul(rows[:, pivots], reduced[: len(pivots)], p)) % p


def rank(matrix, p: int) -> int:
    _, pivots = rref(matrix, p)
    return len(pivots)


def kernel_basis(matrix, p: int) -> np.ndarray:
    """Rows spanning the right kernel {x : A x = 0 mod p}."""
    return rref_kernel(*rref(matrix, p), p)


def rref_kernel(reduced, pivots: list[int], p: int) -> np.ndarray:
    """The kernel of the matrix an ``rref`` result came from, read off it:
    one row per free column, in column order, 1 there and minus that
    column of the pivot rows at the pivots."""
    free = [c for c in range(reduced.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), reduced.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-reduced[: len(pivots)][:, free].T) % p
    return basis


def det(matrix, p: int) -> int:
    """Determinant mod p by elimination with row swaps."""
    a = as_matrix(matrix, p).copy()
    n, m = a.shape
    if n != m:
        raise DomainError("determinant needs a square matrix")
    result = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            a[[c, i]] = a[[i, c]]
            result = (-result) % p
        piv = int(a[c, c])
        result = (result * piv) % p
        inv = pow(piv, -1, p)
        below = np.nonzero(a[c + 1 :, c])[0] + c + 1
        if below.size:
            factors = (a[below, c] * inv) % p
            a[below] = (a[below] - np.outer(factors, a[c])) % p
    return result


# --- univariate polynomials, coefficient lists in increasing degree ---


def poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_roots(coeffs, p: int) -> list[int]:
    """All roots in the prime field, sorted (exact, polynomial in deg and log p).

    The nonzero roots of f are those of g = gcd(f, t^p - t), a product of
    distinct linear factors, which Cantor-Zassenhaus splits with gcds
    against (t + a)^((p-1)/2) - 1.  The shifts a come from an rng seeded
    by g, so the function is pure.
    """
    f = poly_trim([int(c) % p for c in coeffs])
    if not f:
        raise DomainError("the zero polynomial has every element as a root")
    roots = [0] if f[0] == 0 else []
    while f[0] == 0:
        f.pop(0)
    if len(f) > 1:
        inv = pow(f[-1], -1, p)
        g = [(c * inv) % p for c in f]
        if len(g) > 2:
            frob = _pow_linear(0, p, g, p) + [0]  # t^p mod g, padded to the degree of t
            frob[1] -= 1
            g = poly_gcd(g, frob, p)
        _split_roots(g, p, roots)
    return sorted(roots)


def _split_roots(g: list[int], p: int, out: list[int], rng: random.Random | None = None) -> None:
    # g is monic and a product of distinct linear factors t - r with r != 0
    # (over F_2 that leaves at most t - 1, so the odd-p split never runs);
    # the rng is seeded by the first g that splits and handed to its parts
    while len(g) > 2:
        if rng is None:
            rng = random.Random(hash(tuple(g)))
        h = _pow_linear(rng.randrange(p), (p - 1) // 2, g, p)
        h[0] -= 1
        part = poly_gcd(g, h, p)
        if 1 < len(part) < len(g):
            _split_roots(part, p, out, rng)
            g = _poly_divmod(g, part, p)[0]
    if len(g) == 2:
        out.append((-g[0]) % p)


def _pow_linear(a: int, e: int, f: list[int], p: int) -> list[int]:
    """(t + a)^e mod the monic f of degree n >= 1, as n coefficients.

    A polynomial is packed into one integer with w bits per coefficient
    (Kronecker substitution), so a squaring is one big-integer product.
    Its terms t^k with k >= n are folded back with packed rows t^k mod f.
    A w-bit slot holds 2n*p^3: a square's n products of residues, times
    t + a, plus the fold, so no slot carries into the next.
    """
    n = len(f) - 1
    w = (2 * n * p**3).bit_length()
    mask, low = (1 << w) - 1, (1 << (w * n)) - 1
    rows, row = [], [(-c) % p for c in f[:n]]  # row = t^n mod f
    for _ in range(n):
        rows.append(sum(c << (w * i) for i, c in enumerate(row)))
        row = [(v - row[-1] * c) % p for v, c in zip([0] + row, f[:n])]
    packed = 1
    for bit in bin(e)[2:]:
        high = packed * packed
        if bit == "1":
            high = (high << w) + a * high
        acc, high = high & low, high >> (w * n)
        for r in rows:
            if not high:
                break
            acc += ((high & mask) % p) * r
            high >>= w
        packed = 0
        for i in range(n - 1, -1, -1):
            packed = (packed << w) | ((acc >> (w * i)) & mask) % p
    return [(packed >> (w * i)) & mask for i in range(n)]


def poly_gcd(a, b, p: int) -> list[int]:
    """Monic gcd of two coefficient lists mod p."""
    fa = poly_trim([int(c) % p for c in a])
    fb = poly_trim([int(c) % p for c in b])
    while fb:
        fa, fb = fb, _poly_divmod(fa, fb, p)[1]
    if fa:
        inv = pow(fa[-1], -1, p)
        fa = [(c * inv) % p for c in fa]
    return fa


def poly_resultant(a, b, p: int) -> int:
    """Res(a, b) mod p of two coefficient lists, by the Euclidean algorithm.

    With m = deg a, n = deg b and r = a mod b of degree k,
    Res(a, b) = (-1)^(mn) lc(b)^(m-k) Res(b, r), and Res(a, c) = c^m for a
    constant c (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6).
    A zero argument gives 0.
    """
    fa = poly_trim([int(c) % p for c in a])
    fb = poly_trim([int(c) % p for c in b])
    if not fa or not fb:
        return 0
    result = 1
    while len(fb) > 1:
        m, n = len(fa) - 1, len(fb) - 1
        r = _poly_divmod(fa, fb, p)[1]
        if not r:
            return 0
        if m * n % 2:
            result = -result
        result = result * pow(fb[-1], m - len(r) + 1, p) % p
        fa, fb = fb, r
    return result * pow(fb[0], len(fa) - 1, p) % p


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b, both reduced mod p."""
    a = a[:]
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        factor = (a[-1] * inv) % p
        shift = len(a) - len(b)
        quot[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a = poly_trim(a)
    return quot, a


def interpolate(xs, ys, p: int) -> list[int]:
    """Coefficients of the unique poly of degree < len(xs) through the nodes."""
    xs = [int(x) % p for x in xs]
    ys = [int(y) % p for y in ys]
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation nodes must be distinct")
    n = len(xs)
    # Newton's divided differences, exact mod p.
    coeffs = ys[:]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            denom = (xs[i] - xs[i - j]) % p
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) * pow(denom, -1, p) % p
    # Expand the Newton form into the monomial basis, Horner style.
    out = [coeffs[n - 1]]
    for i in range(n - 2, -1, -1):
        shifted = [0] + out  # out * x
        scaled = [(-xs[i] * c) % p for c in out] + [0]  # out * (-x_i)
        out = [(a + b) % p for a, b in zip(shifted, scaled)]
        out[0] = (out[0] + coeffs[i]) % p
    return poly_trim(out)
