"""Output checks computed apart from charseq.

Nothing here imports charseq or numpy: targets are enumerated by brute
force, curves are evaluated and ranks are taken in plain Python mod p, and
the genus and r(alpha) come from their formulas.  Each ``check_*``
function returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

# The counts each verify check reaches with its default parameters.
CORPUS_COUNTS = {
    "width_theorem_on_measured_groups": {"groups": 200},
    "liaison_theorem": {"bipartitions": 240},
    "section_shift": {"pairs": 50},
    "minimality_and_halphen": {"groups": 200},
    "conjecture_scanner": {"trials": 500},
}
CORPUS_ZERO_KEYS = ("failures", "violations", "problems", "domination_failures", "genus_failures")
CORPUS_CHECK_COUNT = 10


def admissible_targets(d: int, max_degree: int) -> list[tuple[int, ...]]:
    """Sequences of length d with n_i >= i, steps in {0, 1} and degree
    sum(n_i - i) <= max_degree, by trying every first entry and step pattern."""
    out = []
    for n0 in range(max_degree + 1):
        for steps in product((0, 1), repeat=d - 1):
            seq = [n0]
            for step in steps:
                seq.append(seq[-1] + step)
            if all(n >= i for i, n in enumerate(seq)) and seq_degree(seq) <= max_degree:
                out.append(tuple(seq))
    return sorted(out)


def seq_degree(seq) -> int:
    return sum(n - i for i, n in enumerate(seq))


def realization_target_count() -> int:
    """Admissible targets of length 4 or 5 and degree <= 10."""
    return sum(len(admissible_targets(d, 10)) for d in (4, 5))


def eval_form(terms, point, p: int) -> int:
    x, y, z = point
    return sum(c * pow(x, a, p) * pow(y, b, p) * pow(z, e, p) for a, b, e, c in terms) % p


def rank_mod(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = f * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def hilbert_value(points, l: int, p: int) -> int:
    """Rank of the degree-l evaluation matrix of the points."""
    monomials = [(a, b, l - a - b) for a in range(l, -1, -1) for b in range(l - a, -1, -1)]
    return rank_mod(
        [[pow(x, a, p) * pow(y, b, p) * pow(z, e, p) % p for a, b, e in monomials] for x, y, z in points],
        p,
    )


def relative_sequence(points, d: int, p: int) -> tuple[int, ...]:
    """The relative sequence of a point group on a degree-d plane curve:
    #{i : n_i <= l} = min(l+1, d) - (phi_Y(l) - phi_Y(l-1))."""
    entries: list[int] = []
    prev_phi, l = 0, 0
    while len(entries) < d:
        phi = hilbert_value(points, l, p) if prev_phi < len(points) else len(points)
        below = min(l + 1, d) - (phi - prev_phi)
        entries += [l] * (below - len(entries))
        prev_phi, l = phi, l + 1
    return tuple(entries)


def genus(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def r_alpha(d: int, alpha: int) -> int:
    """The paper's bound on the dimension of a complete linear system of
    degree alpha = s*d - r (0 <= r < d) on a plane curve of degree d."""
    s = -(-alpha // d)
    r = s * d - alpha
    if s >= d - 2:
        return alpha - genus(d)
    if r <= s + 1:
        return s * (s + 3) // 2 - r
    return (s - 1) * (s + 2) // 2


def _admissible_shape(rel, size: int) -> list[str]:
    problems = []
    if seq_degree(rel) != size:
        problems.append(f"sum(n_i - i) = {seq_degree(rel)}, group has {size} points")
    if any(n < i for i, n in enumerate(rel)):
        problems.append(f"entry below its index in {rel}")
    if any(not 0 <= b - a <= 1 for a, b in zip(rel, rel[1:])):
        problems.append(f"step outside {{0, 1}} in {rel}")
    return problems


# --- per-workload checks ---


def check_corpus(outputs: list[dict]) -> list[str]:
    """``outputs`` is the ``to_json()`` of every verify check, in order."""
    problems = []
    if len(outputs) != CORPUS_CHECK_COUNT:
        problems.append(f"{len(outputs)} checks ran, expected {CORPUS_CHECK_COUNT}")
    for out in outputs:
        name = out.get("name")
        if out.get("passed") is not True:
            problems.append(f"{name} did not pass: {out.get('detail')}")
        for key in CORPUS_ZERO_KEYS:
            if out.get(key, 0) != 0:
                problems.append(f"{name}: {key} = {out[key]}")
        for key, want in CORPUS_COUNTS.get(name, {}).items():
            if out.get(key) != want:
                problems.append(f"{name}: {key} = {out.get(key)}, expected {want}")
        if name == "realization_theorem" and out.get("targets") != realization_target_count():
            problems.append(f"realization targets = {out.get('targets')}, expected {realization_target_count()}")
    return problems


def check_measure(out: dict) -> list[str]:
    """One measured group: relative and absolute sequences and dimension."""
    d, size, rel, ab, dim = out["d"], out["size"], out["rel"], out["abs"], out["dim"]
    problems = _admissible_shape(rel, size) if len(rel) == d else [f"relative sequence {rel} has length != {d}"]
    top = max(list(rel) + list(ab)) + 1
    for l in range(top + 1):
        lhs = sum(1 for m in ab if m <= l)
        rhs = sum(max(0, l - i + 1) - max(0, l - n + 1) for i, n in enumerate(rel))
        if lhs != rhs:
            problems.append(f"degree {l}: {lhs} absolute entries <= l, relative sequence gives {rhs}")
            break
    g = genus(d)
    if size > 2 * g - 2:
        if dim != size - g:
            problems.append(f"dim {dim} != |Y| - g = {size - g}")
    elif dim > r_alpha(d, size):
        problems.append(f"dim {dim} > r(alpha) = {r_alpha(d, size)}")
    return problems


def check_search(out: dict) -> list[str]:
    """One realized group: size, points on X, and its measured sequence."""
    p, terms, target, points = out["p"], out["terms"], tuple(out["target"]), [tuple(q) for q in out["points"]]
    d = len(target)
    problems = []
    if len(set(points)) != len(points) or len(points) != seq_degree(target):
        problems.append(f"{len(set(points))} distinct points, target degree {seq_degree(target)}")
    off = [q for q in points if eval_form(terms, q, p) != 0]
    if off:
        problems.append(f"{len(off)} point(s) off the curve, first {off[0]}")
    if not problems:
        got = relative_sequence(points, d, p)
        if got != target:
            problems.append(f"group measures {got}, target {target}")
    return problems


def read_rows(path) -> tuple[int, list[tuple[int, ...]]]:
    """A curve or point file: the modulus and the integer rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh.read().strip().splitlines()]
    p = int(lines[0][0][2:])
    return p, [tuple(int(v) for v in row) for row in lines[1:] if row]


def check_points_file(points_path, curve_path, count: int) -> list[str]:
    p, terms = read_rows(curve_path)
    q, points = read_rows(points_path)
    problems = []
    if q != p:
        problems.append(f"{points_path}: modulus {q}, curve has {p}")
    if len(set(points)) != count:
        problems.append(f"{points_path}: {len(set(points))} distinct points, expected {count}")
    off = [pt for pt in points if eval_form(terms, pt, p) != 0]
    if off:
        problems.append(f"{points_path}: {len(off)} point(s) off the curve, first {off[0]}")
    return problems


def check_rel_json(payload: dict, d: int, size: int) -> list[str]:
    rel = tuple(int(v) for v in payload["rel"].split(","))
    if len(rel) != d:
        return [f"relative sequence {rel} has length != {d}"]
    return _admissible_shape(rel, size)


def check_cli(calls: dict, directory, target: str) -> list[str]:
    """One round of the cli script: ``calls`` maps each call's name to its
    (exit code, stdout bytes); the written files sit in ``directory``."""
    problems, out = [], {}
    for name, (code, stdout) in calls.items():
        if code != 0:
            problems.append(f"{name}: exit code {code}")
            continue
        try:
            out[name] = json.loads(stdout)
        except ValueError:
            problems.append(f"{name}: stdout is not JSON: {stdout[:80]!r}")
    if problems:
        return problems
    path = Path(directory)
    degree = seq_degree([int(v) for v in target.split(",")])
    problems += check_points_file(path / "y4.txt", path / "c4.txt", 30)
    problems += check_points_file(path / "y6.txt", path / "c6.txt", 30)
    problems += check_points_file(path / "r.txt", path / "c101.txt", degree)
    for name, d, size in (("rcs_points4", 4, 30), ("rcs_points6", 6, 30)):
        problems += [f"{name}: {p}" for p in check_rel_json(out[name], d, size)]
    for name, d, size in (("dim4", 4, 30), ("dim6", 6, 30)):
        if out[name]["dim"] != size - genus(d):
            problems.append(f"{name}: dim {out[name]['dim']} != |Y| - g = {size - genus(d)}")
    rel4 = [int(v) for v in out["rcs_points4"]["rel"].split(",")]
    ab4 = [int(v) for v in out["rcs_abs4"]["entries"].split(",")]
    problems += [f"rcs_abs4: {p}" for p in check_measure({"d": 4, "size": 30, "rel": rel4, "abs": ab4, "dim": 30 - genus(4)})]
    if out["realize"]["rel"] != target or out["realize"]["points"] != degree:
        problems.append(f"realize reports {out['realize']}, target {target}")
    witness = out["filtration"].get("witness", "missing")
    if witness == "missing":
        problems.append("filtration: no witness field")
    elif witness is not None:
        p, terms = read_rows(path / "c101.txt")
        if eval_form(terms, tuple(int(v) for v in witness.split()), p) != 0:
            problems.append(f"filtration: witness {witness} is off the curve")
    scan = out["scan"]
    if scan.get("violations") != 0 or len(scan.get("trials", ())) != 20:
        problems.append(f"conjecture-scan: {scan.get('violations')} violations in {len(scan.get('trials', ()))} trials")
    return problems
