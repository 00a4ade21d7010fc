"""One round of one workload, in a fresh interpreter.

Usage (run.py starts it; it is not meant for direct use):

    python3 perfbench/worker.py <workload> <seed> <mode> <trace file or -> [<cli directory>]

``mode`` is ``setup`` (build the inputs, then exit), ``run`` (build the
inputs, then run every operation once) or ``trace`` (the same as ``run``,
with every layer wrapped in spans).  The worker prints ``ready`` once its
inputs are built, so the parent can time set-up from process start, then
one JSON line with each operation's time and output.  It checks nothing:
run.py and checks.py judge the outputs.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (the benchmark's own target enumeration)

MEASURE_P = 10007
# (curve degree, group sizes), two groups of each size: rank work grows fast
# with size, so the grid reaches well past 100 points while most groups stay
# cheap.  The two octic groups of 130 points sit alone in the middle of the
# times, so the median operation is always one of them.
MEASURE_GRID = ((4, (40, 70, 120)), (6, (60, 140, 160)), (8, (60, 130, 180)))
MEASURE_GROUPS_PER_SIZE = 2
SEARCH_P = 101
SEARCH_DEGREES = (4, 5)
SEARCH_MAX_TARGET_DEGREE = 18
# realize seeds 0..7 of every target, the same in every run: which seeds a
# run draws moves its time by up to a quarter (README, "Workloads").
SEARCH_SEEDS_PER_TARGET = 8
CLI_CURVES = (("c4.txt", MEASURE_P, 4), ("c6.txt", MEASURE_P, 6), ("c101.txt", SEARCH_P, 4))


def _mix(*parts: int) -> int:
    acc = 17
    for v in parts:
        acc = (acc * 1_000_003 + v) % (1 << 61)
    return acc


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


# --- corpus: the ten verify checks, cold ---


def setup_corpus(seed: int) -> dict:
    from charseq import verify

    return {"checks": verify.ALL_CHECKS}


def ops_corpus(inputs: dict, tracer):
    for name, fn in inputs["checks"].items():
        yield name, fn if tracer is None else tracer.wrap(f"verify.{name}", fn)


def output_corpus(result) -> dict:
    return result.to_json()


# --- measure: ranks of prebuilt groups ---


def setup_measure(seed: int) -> dict:
    from charseq.constructions import random_smooth_curve
    from charseq.pointlab import is_singular_point, point_group, point_pool

    groups = []
    for d, sizes in MEASURE_GRID:
        X = random_smooth_curve(MEASURE_P, d, seed=_mix(seed, d))
        pool = [q for q in point_pool(X, max(sizes) + 10) if not is_singular_point(X, q)]
        rng = random.Random(_mix(seed, d, 1))
        for n in sizes:
            for _ in range(MEASURE_GROUPS_PER_SIZE):
                groups.append((X, point_group(MEASURE_P, rng.sample(pool, n), X)))
    return {"groups": groups}


def ops_measure(inputs: dict, tracer):
    from charseq.pointlab import dim_linear_system, measure_abs, measure_rcs

    for X, Y in inputs["groups"]:

        def op(X=X, Y=Y):
            return X, Y, measure_rcs(X, Y), measure_abs(Y), dim_linear_system(X, Y)

        yield f"d{X.degree}-n{Y.size}", op


def output_measure(result) -> dict:
    X, Y, rel, ab, dim = result
    return {"d": X.degree, "size": Y.size, "rel": list(rel.entries), "abs": list(ab.entries), "dim": dim}


# --- search: realize every admissible target on the F_101 corpus curves ---


def setup_search(seed: int) -> dict:
    """The jobs do not depend on ``seed``, like the corpus's checks."""
    from charseq.verify import corpus_curve

    curves = {d: corpus_curve(SEARCH_P, d) for d in SEARCH_DEGREES}
    jobs = []
    for k in range(SEARCH_SEEDS_PER_TARGET):
        for d in SEARCH_DEGREES:
            for i, target in enumerate(checks.admissible_targets(d, SEARCH_MAX_TARGET_DEGREE)):
                jobs.append((curves[d], target, _mix(k, d, i)))
    return {"jobs": jobs}


def ops_search(inputs: dict, tracer):
    from charseq.realize import realize

    for X, target, rseed in inputs["jobs"]:

        def op(X=X, target=target, rseed=rseed):
            return X, target, realize(X, target, seed=rseed)

        yield f"d{X.degree}-{','.join(map(str, target))}-{rseed}", op


def output_search(result) -> dict:
    X, target, group = result
    return {
        "terms": [list(t) for t in X.terms],
        "p": X.p,
        "target": list(target),
        "points": [list(q.coords) for q in group.points],
    }


# --- cli: curve files for the CLI script ---


def setup_cli(seed: int, directory: str) -> dict:
    from charseq.constructions import random_smooth_curve
    from charseq.pointlab import save_curve

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, p, d in CLI_CURVES:
        save_curve(out / name, random_smooth_curve(p, d, seed=_mix(seed, p, d)))
    return {}


WORKLOADS = {
    "corpus": (setup_corpus, ops_corpus, output_corpus),
    "measure": (setup_measure, ops_measure, output_measure),
    "search": (setup_search, ops_search, output_search),
}


def main(argv: list[str]) -> int:
    workload, seed, mode, trace_path, extra = argv[0], int(argv[1]), argv[2], argv[3], argv[4:]
    tracer = None
    if mode == "trace":
        import charseq.constructions  # noqa: F401  (load every traced module)
        import charseq.verify  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if workload == "cli":
        setup_cli(seed, extra[0])
        _ready()
        return 0 if mode == "setup" else _finish(tracer, trace_path, {"ops": []})
    setup, ops, output = WORKLOADS[workload]
    inputs = setup(seed)
    _ready()
    if mode == "setup":
        return 0
    records = []
    start = time.perf_counter()
    for name, op in ops(inputs, tracer):
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception as err:  # a failed operation is counted, never fatal
            records.append({"name": name, "s": time.perf_counter() - t0, "error": repr(err)})
            continue
        records.append({"name": name, "s": time.perf_counter() - t0, "result": result})
    wall = time.perf_counter() - start
    for rec in records:
        if "result" in rec:
            rec["output"] = output(rec.pop("result"))
    return _finish(tracer, trace_path, {"ops": records, "wall_s": wall})


def _finish(tracer, trace_path, payload: dict) -> int:
    if tracer is not None:
        payload["trace"] = tracer.summary()
        tracer.write(trace_path)
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
