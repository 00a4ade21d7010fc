"""charseq benchmark: four closed-loop workloads, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload {corpus,measure,search,cli} \
        --seed N --seconds S --trace {0,1}

Each round runs in a fresh interpreter, so charseq's module caches start
empty as they do for a user.  Rounds run one after another (one caller,
one process at a time) until the next would end past ``--seconds``; the
``cli`` workload always runs at least six rounds.  Every output is
checked by checks.py.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same rounds with every layer wrapped in spans and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, and the spans of a traced run, go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("corpus", "measure", "search", "cli")
# Nearest-rank percentile reported as op_tail_ms.  corpus (10 checks) and
# measure (18 groups) hold fewer than 40 operations, so there the value is
# the slowest operation.  cli's p83 is the highest percentile with ten of
# its 60 operations beyond it.  search uses p90, not p98.5: its ten slowest
# operations last about 0.1 s each, and on a machine whose speed moves in
# bursts of a second or two p98.5 spread 0.31, 0.20 and 0.41 between
# quartiles in three sets of ten seeds, p90 0.08, 0.24 and 0.18.
TAIL_PERCENTILE = {"corpus": 100.0, "measure": 100.0, "search": 90.0, "cli": 83.0}
MIN_ROUNDS = {"corpus": 1, "measure": 1, "search": 1, "cli": 6}
# Set-up samples per run, half taken before the rounds and the rest after,
# so that no single slow spell of the machine covers them all.  A sample
# costs about 0.2 s, except on measure, where it costs about 4 s.
SETUP_SAMPLES = {"corpus": 15, "measure": 3, "search": 15, "cli": 15}
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

# The cli script: (name, arguments).  Files are relative to the round's
# directory; c4/c6 are p=10007 curves, c101 a p=101 quartic.
CLI_TARGET = "2,3,3,4"
CLI_SCRIPT = (
    ("rcs_random4", ("rcs", "--curve", "c4.txt", "--random", "30", "--seed", "{seed}", "--out", "y4.txt")),
    ("rcs_points4", ("rcs", "--curve", "c4.txt", "--points", "y4.txt")),
    ("rcs_abs4", ("rcs", "--points", "y4.txt", "--abs")),
    ("dim4", ("dim", "--curve", "c4.txt", "--points", "y4.txt")),
    ("rcs_random6", ("rcs", "--curve", "c6.txt", "--random", "30", "--seed", "{seed}", "--out", "y6.txt")),
    ("rcs_points6", ("rcs", "--curve", "c6.txt", "--points", "y6.txt")),
    ("dim6", ("dim", "--curve", "c6.txt", "--points", "y6.txt")),
    ("realize", ("realize", "--curve", "c101.txt", "--target", CLI_TARGET, "--seed", "{seed}", "--out", "r.txt")),
    ("filtration", ("filtration", "--curve", "c101.txt", "--points", "r.txt", "--level", "4")),
    ("scan", ("conjecture-scan", "--curve", "c4.txt", "--s", "1", "--trials", "20", "--seed", "{seed}")),
)
CLI_FILES = ("c4.txt", "c6.txt", "c101.txt", "y4.txt", "y6.txt", "r.txt")


class BenchError(Exception):
    """The benchmark itself could not run (no program, a crashed worker)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(argv, deadline: float, cwd: Path, stderr=None):
    """Run one child to its end and return (seconds to its first stdout
    line, that line, the rest of stdout, exit code, peak RSS in MB, seconds
    to exit).  The child is killed at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, cwd=cwd, env=child_env())
    timer = threading.Timer(max(deadline - t0, 0.1), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return ready, first, rest, proc.returncode, usage.ru_maxrss / 1024, elapsed


def worker(workload: str, seed: int, mode: str, deadline: float, trace_path="-", extra=()):
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(trace_path), *extra]
    ready, first, rest, code, rss, _ = spawn(argv, deadline, ROOT)
    if first.strip() != b"ready" or code != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with code {code} before finishing")
    payload = json.loads(rest.splitlines()[-1]) if rest.strip() else {}
    return ready, payload, rss


# --- rounds ---


def trace_file(name: str) -> Path:
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    return OUT / "trace" / name


def setup_samples(workload, seed, count, deadline, extra=()) -> list[float]:
    return [worker(workload, seed, "setup", deadline, "-", extra)[0] for _ in range(count)]


def worker_rounds(workload, seed, seconds, trace, deadline):
    setups = [] if trace else setup_samples(workload, seed, SETUP_SAMPLES[workload] // 2, deadline)
    rounds = []
    start = time.perf_counter()
    while True:
        trace_path = trace_file(f"{workload}-seed{seed}-round{len(rounds)}.json.gz") if trace else "-"
        setup_s, payload, rss = worker(workload, seed, "trace" if trace else "run", deadline, trace_path)
        ops = payload["ops"]
        rounds.append(
            {
                "setup_s": setup_s,
                "wall_s": payload["wall_s"],
                "rss_mb": rss,
                "op_s": [op["s"] for op in ops],
                "failed": [op["name"] for op in ops if "error" in op],
                "outputs": [op.get("output") for op in ops],
                "errors": [op["error"] for op in ops if "error" in op],
                "trace": payload.get("trace"),
            }
        )
        if _enough(rounds, start, seconds, MIN_ROUNDS[workload]):
            break
    setups += [r["setup_s"] for r in rounds]
    if not trace:
        setups += setup_samples(workload, seed, max(SETUP_SAMPLES[workload] - len(setups), 0), deadline)
    return rounds, setups


def _enough(rounds, start, seconds, min_rounds) -> bool:
    elapsed = time.perf_counter() - start
    return len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds


def cli_rounds(seed, seconds, trace, deadline):
    directory = OUT / f"cli-seed{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    extra = [str(directory)]
    setups = [] if trace else setup_samples("cli", seed, SETUP_SAMPLES["cli"] // 2, deadline, extra)
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            r = len(rounds)
            for name in CLI_FILES:
                (directory / name).unlink(missing_ok=True)
            trace_path = trace_file(f"cli-seed{seed}-round{r}-setup.json.gz") if trace else "-"
            setup_s, payload, _ = worker("cli", seed, "trace" if trace else "run", deadline, trace_path, extra)
            summaries = [payload["trace"]] if trace else []
            calls, op_s, rss, import_s, errors = {}, [], [], [], []
            t_round = time.perf_counter()
            for name, args in CLI_SCRIPT:
                args = [a.format(seed=seed) for a in args]
                if trace:
                    summary_path = directory / f"{name}.trace.json"
                    spans = trace_file(f"cli-seed{seed}-round{r}-{name}.json.gz")
                    argv = [sys.executable, str(HERE / "cli_traced.py"), str(summary_path), str(spans), *args]
                else:
                    argv = [sys.executable, "-m", "charseq.cli", *args]
                err_path = directory / f"{name}.stderr"
                with open(err_path, "wb") as err:
                    _, first, rest, code, peak, elapsed = spawn(argv, deadline, directory, stderr=err)
                calls[name] = (code, first + rest)
                if code != 0:
                    errors.append(f"{name}: exit {code}: {err_path.read_text(errors='replace')[-300:]}")
                op_s.append(elapsed)
                rss.append(peak)
                if trace and summary_path.exists():
                    summary = json.loads(summary_path.read_text(encoding="utf-8"))
                    import_s.append(summary.pop("import_s"))
                    summaries.append(summary)
            wall = time.perf_counter() - t_round
            files = {name: (directory / name).read_bytes() if (directory / name).exists() else b"" for name in CLI_FILES}
            problems = checks.check_cli(calls, directory, CLI_TARGET)
            rounds.append(
                {
                    "setup_s": setup_s,
                    "wall_s": wall,
                    "rss_mb": max(rss),
                    "op_s": op_s,
                    "failed": [name for name, (code, _) in calls.items() if code != 0],
                    "errors": errors,
                    "outputs": [{"stdout": out.decode("utf-8", "replace"), "code": code} for code, out in calls.values()],
                    "files": {k: v.decode("utf-8", "replace") for k, v in files.items()},
                    "problems": problems,
                    "trace": tracer.merge(summaries) if trace else None,
                    "import_s": statistics.median(import_s) if import_s else None,
                }
            )
            if _enough(rounds, start, seconds, MIN_ROUNDS["cli"]):
                break
        setups += [r["setup_s"] for r in rounds]
        if not trace:
            setups += setup_samples("cli", seed, max(SETUP_SAMPLES["cli"] - len(setups), 0), deadline, extra)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return rounds, setups


# --- checking ---


def judge(workload: str, rounds: list[dict]) -> list[str]:
    problems = []
    first = rounds[0]
    for i, rnd in enumerate(rounds):
        problems += [f"round {i}: operation failed: {e}" for e in rnd["errors"]]
        if workload == "cli":
            problems += [f"round {i}: {p}" for p in rnd["problems"]]
            if i and rnd["outputs"] != first["outputs"]:
                problems.append(f"round {i}: cli stdout differs from round 0")
            if i and rnd["files"] != first["files"]:
                problems.append(f"round {i}: curve or point files differ from round 0")
            continue
        outputs = [out for out in rnd["outputs"] if out is not None]
        if workload == "corpus":
            problems += checks.check_corpus(outputs)
        elif workload == "measure":
            for out in outputs:
                problems += checks.check_measure(out)
        elif workload == "search":
            if len(rnd["outputs"]) != search_job_count():
                problems.append(f"{len(rnd['outputs'])} realize calls, {search_job_count()} targets x seeds")
            for out in outputs:
                problems += checks.check_search(out)
        if i and rnd["outputs"] != first["outputs"]:
            problems.append(f"round {i}: outputs differ from round 0 on the same inputs")
    return problems


def search_job_count() -> int:
    """Every admissible target, once per realize seed."""
    import worker as w

    targets = sum(len(checks.admissible_targets(d, w.SEARCH_MAX_TARGET_DEGREE)) for d in w.SEARCH_DEGREES)
    return w.SEARCH_SEEDS_PER_TARGET * targets


# --- metrics ---


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def end_to_end(workload, rounds, setups) -> dict:
    op_s = [s for r in rounds for s in r["op_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_ms": statistics.median(op_s) * 1000,
        "op_tail_ms": percentile(op_s, TAIL_PERCENTILE[workload]) * 1000,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(rounds) -> tuple[dict, list[str]]:
    per_round = [tracer.layer_metrics(r["trace"], r.get("import_s")) for r in rounds]
    out, problems = {}, []
    for name in tracer.layer_metric_names():
        values = [m[name] for m in per_round]
        if _is_time(name):
            out[name] = {"value": statistics.median(values), "unit": "s"}
            continue
        if any(v != values[0] for v in values):
            problems.append(f"{name} differs between rounds on the same inputs: {values}")
        out[name] = {"value": values[0], "unit": "ratio" if name.endswith("ratio") else "count"}
    return out, problems


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


# --- entry point ---


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "charseq" / "__init__.py").is_file():
        print(f"error: no charseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.workload == "cli":
            rounds, setups = cli_rounds(args.seed, args.seconds, bool(args.trace), deadline)
        else:
            rounds, setups = worker_rounds(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    problems = judge(args.workload, rounds)
    if args.trace:
        metrics, trace_problems = per_layer(rounds)
        problems += trace_problems
    else:
        metrics = end_to_end(args.workload, rounds, setups)
    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=len(rounds), setups_s=setups, problems=problems,
                  errors=[e for r in rounds for e in r["errors"]],
                  round_wall_s=[r["wall_s"] for r in rounds], op_s=[r["op_s"] for r in rounds])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
