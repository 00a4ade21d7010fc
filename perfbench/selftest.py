"""Self-test of the benchmark: its checkers and its counters.

Usage (from the repository root): python3 perfbench/selftest.py

1. Runs one traced round of every workload twice with one seed and
   requires identical ``.calls`` and work counts in the two runs.
2. Feeds the real outputs of those rounds to the checkers, which must
   accept them, then corrupts them (one sequence entry bumped, one count
   changed, one point moved off its curve, one CLI output changed) and
   requires each checker to reject the corrupted copy.

Takes about four minutes; exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS  " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def traced_round(workload: str) -> tuple[dict, dict]:
    deadline = time.perf_counter() + run.DEADLINE_S
    if workload == "cli":
        rounds, _ = run.cli_rounds(SEED, 1, True, deadline)
    else:
        rounds, _ = run.worker_rounds(workload, SEED, 1, True, deadline)
    metrics, problems = run.per_layer(rounds[:1])
    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] != "s"}
    return rounds[0], {"counts": counts, "problems": problems + run.judge(workload, rounds)}


def test_counts_repeat() -> dict:
    first_rounds = {}
    for workload in run.WORKLOADS:
        a_round, a = traced_round(workload)
        _, b = traced_round(workload)
        expect(not a["problems"], f"{workload}: traced round passes every output check")
        same = a["counts"] == b["counts"]
        diff = [k for k in a["counts"] if a["counts"][k] != b["counts"].get(k)]
        expect(same, f"{workload}: two traced runs give identical calls and work counts {diff[:5]}")
        expect(sum(v for k, v in a["counts"].items() if k.endswith(".calls")) > 0, f"{workload}: the trace saw calls")
        first_rounds[workload] = a_round
    return first_rounds


def test_corpus(rnd: dict) -> None:
    good = rnd["outputs"]
    expect(not checks.check_corpus(good), "corpus checker accepts the real outputs")
    for name, key, delta in (("realization_theorem", "targets", 1), ("liaison_theorem", "failures", 1),
                             ("section_shift", "pairs", -1), ("conjecture_scanner", "violations", 1)):
        bad = copy.deepcopy(good)
        out = next(o for o in bad if o["name"] == name)
        out[key] += delta
        expect(bool(checks.check_corpus(bad)), f"corpus checker rejects {name}.{key} changed by {delta}")
    bad = copy.deepcopy(good)
    bad[0]["passed"] = False
    expect(bool(checks.check_corpus(bad)), "corpus checker rejects a failed check")
    expect(bool(checks.check_corpus(good[:-1])), "corpus checker rejects a missing check")


def test_measure(rnd: dict) -> None:
    good = rnd["outputs"]
    expect(all(not checks.check_measure(o) for o in good), "measure checker accepts the real outputs")
    for field, index in (("rel", -1), ("rel", 0), ("abs", -1), ("abs", 0)):
        bad = copy.deepcopy(good[-1])
        bad[field][index] += 1
        expect(bool(checks.check_measure(bad)), f"measure checker rejects {field}[{index}] bumped")
    bad = copy.deepcopy(good[-1])
    bad["dim"] += 1
    expect(bool(checks.check_measure(bad)), "measure checker rejects a dimension off by one")


def test_search(rnd: dict) -> None:
    good = rnd["outputs"]
    sample = [o for o in good if len(o["points"]) >= 3][::50]
    expect(all(not checks.check_search(o) for o in good), "search checker accepts the real outputs")
    for out in sample:
        bad = copy.deepcopy(out)
        bad["points"][0][0] = (bad["points"][0][0] + 1) % bad["p"]
        expect(bool(checks.check_search(bad)), f"search checker rejects a point moved off the curve ({out['target']})")
        bad = copy.deepcopy(out)
        bad["target"][-1] += 1
        expect(bool(checks.check_search(bad)), f"search checker rejects a bumped target entry ({out['target']})")
    # the same group against another admissible target of the same degree
    out = next(o for o in sample if len(_same_degree(o["target"])) > 1)
    other = next(t for t in _same_degree(out["target"]) if t != tuple(out["target"]))
    expect(bool(checks.check_search(dict(out, target=list(other)))),
           f"search checker measures the group itself ({out['target']} -> {list(other)})")


def _same_degree(target) -> list[tuple[int, ...]]:
    degree = checks.seq_degree(target)
    return [t for t in checks.admissible_targets(len(target), degree) if checks.seq_degree(t) == degree]


def test_cli(rnd: dict) -> None:
    directory = run.OUT / "selftest-cli"

    def check(files: dict, outputs: list) -> list[str]:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        for name, text in files.items():
            (directory / name).write_text(text, encoding="utf-8")
        calls = {name: (o["code"], o["stdout"].encode()) for (name, _), o in zip(run.CLI_SCRIPT, outputs)}
        return checks.check_cli(calls, directory, run.CLI_TARGET)

    try:
        expect(not check(rnd["files"], rnd["outputs"]), "cli checker accepts the real outputs")
        for name in ("y4.txt", "y6.txt", "r.txt"):
            files = dict(rnd["files"])
            lines = files[name].splitlines()
            x, y, z = lines[1].split()
            lines[1] = f"{x} {y} {int(z) + 1}"
            files[name] = "\n".join(lines) + "\n"
            expect(bool(check(files, rnd["outputs"])), f"cli checker rejects a point of {name} moved off its curve")
        names = [name for name, _ in run.CLI_SCRIPT]
        for call, key in (("realize", "rel"), ("rcs_points4", "rel"), ("rcs_abs4", "entries")):
            outputs = copy.deepcopy(rnd["outputs"])
            i = names.index(call)
            payload = json.loads(outputs[i]["stdout"])
            entries = payload[key].split(",")
            entries[-1] = str(int(entries[-1]) + 1)
            payload[key] = ",".join(entries)
            outputs[i]["stdout"] = json.dumps(payload, sort_keys=True) + "\n"
            expect(bool(check(rnd["files"], outputs)), f"cli checker rejects {call} with {key} bumped")
        outputs = copy.deepcopy(rnd["outputs"])
        outputs[names.index("dim4")]["code"] = 1
        expect(bool(check(rnd["files"], outputs)), "cli checker rejects a non-zero exit")
        later = dict(rnd, outputs=copy.deepcopy(rnd["outputs"]))
        later["outputs"][names.index("scan")]["stdout"] += " "
        expect(bool(run.judge("cli", [rnd, later])), "cli judge rejects stdout that differs between rounds")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> int:
    rounds = test_counts_repeat()
    test_corpus(rounds["corpus"])
    test_measure(rounds["measure"])
    test_search(rounds["search"])
    test_cli(rounds["cli"])
    print(f"{len(FAILURES)} failed expectation(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
