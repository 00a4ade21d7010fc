"""Acceptance suite: every criterion runs at exact integer equality.

Each test executes one corpus check from ``charseq.verify`` and prints a
single PASS/FAIL line (visible with ``pytest -s`` or on failure).  The same
checks back the ``charseq verify`` CLI subcommand.
"""

import pytest

from charseq import verify

# Each check's full report, detail and counts, pinned so that a change to any
# of them fails here instead of waiting for a byte comparison of the CLI.
RECORDED = {
    "conversion_round_trip": {
        "name": "conversion_round_trip",
        "passed": True,
        "detail": "1024 sequences round-tripped exactly",
        "total": 1024,
        "failures": 0,
    },
    "width_theorem": {
        "name": "width_theorem_on_measured_groups",
        "passed": True,
        "detail": "200 measured plane groups satisfy the width constraints",
        "groups": 200,
        "violations": 0,
    },
    "complete_intersections": {
        "name": "complete_intersections",
        "passed": True,
        "detail": "measured CI groups match the monomial-box sequences, all Gorenstein-symmetric",
        "cases": 6,
        "failures": 0,
    },
    "liaison_theorem": {
        "name": "liaison_theorem",
        "passed": True,
        "detail": "240 random bipartitions linked exactly",
        "bipartitions": 240,
        "failures": 0,
    },
    "section_shift": {
        "name": "section_shift",
        "passed": True,
        "detail": "50 disjoint (Y, section) unions match the shift exactly",
        "pairs": 50,
        "failures": 0,
    },
    "minimality_and_halphen": {
        "name": "minimality_and_halphen",
        "passed": True,
        "detail": "200 groups dominate the minimal sequence; genus grid matches the bound exactly",
        "groups": 200,
        "domination_failures": 0,
        "genus_failures": 0,
    },
    "linear_system_bounds": {
        "name": "linear_system_bounds",
        "passed": True,
        "detail": "6 sections at the exact bound, 90 random groups under it (46 equality cases certified)",
        "sections": 6,
        "random": 90,
        "equalities": 46,
        "problems": 0,
    },
    "sextic_remark": {
        "name": "sextic_remark",
        "passed": True,
        "detail": "both nine-point configurations measure (3,3,4,4,5,5); the level-5 addition is impossible from the aligned one and lands on the four leftover conic points from the other",
        "problems": 0,
    },
    "realization_theorem": {
        "name": "realization_theorem",
        "passed": True,
        "detail": "all 45 admissible targets realized and re-measured exactly",
        "targets": 45,
        "failures": 0,
    },
    "conjecture_scanner": {
        "name": "conjecture_scanner",
        "passed": True,
        "detail": "500 trials, zero domination/connexity violations",
        "trials": 500,
        "violations": 0,
    },
}


def _run(number: int, name: str):
    result = verify.ALL_CHECKS[name]()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number}: {name} -- {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
    assert result.to_json() == RECORDED[name]
    return result


def test_criterion_01_conversion_round_trip():
    result = _run(1, "conversion_round_trip")
    assert result.counts["total"] >= 1000
    assert result.counts["failures"] == 0


def test_criterion_02_width_theorem():
    result = _run(2, "width_theorem")
    assert result.counts["groups"] >= 200
    assert result.counts["violations"] == 0


def test_criterion_03_complete_intersections():
    result = _run(3, "complete_intersections")
    assert result.counts["cases"] == 6  # all 2 <= d1 <= d2 <= 4


def test_criterion_04_liaison_theorem():
    result = _run(4, "liaison_theorem")
    assert result.counts["bipartitions"] == 240  # 4 degrees x 3 sections x 20
    assert result.counts["failures"] == 0


def test_criterion_05_section_shift():
    result = _run(5, "section_shift")
    assert result.counts["pairs"] == 50


def test_criterion_06_minimality_and_halphen():
    result = _run(6, "minimality_and_halphen")
    assert result.counts["groups"] >= 200
    assert result.counts["domination_failures"] == 0
    assert result.counts["genus_failures"] == 0


def test_criterion_07_linear_systems():
    result = _run(7, "linear_system_bounds")
    assert result.counts["problems"] == 0
    assert result.counts["sections"] == 6  # s = 1..d-3 for d = 4, 5, 6


def test_criterion_08_sextic_remark():
    _run(8, "sextic_remark")


def test_criterion_09_realization():
    result = _run(9, "realization_theorem")
    assert result.counts["targets"] == 45  # exhaustive: 19 at d=4, 26 at d=5
    assert result.counts["failures"] == 0


def test_criterion_10_conjecture_scanner():
    result = _run(10, "conjecture_scanner")
    assert result.counts["trials"] == 500
    assert result.counts["violations"] == 0


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
