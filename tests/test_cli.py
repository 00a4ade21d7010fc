"""Command-line surface: examples, coverage of the operation map, determinism."""

import json

import pytest

from charseq.cli import build_parser, main
from charseq.constructions import fermat_curve, split_line
from charseq.pointlab import save_curve

P = 10007


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_macaulay_examples(capsys):
    assert run_json(capsys, "macaulay", "--c", "5", "--d", "2", "--next") == {"next": 7}
    rep = run_json(capsys, "macaulay", "--c", "5", "--d", "2")
    assert rep["terms"] == [[3, 2], [2, 1]]
    zero = run_json(capsys, "macaulay", "--zero-seq", "1,2,4")
    assert zero == {"ok": False, "violation": 2}


def test_minimal_and_link_examples(capsys):
    assert run_json(capsys, "minimal", "--d", "6", "--alpha", "13")["rel"] == "3,3,4,5,6,7"
    linked = run_json(
        capsys, "link", "--ambient", "0,1,2,3", "--rel", "2,2,3,3", "--s", "2"
    )
    assert linked["rel"] == "2,2,3,3"


def test_charseq_actions(capsys):
    out = run_json(capsys, "charseq", "--seq", "0,1,1,2", "--eval", "2")
    assert out["phi"] == 4
    out = run_json(capsys, "charseq", "--phi", "1,3,4,4,4", "--cone-dim", "1")
    assert out["entries"] == "0,1,1,2"
    out = run_json(capsys, "charseq", "--seq", "0,1,1,2", "--validate")
    assert out["passed"] is True
    out = run_json(capsys, "charseq", "--seq", "0,1,1,2", "--gorenstein")
    assert out["gorenstein_symmetric"] is True
    out = run_json(capsys, "charseq", "--seq", "0,1,1,2", "--cone-dim", "2", "--codim", "2", "--bound-codim2")
    assert out["within_bound"] is True
    out = run_json(capsys, "charseq", "--seq", "0,1,1,2", "--separation")
    assert out["separation_index"] == 0
    out = run_json(capsys, "charseq", "--seq", "0,1", "--included-in", "0,1,1,2")
    assert out["included"] is True
    out = run_json(capsys, "charseq", "--aligned-bound", "2", "--d", "6")
    assert out["bound"] == 4


def test_sequence_subcommands(capsys):
    assert run_json(capsys, "ci", "--degrees", "2,3")["entries"] == "0,1,1,2,2,3"
    out = run_json(capsys, "add-section", "--ambient", "0,1,2,3", "--rel", "2,2,3,3", "--s", "1")
    assert out["rel"] == "3,3,4,4"
    out = run_json(capsys, "split", "--ambient", "0,1,2,3", "--rel", "2,3,5,6", "--cone-dim", "2")
    assert out["high"]["entries"] == [5, 6]
    assert run_json(capsys, "genus", "--section", "0,1,1,2", "--alpha", "4")["genus"] == 1
    assert run_json(capsys, "halphen", "--alpha", "6", "--d", "3")["bound"] == 4
    assert run_json(capsys, "dim", "--r-alpha", "--d", "6", "--alpha", "13")["r_alpha"] == 5
    out = run_json(capsys, "classify", "--rel", "2,3,4,4,5,6", "--d", "6", "--alpha", "9", "--i", "4")
    assert out["case"] == "tail"
    out = run_json(capsys, "realize", "--check-admissible", "3,3,4,5,6,7")
    assert out["admissible"] is True
    out = run_json(capsys, "realize", "--add-case", "5", "--rel", "3,3,4,4,5,5")
    assert out["rel"] == "3,3,4,5,5,5"


def test_rcs_sequence_modes(capsys):
    out = run_json(capsys, "rcs", "--rel", "2,2,3,3", "--ambient", "0,1,2,3", "--cone-dim", "2", "--to-abs")
    assert out["entries"] == "0,1,1,2"
    out = run_json(capsys, "rcs", "--rel", "2,2,3,3", "--ambient", "0,1,2,3", "--degree")
    assert out["degree"] == 4
    out = run_json(capsys, "rcs", "--rel", "2,2,3,3", "--ambient", "0,1,2,3", "--cone-dim", "2", "--eval", "2")
    assert out["phi"] == 4
    out = run_json(capsys, "rcs", "--abs-seq", "0,1,1,2", "--ambient", "0,1,2,3", "--cone-dim", "2")
    assert out["rel"] == "2,2,3,3"
    out = run_json(capsys, "rcs", "--monomials", "3")
    assert len(out["monomials"]) == 10
    out = run_json(capsys, "rcs", "--phi-curve", "4", "--eval", "4")
    assert out["phi"] == 14


def test_geometry_pipeline_through_files(tmp_path, capsys):
    X = fermat_curve(P, 4)
    curve_file = tmp_path / "quartic.txt"
    save_curve(curve_file, X)
    points_file = tmp_path / "pts.txt"

    out = run_json(
        capsys, "rcs", "--curve", str(curve_file), "--random", "6", "--seed", "3",
        "--out", str(points_file),
    )
    assert out["points"] == 6

    out = run_json(capsys, "rcs", "--curve", str(curve_file), "--points", str(points_file))
    assert out["ambient"] == "0,1,2,3"
    measured_rel = out["rel"]

    out = run_json(capsys, "rcs", "--points", str(points_file), "--abs")
    assert out["cone_dim"] == 1

    out = run_json(capsys, "dim", "--curve", str(curve_file), "--points", str(points_file))
    assert out["dim"] >= 0

    line, pts = split_line(X, seed=5)
    line_file = tmp_path / "line.txt"
    save_curve(line_file, line)
    section_file = tmp_path / "section.txt"
    out = run_json(
        capsys, "rcs", "--curve", str(curve_file), "--section-by", str(line_file),
        "--out", str(section_file),
    )
    assert out["points"] == 4

    out = run_json(
        capsys, "rcs", "--curve", str(curve_file), "--points", str(section_file)
    )
    assert out["rel"] == "1,2,3,4"

    out = run_json(
        capsys, "filtration", "--curve", str(curve_file), "--points", str(section_file),
        "--t", "0", "--candidates", str(section_file),
    )
    assert out["count"] == 4
    assert measured_rel  # pipeline produced a sequence


def test_realize_and_scan_cli(tmp_path, capsys):
    from charseq.verify import corpus_curve

    X = corpus_curve(101, 4)
    curve_file = tmp_path / "quartic101.txt"
    save_curve(curve_file, X)
    out_file = tmp_path / "realized.txt"
    out = run_json(
        capsys, "realize", "--curve", str(curve_file), "--target", "2,2,3,3",
        "--seed", "1", "--out", str(out_file),
    )
    assert out["rel"] == "2,2,3,3"
    assert out["points"] == 4

    out = run_json(
        capsys, "conjecture-scan", "--curve", str(curve_file), "--s", "1",
        "--trials", "5", "--seed", "2",
    )
    assert out["violations"] == 0


def test_byte_identical_output(capsys):
    args = ("minimal", "--d", "6", "--alpha", "13")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# Fixed input files: the Fermat quartic at p=10007, a line cutting it in four
# rational points, two conics (a pair of such lines, off (1:0:0), and one
# through (1:0:0) and four points of y.txt) and a smooth quartic at p=101.
GOLDEN_INPUTS = {
    "q.txt": "p=10007\n0 0 4 1\n0 4 0 1\n4 0 0 1\n",
    "line.txt": "p=10007\n0 0 1 9535\n0 1 0 8333\n1 0 0 5475\n",
    "conic.txt": (
        "p=10007\n0 0 2 4813\n0 1 1 9036\n0 2 0 488\n1 0 1 1515\n1 1 0 1229\n2 0 0 4742\n"
    ),
    "conic_e1.txt": "p=10007\n0 0 2 1\n0 1 1 2721\n0 2 0 104\n1 0 1 5776\n1 1 0 43\n",
    "c101.txt": (
        "p=101\n0 0 4 46\n0 1 3 1\n0 2 2 56\n0 3 1 99\n0 4 0 67\n1 0 3 31\n1 1 2 20\n"
        "1 2 1 13\n1 3 0 8\n2 0 2 51\n2 1 1 71\n2 2 0 60\n3 0 1 61\n3 1 0 13\n4 0 0 58\n"
    ),
}

# (arguments, stdout) of geometry-backed calls, run in order in one directory;
# later calls read the point files that earlier ones write.
GOLDEN_CALLS = (
    (
        "rcs --curve q.txt --random 6 --seed 3 --out y.txt",
        '{"modulus": 10007, "out": "y.txt", "points": 6}',
    ),
    ("rcs --curve q.txt --points y.txt", '{"ambient": "0,1,2,3", "rel": "3,3,3,3"}'),
    ("rcs --points y.txt --abs", '{"codim": 2, "cone_dim": 1, "entries": "0,1,1,2,2,2"}'),
    ("dim --curve q.txt --points y.txt", '{"dim": 3}'),
    ("rcs --curve q.txt --section-by line.txt --out s.txt", '{"out": "s.txt", "points": 4}'),
    ("rcs --curve q.txt --points s.txt", '{"ambient": "0,1,2,3", "rel": "1,2,3,4"}'),
    ("rcs --curve q.txt --section-by conic.txt --out c.txt", '{"out": "c.txt", "points": 8}'),
    (
        "rcs --curve q.txt --section-by conic_e1.txt --allow-non-transverse --out e.txt",
        '{"out": "e.txt", "points": 4}',
    ),
    (
        "filtration --curve q.txt --points s.txt --t 1",
        '{"count": 4, "points": ["525 7880 1", "5395 3758 1", "7111 1085 1", "8785 6560 1"]}',
    ),
    (
        "filtration --curve q.txt --points y.txt --t 3",
        '{"count": 6, "points": ["1315 5049 1", "3474 357 1", "5053 5639 1", '
        '"5829 5759 1", "6071 410 1", "9122 2450 1"]}',
    ),
    (
        "realize --curve c101.txt --target 2,2,3,3 --seed 1 --out r.txt",
        '{"out": "r.txt", "points": 4, "rel": "2,2,3,3"}',
    ),
    ("rcs --curve c101.txt --points r.txt", '{"ambient": "0,1,2,3", "rel": "2,2,3,3"}'),
    (
        "filtration --curve c101.txt --points r.txt --t 2",
        '{"count": 5, "points": ["5 64 1", "8 38 1", "56 28 1", "84 32 1", "98 34 1"]}',
    ),
    ("filtration --curve c101.txt --points r.txt --level 4", '{"witness": "5 64 1"}'),
    (
        "classify --curve q.txt --points s.txt",
        '{"alpha": 4, "case": "residual-of-r-points-in-degree-s-section", "certificate": '
        '{"containing_curve": [[0, 0, 1, 1], [0, 1, 0, 894], [1, 0, 0, 3317]], '
        '"containing_curve_degree": 1, "measured": [1, 2, 3, 4], "minimal": [1, 2, 3, 4]}, '
        '"dimension": 2, "r": 0, "s": 1}',
    ),
)

GOLDEN_OUTPUTS = {
    "y.txt": (
        "p=10007\n1315 5049 1\n3474 357 1\n5053 5639 1\n5829 5759 1\n6071 410 1\n"
        "9122 2450 1\n"
    ),
    "s.txt": "p=10007\n525 7880 1\n5395 3758 1\n7111 1085 1\n8785 6560 1\n",
    "c.txt": (
        "p=10007\n466 9872 1\n525 7880 1\n910 2120 1\n3474 357 1\n5395 3758 1\n"
        "5829 5759 1\n7111 1085 1\n8785 6560 1\n"
    ),
    "e.txt": "p=10007\n1315 5049 1\n3474 357 1\n5053 5639 1\n5829 5759 1\n",
    "r.txt": "p=101\n8 38 1\n56 28 1\n84 32 1\n98 34 1\n",
}


def test_geometry_calls_match_recorded_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    for args, expected in GOLDEN_CALLS:
        code, out, err = run_cli(capsys, *args.split())
        assert code == 0, (args, err)
        assert out == expected + "\n", args
    for name, text in GOLDEN_OUTPUTS.items():
        assert (tmp_path / name).read_text() == text, name


# (arguments, stdout) of calls whose output is a result type's encoding, in
# both formats; run in a directory holding GOLDEN_INPUTS and s.txt.
GOLDEN_ENCODINGS = (
    ("macaulay --c 10 --d 3", '{"c": 10, "d": 3, "terms": [[5, 3]]}'),
    (
        "macaulay --c 10 --d 3 --format table",
        "c      10\n"
        "d      3\n"
        "terms  [[5, 3]]"
    ),
    ("macaulay --zero-seq 1,2,4", '{"ok": false, "violation": 2}'),
    (
        "macaulay --zero-seq 1,2,4 --format table",
        "ok         False\n"
        "violation  2"
    ),
    ("macaulay --zero-seq 1,3,6,10", '{"ok": true, "violation": null}'),
    (
        "macaulay --zero-seq 1,3,6,10 --format table",
        "ok         True\n"
        "violation  None"
    ),
    (
        "split --ambient 0,1,2,3 --rel 2,3,5,6 --cone-dim 2",
        '{"gap": 2, "gap_index": 2, "high": {"ambient": {"codim": 1, "cone_dim": 2, '
        '"entries": [0, 1]}, "entries": [5, 6]}, "low": {"ambient": {"codim": 1, '
        '"cone_dim": 2, "entries": [0, 1]}, "entries": [0, 1]}, "note": "", '
        '"section_degree": 2}'
    ),
    (
        "split --ambient 0,1,2,3 --rel 2,3,5,6 --cone-dim 2 --format table",
        "gap             2\n"
        "gap_index       2\n"
        'high            {"ambient": {"codim": 1, "cone_dim": 2, "entries": [0, 1]}, '
        '"entries": [5, 6]}\n'
        'low             {"ambient": {"codim": 1, "cone_dim": 2, "entries": [0, 1]}, '
        '"entries": [0, 1]}\n'
        "note            \n"
        "section_degree  2"
    ),
    ("split --ambient 0,1,2,3 --rel 2,2,3,3", '{"gap": null}'),
    ("split --ambient 0,1,2,3 --rel 2,2,3,3 --format table", "gap  None"),
    (
        "classify --rel 2,3,3,4 --d 4 --alpha 6 --i 2",
        '{"case": "either", "delta_entries": [2, 3, 3, 4], "head_agrees": true, '
        '"holds": true, "tail_agrees": true, "vacuous": false}'
    ),
    (
        "classify --rel 2,3,3,4 --d 4 --alpha 6 --i 2 --format table",
        "case           either\n"
        "delta_entries  [2, 3, 3, 4]\n"
        "head_agrees    True\n"
        "holds          True\n"
        "tail_agrees    True\n"
        "vacuous        False"
    ),
    (
        "classify --curve q.txt --points s.txt --format table",
        "alpha        4\n"
        "case         residual-of-r-points-in-degree-s-section\n"
        'certificate  {"containing_curve": [[0, 0, 1, 1], [0, 1, 0, 894], [1, 0, 0, 3317]], '
        '"containing_curve_degree": 1, "measured": [1, 2, 3, 4], "minimal": [1, 2, 3, 4]}\n'
        "dimension    2\n"
        "r            0\n"
        "s            1"
    ),
    (
        "conjecture-scan --curve c101.txt --s 1 --trials 3 --seed 2",
        '{"curve_degree": 4, "section_degree": 1, "trials": [{"degree": 4, '
        '"disagreement_connex": true, "dominated": true, "measured": [2, 2, 3, 3]}, '
        '{"degree": 4, "disagreement_connex": true, "dominated": true, '
        '"measured": [2, 2, 3, 3]}, {"degree": 4, "disagreement_connex": true, '
        '"dominated": true, "measured": [2, 2, 3, 3]}], "violations": 0}'
    ),
    (
        "conjecture-scan --curve c101.txt --s 1 --trials 3 --seed 2 --format table",
        "curve_degree    4\n"
        "section_degree  1\n"
        'trials          [{"degree": 4, "disagreement_connex": true, "dominated": true, '
        '"measured": [2, 2, 3, 3]}, {"degree": 4, "disagreement_connex": true, '
        '"dominated": true, "measured": [2, 2, 3, 3]}, {"degree": 4, '
        '"disagreement_connex": true, "dominated": true, "measured": [2, 2, 3, 3]}]\n'
        "violations      0"
    ),
    (
        "charseq --seq 0,1,1,2 --validate",
        '{"checks": [{"detail": "m_0 = 0", "name": "starts_at_zero", "passed": true}, '
        '{"detail": "l_0 = 1", "name": "width_l0_is_one", "passed": true}, '
        '{"detail": "l_1 = 2, codim 2", "name": "width_l1_matches_codim", "passed": true}, '
        '{"detail": "widths (1, 2, 1)", "name": "connex_support", "passed": true}, '
        '{"detail": "", "name": "zero_sequence", "passed": true}], "degenerate": false, '
        '"passed": true}'
    ),
    (
        "charseq --seq 0,1,1,2 --validate --format table",
        'checks      [{"detail": "m_0 = 0", "name": "starts_at_zero", "passed": true}, '
        '{"detail": "l_0 = 1", "name": "width_l0_is_one", "passed": true}, '
        '{"detail": "l_1 = 2, codim 2", "name": "width_l1_matches_codim", "passed": true}, '
        '{"detail": "widths (1, 2, 1)", "name": "connex_support", "passed": true}, '
        '{"detail": "", "name": "zero_sequence", "passed": true}]\n'
        "degenerate  False\n"
        "passed      True"
    ),
    (
        "charseq --seq 0,2 --validate",
        '{"checks": [{"detail": "m_0 = 0", "name": "starts_at_zero", "passed": true}, '
        '{"detail": "l_0 = 1", "name": "width_l0_is_one", "passed": true}, '
        '{"detail": "l_1 = 0, codim 1", "name": "width_l1_matches_codim", "passed": true}, '
        '{"detail": "widths (1, 0, 1)", "name": "connex_support", "passed": false}, '
        '{"detail": "growth bound broken at width index 2", "name": "zero_sequence", '
        '"passed": false}], "degenerate": true, "passed": false}'
    ),
    (
        "charseq --seq 0,2 --validate --format table",
        'checks      [{"detail": "m_0 = 0", "name": "starts_at_zero", "passed": true}, '
        '{"detail": "l_0 = 1", "name": "width_l0_is_one", "passed": true}, '
        '{"detail": "l_1 = 0, codim 1", "name": "width_l1_matches_codim", "passed": true}, '
        '{"detail": "widths (1, 0, 1)", "name": "connex_support", "passed": false}, '
        '{"detail": "growth bound broken at width index 2", "name": "zero_sequence", '
        '"passed": false}]\n'
        "degenerate  True\n"
        "passed      False"
    ),
)


def test_result_encodings_match_recorded_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "s.txt").write_text(GOLDEN_OUTPUTS["s.txt"])
    for args, expected in GOLDEN_ENCODINGS:
        code, out, err = run_cli(capsys, *args.split())
        assert code == 0, (args, err)
        assert out == expected + "\n", args

def test_exit_codes(capsys, tmp_path, monkeypatch):
    code, _, err = run_cli(capsys, "macaulay", "--c", "0", "--d", "2")
    assert code == 1 and "error" in err
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "rcs", "--curve", "missing.txt", "--random", "3")
    assert code == 1 and err.startswith("error:")  # an OSError
    code, _, err = run_cli(capsys, "link", "--ambient", "0,1,2,3", "--rel", "2,2,3,3", "--s", "1")
    assert code == 1
    # entries below the plane ambient have no absolute sequence, so no genus
    code, out, err = run_cli(capsys, "genus", "--rel", "0,0,0", "--alpha", "-3")
    assert code == 1 and out == "" and "no absolute sequence exists" in err
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["macaulay", "--d", "oops"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["halphen", "--alpha", "6", "--d", "3", "--modulus", "101"])
    assert exc.value.code == 2  # the modulus comes from the files, not a flag
    for removed in (
        ["rcs", "--curve", "q.txt", "--points", "y.txt", "--max-degree-scan", "5"],
        ["filtration", "--curve", "q.txt", "--points", "y.txt", "--t", "1", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(removed)
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--alpha", "3"])  # neither --section nor --rel
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "charseq", "--seq", "0,1", "--eval", "2", "--cone-dim", "0")
    assert code == 0 and json.loads(out)["phi"] == 0
    # --codim 0 is rejected wherever an ambient is built, not read as 1
    for argv in (
        ["rcs", "--rel", "2,2,3,3", "--ambient", "0,1,2,3", "--degree", "--codim", "0"],
        ["rcs", "--abs-seq", "0,1", "--ambient", "0,1,2,3", "--codim", "0"],
        ["charseq", "--seq", "0,1,2", "--validate", "--codim", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "codim must be >= 1" in err
    capsys.readouterr()


def test_non_integer_sequence_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charseq", "--seq", "0,1,x", "--validate"])
    assert exc.value.code == 2
    assert "comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, text",
    [
        ("curve", "p=101\n0 4 x 1\n"),
        ("curve", "p=abc\n0 0 4 1\n"),
        ("curve", "p=101\n0 0 4\n"),
        ("points", "p=101\n1 x 1\n"),
    ],
)
def test_malformed_input_files_exit_1(tmp_path, capsys, kind, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if kind == "curve":
        argv = ("rcs", "--curve", str(bad), "--random", "3")
    else:
        argv = ("rcs", "--points", str(bad), "--abs")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_modulus_above_the_bound_exits_1(tmp_path, capsys):
    # 3037000507 is the first prime above MAX_MODULUS; the curve is a line
    curve = tmp_path / "line.txt"
    curve.write_text("p=3037000507\n0 0 1 1\n0 1 0 1\n1 0 0 1\n")
    code, out, err = run_cli(capsys, "rcs", "--curve", str(curve), "--random", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "MAX_MODULUS" in err


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "halphen", "--alpha", "6", "--d", "3", "--format", "table")
    assert code == 0
    assert out.strip() == "bound  4"


OPERATION_MAP = {
    # every library operation is reachable through exactly one subcommand
    "macaulay_rep": "macaulay",
    "macaulay_next": "macaulay",
    "is_zero_sequence": "macaulay",
    "phi_from_charseq": "charseq",
    "charseq_from_phi": "charseq",
    "validate_abs": "charseq",
    "bound_codim2": "charseq",
    "aligned_bound": "charseq",
    "separation_index": "charseq",
    "is_gorenstein_symmetric": "charseq",
    "seq_included": "charseq",
    "ci_charseq": "ci",
    "measure_rcs": "rcs",
    "measure_abs": "rcs",
    "abs_from_rel": "rcs",
    "rel_from_abs": "rcs",
    "rel_degree": "rcs",
    "phi_rel": "rcs",
    "phi_points": "rcs",
    "phi_plane_curve": "rcs",
    "monomial_basis": "rcs",
    "random_points_on_curve": "rcs",
    "section_points": "rcs",
    "link": "link",
    "add_section": "add-section",
    "split_on_gap": "split",
    "minimal_delta_seq": "minimal",
    "genus_acm_curve": "genus",
    "halphen_bound": "halphen",
    "dim_linear_system": "dim",
    "r_alpha": "dim",
    "classify_maximal": "classify",
    "classify_equal_phi": "classify",
    "realize": "realize",
    "is_admissible": "realize",
    "add_case": "realize",
    "filtration_points": "filtration",
    "can_add_at_level": "filtration",
    "conjecture_scan": "conjecture-scan",
}


def test_every_operation_reachable_from_exactly_one_subcommand():
    parser = build_parser()
    subcommands = set()
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            subcommands = set(action.choices)
    assert set(OPERATION_MAP.values()) <= subcommands
    assert "verify" in subcommands
    # one home per operation
    assert len(OPERATION_MAP) == len(set(OPERATION_MAP))
