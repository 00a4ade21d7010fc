"""Batch command-line surface.

Every subcommand maps onto library operations; output is JSON by default
(sorted keys, no timestamps, byte-identical for identical inputs) or an
aligned text table with ``--format table``.  Exit codes: 0 success,
1 domain/geometry error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .errors import CharseqError
from .liaison import (
    RelCharSeq,
    abs_from_rel,
    add_section,
    genus_acm_curve,
    halphen_bound,
    link,
    minimal_delta_seq,
    phi_rel,
    rel_degree,
    rel_from_abs,
    split_on_gap,
)
from .linsys import classify_equal_phi, classify_maximal, r_alpha
from .macaulay import is_zero_sequence, macaulay_next, macaulay_rep
from .pointlab import (
    dim_linear_system,
    load_curve,
    load_points,
    measure_abs,
    measure_rcs,
    monomial_basis,
    phi_plane_curve,
    phi_points,
    random_points_on_curve,
    save_points,
    section_points,
)
from .realize import (
    add_case,
    can_add_at_level,
    conjecture_scan,
    filtration_points,
    is_admissible,
    realize,
)
from .seqcalc import (
    CharSeq,
    HilbertFn,
    aligned_bound,
    bound_codim2,
    charseq_from_phi,
    ci_charseq,
    is_gorenstein_symmetric,
    phi_from_charseq,
    plane_curve_charseq,
    separation_index,
    seq_included,
    validate_abs,
    widths_from_entries,
)


def _seq(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"sequences are comma-separated integers, got {text!r}") from None


def _join(entries) -> str:
    return ",".join(str(v) for v in entries)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    width = max((len(k) for k in payload), default=0)
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key.ljust(width)}  {value}")


def _abs_payload(seq: CharSeq) -> dict:
    return {"entries": _join(seq.entries), "cone_dim": seq.cone_dim, "codim": seq.codim}


def _rel_payload(rel: RelCharSeq) -> dict:
    return {"rel": _join(rel.entries), "ambient": _join(rel.ambient.entries)}


def _charseq_from_args(args, attr="seq") -> CharSeq:
    entries = _seq(getattr(args, attr))
    codim = args.codim if args.codim is not None else _default_codim(entries)
    return CharSeq(entries, args.cone_dim, codim)


def _default_codim(entries) -> int:
    w = widths_from_entries(entries) if entries else ()
    return w[1] if len(w) > 1 and w[1] > 0 else 1


def _rel_from_args(args) -> RelCharSeq:
    ambient = CharSeq(_seq(args.ambient), args.cone_dim, args.codim if args.codim else 1)
    return RelCharSeq(_seq(args.rel), ambient)


def _plane_rel(args) -> RelCharSeq:
    entries = _seq(args.rel)
    return RelCharSeq(entries, plane_curve_charseq(len(entries)))


# --- handlers ---


def _run_macaulay(args) -> dict:
    if args.zero_seq is not None:
        check = is_zero_sequence(
            list(_seq(args.zero_seq)), start_degree=args.start_degree, cone_rule=not args.raw
        )
        return check.to_json()
    if args.c is None or args.d is None:
        raise UsageError("macaulay needs --c and --d (or --zero-seq)")
    if args.next:
        return {"next": macaulay_next(args.c, args.d)}
    return macaulay_rep(args.c, args.d).to_json()


def _run_charseq(args) -> dict:
    if args.phi is not None:
        fn = HilbertFn(_seq(args.phi), args.cone_dim)
        return _abs_payload(charseq_from_phi(fn, codim=args.codim))
    if args.aligned_bound is not None:
        if args.d is None:
            raise UsageError("--aligned-bound needs --d")
        return {"bound": aligned_bound(args.d, args.aligned_bound)}
    if args.seq is None:
        raise UsageError("charseq needs --seq, --phi, or --aligned-bound")
    seq = _charseq_from_args(args)
    if args.eval is not None:
        return {"phi": phi_from_charseq(seq, args.eval), "degree": args.eval}
    if args.validate:
        return validate_abs(seq).to_json()
    if args.gorenstein:
        return {"gorenstein_symmetric": is_gorenstein_symmetric(seq)}
    if args.bound_codim2:
        return {"within_bound": bound_codim2(seq)}
    if args.separation:
        return {"separation_index": separation_index(seq)}
    if args.included_in is not None:
        other = CharSeq(_seq(args.included_in), args.cone_dim, _default_codim(_seq(args.included_in)))
        return {"included": seq_included(seq, other)}
    raise UsageError("charseq: choose an action (--eval/--validate/--gorenstein/...)")


def _run_ci(args) -> dict:
    return _abs_payload(ci_charseq(_seq(args.degrees), cone_dim=args.cone_dim))


def _run_rcs(args) -> dict:
    if args.monomials is not None:
        return {"monomials": [list(e) for e in monomial_basis(args.monomials)]}
    if args.phi_curve is not None:
        if args.eval is None:
            raise UsageError("--phi-curve needs --eval")
        return {"phi": phi_plane_curve(args.phi_curve, args.eval)}
    if args.rel is not None and args.ambient is not None:
        rel = _rel_from_args(args)
        if args.to_abs:
            return _abs_payload(abs_from_rel(rel))
        if args.degree:
            return {"degree": rel_degree(rel)}
        if args.eval is not None:
            return {"phi": phi_rel(rel, args.eval)}
        raise UsageError("rcs with --rel needs --to-abs, --degree, or --eval")
    if args.abs_seq is not None and args.ambient is not None:
        ambient = CharSeq(_seq(args.ambient), args.cone_dim, args.codim if args.codim else 1)
        abs_y = CharSeq(_seq(args.abs_seq), args.cone_dim - 1, _default_codim(_seq(args.abs_seq)))
        return _rel_payload(rel_from_abs(ambient, abs_y))
    if args.points is None:
        raise UsageError("rcs needs point input (--points) or sequence flags")
    curve = load_curve(args.curve) if args.curve else None
    group = load_points(args.points, curve)
    if args.abs:
        return _abs_payload(measure_abs(group))
    if args.eval is not None:
        return {"phi": phi_points(group, args.eval)}
    if curve is None:
        raise UsageError("measuring a relative sequence needs --curve")
    return _rel_payload(measure_rcs(curve, group))


def _run_rcs_random(args) -> dict:
    curve = load_curve(args.curve)
    group = random_points_on_curve(curve, args.random, seed=args.seed)
    if args.out:
        save_points(args.out, group)
    return {"points": group.size, "out": args.out or "", "modulus": curve.p}


def _run_rcs_section(args) -> dict:
    curve = load_curve(args.curve)
    section_curve = load_curve(args.section_by)
    group = section_points(curve, section_curve, require_transverse=not args.allow_non_transverse)
    if args.out:
        save_points(args.out, group)
    return {"points": group.size, "out": args.out or ""}


def _run_link(args) -> dict:
    return _rel_payload(link(_rel_from_args(args), args.s))


def _run_add_section(args) -> dict:
    return _rel_payload(add_section(_rel_from_args(args), args.s))


def _run_split(args) -> dict:
    rel = _rel_from_args(args)
    result = split_on_gap(rel)
    if result is None:
        return {"gap": None}
    return result.to_json() | {"gap": result.gap_index}


def _run_minimal(args) -> dict:
    return _rel_payload(minimal_delta_seq(args.d, args.alpha))


def _run_genus(args) -> dict:
    if args.rel is not None:
        rel = _plane_rel(args)
        return {"genus": genus_acm_curve(rel, args.alpha)}
    if args.section is None:
        raise UsageError("genus needs --section or --rel")
    seq = CharSeq(_seq(args.section), 1, _default_codim(_seq(args.section)))
    return {"genus": genus_acm_curve(seq, args.alpha)}


def _run_halphen(args) -> dict:
    return {"bound": halphen_bound(args.alpha, args.d)}


def _run_dim(args) -> dict:
    if args.r_alpha:
        if args.d is None or args.alpha is None:
            raise UsageError("--r-alpha needs --d and --alpha")
        return {"r_alpha": r_alpha(args.d, args.alpha)}
    if not args.curve or not args.points:
        raise UsageError("measured dimension needs --curve and --points")
    curve = load_curve(args.curve)
    group = load_points(args.points, curve)
    return {"dim": dim_linear_system(curve, group)}


def _run_classify(args) -> dict:
    if args.rel is not None:
        if args.d is None or args.alpha is None or args.i is None:
            raise UsageError("sequence classification needs --d, --alpha, and --i")
        rel = _plane_rel(args)
        verdict = classify_equal_phi(rel, args.d, args.alpha, args.i)
        return verdict.to_json()
    if not args.curve or not args.points:
        raise UsageError("classify needs --curve and --points (or --rel with --d/--alpha/--i)")
    curve = load_curve(args.curve)
    group = load_points(args.points, curve)
    return classify_maximal(curve, group, seed=args.seed).to_json()


def _run_realize(args) -> dict:
    if args.check_admissible is not None:
        return {"admissible": is_admissible(_seq(args.check_admissible))}
    if args.add_case is not None:
        if args.rel is None:
            raise UsageError("--add-case needs --rel")
        return _rel_payload(add_case(_plane_rel(args), args.add_case))
    if not args.curve or not args.target:
        raise UsageError("realization needs --curve and --target")
    curve = load_curve(args.curve)
    target = _seq(args.target)
    group = realize(curve, target, seed=args.seed)
    if args.out:
        save_points(args.out, group)
    rel = measure_rcs(curve, group)
    return {"rel": _join(rel.entries), "points": group.size, "out": args.out or ""}


def _run_filtration(args) -> dict:
    curve = load_curve(args.curve)
    group = load_points(args.points, curve)
    candidates = load_points(args.candidates).points if args.candidates else None
    if args.level is not None:
        witness = can_add_at_level(curve, group, args.level, candidates=candidates)
        return {"witness": " ".join(str(c) for c in witness.coords) if witness else None}
    if args.t is None:
        raise UsageError("filtration needs --t (or --level)")
    pts = filtration_points(curve, group, args.t, candidates=candidates)
    return {"count": len(pts), "points": [" ".join(str(c) for c in q.coords) for q in pts]}


def _run_conjecture_scan(args) -> dict:
    curve = load_curve(args.curve)
    report = conjecture_scan(curve, args.s, args.trials, seed=args.seed)
    return report.to_json()


def _run_verify(args) -> dict:
    names = args.checks.split(",") if args.checks else None
    results = verify_mod.run_all(names)
    return {
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charseq",
        description="Characteristic-sequence calculus and its plane-geometry verification engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        sp.add_argument("--format", choices=("json", "table"), default="json")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)

    def seq_flags(sp):
        sp.add_argument("--cone-dim", type=int, default=1, dest="cone_dim")
        sp.add_argument("--codim", type=int, default=None)

    sp = sub.add_parser("macaulay", help="binomial representations and the growth bound")
    common(sp)
    sp.add_argument("--c", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--next", action="store_true")
    sp.add_argument("--zero-seq", dest="zero_seq")
    sp.add_argument("--start-degree", type=int, default=0, dest="start_degree")
    sp.add_argument("--raw", action="store_true", help="drop the cone rule at degree 0")
    sp.set_defaults(handler=_run_macaulay)

    sp = sub.add_parser("charseq", help="conversions, bounds, and validators")
    common(sp)
    seq_flags(sp)
    sp.add_argument("--seq")
    sp.add_argument("--phi")
    sp.add_argument("--eval", type=int)
    sp.add_argument("--validate", action="store_true")
    sp.add_argument("--gorenstein", action="store_true")
    sp.add_argument("--bound-codim2", action="store_true", dest="bound_codim2")
    sp.add_argument("--separation", action="store_true")
    sp.add_argument("--included-in", dest="included_in")
    sp.add_argument("--aligned-bound", type=int, dest="aligned_bound")
    sp.add_argument("--d", type=int)
    sp.set_defaults(handler=_run_charseq)

    sp = sub.add_parser("ci", help="complete-intersection sequences")
    common(sp)
    sp.add_argument("--degrees", required=True)
    sp.add_argument("--cone-dim", type=int, default=1, dest="cone_dim")
    sp.set_defaults(handler=_run_ci)

    sp = sub.add_parser("rcs", help="measure sequences from curves and point files")
    common(sp, seeded=True)
    seq_flags(sp)
    sp.add_argument("--curve")
    sp.add_argument("--points")
    sp.add_argument("--abs", action="store_true")
    sp.add_argument("--rel")
    sp.add_argument("--ambient")
    sp.add_argument("--abs-seq", dest="abs_seq")
    sp.add_argument("--to-abs", action="store_true", dest="to_abs")
    sp.add_argument("--degree", action="store_true")
    sp.add_argument("--eval", type=int)
    sp.add_argument("--monomials", type=int)
    sp.add_argument("--phi-curve", type=int, dest="phi_curve")
    sp.add_argument("--random", type=int)
    sp.add_argument("--section-by", dest="section_by")
    sp.add_argument("--allow-non-transverse", action="store_true", dest="allow_non_transverse")
    sp.add_argument("--out")
    sp.set_defaults(handler=_dispatch_rcs)

    sp = sub.add_parser("link", help="liaison reflection of a relative sequence")
    common(sp)
    seq_flags(sp)
    sp.add_argument("--ambient", required=True)
    sp.add_argument("--rel", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(handler=_run_link)

    sp = sub.add_parser("add-section", help="shift a sequence by a disjoint section")
    common(sp)
    seq_flags(sp)
    sp.add_argument("--ambient", required=True)
    sp.add_argument("--rel", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(handler=_run_add_section)

    sp = sub.add_parser("split", help="split a sequence across its first gap")
    common(sp)
    seq_flags(sp)
    sp.add_argument("--ambient", required=True)
    sp.add_argument("--rel", required=True)
    sp.set_defaults(handler=_run_split)

    sp = sub.add_parser("minimal", help="minimal sequence of given degree")
    common(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--alpha", type=int, required=True)
    sp.set_defaults(handler=_run_minimal)

    sp = sub.add_parser("genus", help="arithmetic genus from a section sequence")
    common(sp)
    sp.add_argument("--section")
    sp.add_argument("--rel")
    sp.add_argument("--alpha", type=int, required=True)
    sp.set_defaults(handler=_run_genus)

    sp = sub.add_parser("halphen", help="maximal genus bound")
    common(sp)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(handler=_run_halphen)

    sp = sub.add_parser("dim", help="linear-system dimension (measured or bound)")
    common(sp)
    sp.add_argument("--curve")
    sp.add_argument("--points")
    sp.add_argument("--r-alpha", action="store_true", dest="r_alpha")
    sp.add_argument("--d", type=int)
    sp.add_argument("--alpha", type=int)
    sp.set_defaults(handler=_run_dim)

    sp = sub.add_parser("classify", help="classify maximal systems / equal-value cases")
    common(sp, seeded=True)
    sp.add_argument("--curve")
    sp.add_argument("--points")
    sp.add_argument("--rel")
    sp.add_argument("--d", type=int)
    sp.add_argument("--alpha", type=int)
    sp.add_argument("--i", type=int)
    sp.set_defaults(handler=_run_classify)

    sp = sub.add_parser("realize", help="construct a group with a target sequence")
    common(sp, seeded=True)
    sp.add_argument("--curve")
    sp.add_argument("--target")
    sp.add_argument("--out")
    sp.add_argument("--check-admissible", dest="check_admissible")
    sp.add_argument("--add-case", type=int, dest="add_case")
    sp.add_argument("--rel")
    sp.set_defaults(handler=_run_realize)

    sp = sub.add_parser("filtration", help="degree filtration and case-addition witnesses")
    common(sp)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--points", required=True)
    sp.add_argument("--t", type=int)
    sp.add_argument("--level", type=int)
    sp.add_argument("--candidates")
    sp.set_defaults(handler=_run_filtration)

    sp = sub.add_parser("conjecture-scan", help="section-domination scan")
    common(sp, seeded=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(handler=_run_conjecture_scan)

    sp = sub.add_parser("verify", help="run the invariant corpus")
    common(sp)
    sp.add_argument("--checks", help="comma-separated subset of check names")
    sp.set_defaults(handler=_run_verify)

    return parser


def _dispatch_rcs(args) -> dict:
    if args.random is not None:
        if not args.curve:
            raise UsageError("--random needs --curve")
        return _run_rcs_random(args)
    if args.section_by is not None:
        if not args.curve:
            raise UsageError("--section-by needs --curve")
        return _run_rcs_section(args)
    return _run_rcs(args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except UsageError as err:
        parser.error(str(err))  # exits with code 2
        return 2
    except CharseqError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.command == "verify" and args.format == "table":
        for check in payload["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status}  {check['name']:<26} {check['detail']}")
        print("overall:", "PASS" if payload["passed"] else "FAIL")
    else:
        _emit(payload, args.format)
    if args.command == "verify" and not payload.get("passed", True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
