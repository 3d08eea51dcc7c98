"""Command-line interface.

Subcommands: classes, chartable, wenum, cwe, rank, tutte, dual, verify, demo.
Groups and codes come from JSON spec files or inline shorthands (see
specfiles).  Output is deterministic: identical inputs give byte-identical
text/JSON.  Exit codes: 0 success, 1 verification/operational failure,
2 malformed spec or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chartable import character_table
from .codes import (
    DEFAULT_CODE_CAP,
    code_from_generators,
    complete_weight_enumerator,
    diagonal_code,
    rank_profile,
    tutte_evaluate,
    weight_enumerator,
)
from .duality import (
    DEFAULT_COSET_CAP,
    DEFAULT_TUPLE_CAP,
    dual_cwe,
    dual_multiset,
    dual_weight_enumerator,
    irrep_tuple_label,
    permutation_character,
)
from .errors import DomainError, RepdualError, SpecFileError
from .groups import conjugacy_classes, symmetric_group
from .identities import CHECKS, CodeAnalysis, macwilliams2_transform
from .specfiles import load_code_spec, load_group_spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repdual",
        description="Representation-based duals, enumerators and identity "
        "verification for codes over finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, code=False):
        p.add_argument("--group", help="group spec: JSON file or builtin:NAME")
        if code:
            p.add_argument(
                "--code",
                required=True,
                help="code spec: JSON file or trivial:/full:/diag: shorthand",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--closure-cap", type=int, default=DEFAULT_CODE_CAP, metavar="N")
        p.add_argument("--tuple-cap", type=int, default=DEFAULT_TUPLE_CAP, metavar="N")
        p.add_argument("--coset-cap", type=int, default=DEFAULT_COSET_CAP, metavar="N")
        p.add_argument("--cache-dir", help="on-disk character table cache")

    p = sub.add_parser("classes", help="conjugacy classes of a group")
    add_common(p)
    p = sub.add_parser("chartable", help="exact character table of a group")
    add_common(p)
    p = sub.add_parser("wenum", help="weight enumerator of a code")
    add_common(p, code=True)
    p = sub.add_parser("cwe", help="complete weight enumerator of a code")
    add_common(p, code=True)
    p = sub.add_parser("rank", help="projection-cardinality polymatroid")
    add_common(p, code=True)
    p = sub.add_parser("tutte", help="floating Tutte evaluation")
    add_common(p, code=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p = sub.add_parser("dual", help="representation-based dual multiset")
    add_common(p, code=True)
    p = sub.add_parser("verify", help="exact identity verification")
    add_common(p, code=True)
    for name in CHECKS:
        p.add_argument(f"--{name}", action="store_true")
    p.add_argument("--all", action="store_true")
    p = sub.add_parser("demo", help="reproduce the two worked reference examples")
    add_common(p)
    return parser


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_group(args):
    if not args.group:
        raise SpecFileError("this subcommand needs --group")
    return load_group_spec(args.group)


def _load_code(args):
    group = load_group_spec(args.group) if args.group else None
    return load_code_spec(args.code, group, cap=args.closure_cap)


def cmd_classes(args) -> int:
    G = _load_group(args)
    cd = conjugacy_classes(G)
    lines = [f"group {G.name}: order {G.order}, {cd.num_classes} conjugacy classes"]
    blob = {"group": G.name, "order": G.order, "num_classes": cd.num_classes, "classes": []}
    members = [[] for _ in range(cd.num_classes)]
    for label, c in zip(G.element_labels, cd.class_of):
        members[c].append(label)
    for c in range(cd.num_classes):
        rep = G.element_labels[cd.class_reps[c]]
        lines.append(f"  class {c + 1}: size {cd.class_sizes[c]}, rep {rep}")
        blob["classes"].append(
            {"index": c + 1, "size": cd.class_sizes[c], "rep": rep, "members": members[c]}
        )
    _emit(args, lines, blob)
    return 0


def cmd_chartable(args) -> int:
    G = _load_group(args)
    ct = character_table(G, cache_dir=args.cache_dir)
    if args.format == "json":  # a large table's text and JSON are each costly
        _emit(args, [], ct.to_json())
        return 0
    reps = " ".join(G.element_labels[r] for r in ct.classes.class_reps)
    lines = [
        f"group {G.name}: {ct.k} irreducible characters, conductor {ct.conductor}",
        f"  classes: {reps}",
    ]
    for i, row in enumerate(ct.values_text()):
        lines.append(f"  chi{i + 1} [deg {ct.degrees[i]}]: {', '.join(row)}")
    _emit(args, lines, None)
    return 0


def cmd_wenum(args) -> int:
    code = _load_code(args)
    W = weight_enumerator(code)
    lines = [f"W_H(z) = {W.render('z')}"]
    blob = {
        "group": code.group.name,
        "n": code.n,
        "size": code.size,
        "weight_enumerator": W.to_json(),
    }
    _emit(args, lines, blob)
    return 0


def cmd_cwe(args) -> int:
    code = _load_code(args)
    ct = character_table(code.group, cache_dir=args.cache_dir)
    cwe = complete_weight_enumerator(code, ct.classes)
    lines = [f"cwe_H = {cwe.render('y')}"]
    blob = {
        "group": code.group.name,
        "n": code.n,
        "size": code.size,
        "cwe": cwe.to_json(),
    }
    _emit(args, lines, blob)
    return 0


def cmd_rank(args) -> int:
    code = _load_code(args)
    rp = rank_profile(code)
    # the masks with highest bit b are 2^b + S for S < 2^b, so their
    # coordinates are those of S followed by b + 1
    coords, text = [[]], [""]
    for b in range(code.n):
        coords += [c + [b + 1] for c in coords]
        text += [str(b + 1)] + [f"{t},{b + 1}" for t in text[1:]]
    lines = [f"polymatroid of H <= {code.group.name}^{code.n} (|H| = {code.size})"]
    lines += [f"  S={{{t}}}: |pr_S(H)| = {c}" for t, c in zip(text, rp.card)]
    blob = {
        "group": code.group.name,
        "n": code.n,
        "size": code.size,
        "q": code.group.order,
        "cards": [list(pair) for pair in zip(coords, rp.card)],
    }
    _emit(args, lines, blob)
    return 0


def cmd_tutte(args) -> int:
    code = _load_code(args)
    value = tutte_evaluate(rank_profile(code), args.x, args.y)
    _emit(
        args,
        [f"T(x={args.x}, y={args.y}) = {value!r}"],
        {"x": args.x, "y": args.y, "value": value},
    )
    return 0


def cmd_dual(args) -> int:
    code = _load_code(args)
    ct = character_table(code.group, cache_dir=args.cache_dir)
    dm = dual_multiset(code, ct, cap=args.tuple_cap)
    cosets = code.group.order**code.n // code.size
    lines = [
        f"R(H) for H <= {code.group.name}^{code.n}: {cosets} total dimensions",
    ]
    tuples = []
    rows = zip(dm.index.tolist(), dm.counts.tolist(), dm.dims.tolist(), dm.weights.tolist())
    for tup, m, dim, weight in rows:
        lines.append(f"  {m} x {irrep_tuple_label(tup)} (dim {dim}, weight {weight})")
        tuples.append({"j": [j + 1 for j in tup], "mult": m, "dim": dim, "weight": weight})
    W = dual_weight_enumerator(dm)
    cwe = dual_cwe(dm)
    lines.append(f"W_R(z) = {W.render('z')}")
    lines.append(f"cwe_R = {cwe.render('x')}")
    blob = {
        "group": code.group.name,
        "n": code.n,
        "size": code.size,
        "cosets": cosets,
        "tuples": tuples,
        "dual_weight_enumerator": W.to_json(),
        "dual_cwe": cwe.to_json(),
    }
    _emit(args, lines, blob)
    return 0


def cmd_verify(args) -> int:
    code = _load_code(args)
    ct = character_table(code.group, cache_dir=args.cache_dir)
    abelian = ct.k == code.group.order
    if args.abelian and not abelian:
        raise SpecFileError("--abelian requested but the group is nonabelian")
    run_all = args.all or not any(getattr(args, name) for name in CHECKS)
    selected = [
        check
        for name, check in CHECKS.items()
        if getattr(args, name) or (run_all and (abelian or name != "abelian"))
    ]
    analysis = CodeAnalysis(code, ct, args.tuple_cap)
    results = [check(analysis) for check in selected]
    lines = []
    for r in results:
        lines.append(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
        lines.extend(f"  {d}" for d in r.details)
    passed = all(r.passed for r in results)
    blob = {
        "group": code.group.name,
        "n": code.n,
        "size": code.size,
        "checks": [r.to_json() for r in results],
        "passed": passed,
    }
    _emit(args, lines, blob)
    return 0 if passed else 1


S3_IRREP_NAMES = ("1", "s", "t")


def _s3_tuple_name(tup) -> str:
    return "(x)".join(S3_IRREP_NAMES[j] for j in tup)


def cmd_demo(args) -> int:
    """Two worked reference computations over S3, checked line by line."""
    failures = 0

    def check(label, got, want):
        nonlocal failures
        ok = got == want
        if not ok:
            failures += 1
        print(f"  {label}: computed {got}  reference {want}  [{'ok' if ok else 'MISMATCH'}]")

    G = symmetric_group(3)
    ct = character_table(G, cache_dir=args.cache_dir)

    print("== cyclic H <= S3^2 generated by ((0 1), (0 1 2)) ==")
    code = code_from_generators(G, 2, [(1, 2)])
    check("|H|", code.size, 6)
    pc = permutation_character(code, ct.classes, coset_cap=args.coset_cap)
    want_pc = {(0, 0): 6, (1, 0): 2, (0, 2): 6, (1, 2): 2}
    for tup in sorted(want_pc):
        reps = ", ".join(G.element_labels[ct.classes.class_reps[c]] for c in tup)
        check(f"chi({reps})", pc.get(tup, 0), want_pc[tup])
    check("chi elsewhere", {t: c for t, c in pc.items() if t not in want_pc}, {})
    dm = dual_multiset(code, ct, cap=args.tuple_cap)
    got_dual = {_s3_tuple_name(t): m for t, m in sorted(dm.mult.items())}
    check(
        "R(H)",
        got_dual,
        {"1(x)1": 1, "1(x)s": 1, "t(x)1": 1, "t(x)s": 1},
    )

    print("== diagonal H <= S3^n ==")
    for n in (2, 3, 4):
        diag = diagonal_code(G, n)
        cwe = complete_weight_enumerator(diag, ct.classes)
        check(
            f"cwe_H (n={n})",
            cwe.render("x"),
            f"x1^{n} + 3*x2^{n} + 2*x3^{n}",
        )
    diag4 = diagonal_code(G, 4)
    got = macwilliams2_transform(diag4, ct)
    want = (
        "x1^4 + 6*x1^2*x2^2 + 6*x1^2*x3^2 + 12*x1*x2*x3^2 + 4*x1*x3^3"
        " + x2^4 + 6*x2^2*x3^2 + 4*x2*x3^3 + 3*x3^4"
    )
    check("cwe_R(H) via MacWilliams (n=4)", got.render("x"), want)
    dm4 = dual_multiset(diag4, ct, cap=args.tuple_cap)
    check("mult(t(x)t(x)t(x)t)", dm4.mult.get((2, 2, 2, 2), 0), 3)

    print("all reference values reproduced" if not failures else f"{failures} mismatches")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "classes": cmd_classes,
    "chartable": cmd_chartable,
    "wenum": cmd_wenum,
    "cwe": cmd_cwe,
    "rank": cmd_rank,
    "tutte": cmd_tutte,
    "dual": cmd_dual,
    "verify": cmd_verify,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except RepdualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
