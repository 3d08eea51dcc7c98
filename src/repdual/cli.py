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
from itertools import islice

import numpy as np

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
    permutation_character,
)
from .errors import DomainError, RepdualError, SpecFileError
from .groups import conjugacy_classes, symmetric_group
from .identities import CHECKS, CodeAnalysis, macwilliams2_transform
from .specfiles import load_code_spec, load_group_spec

# encoder chunks joined per write of --format json
JSON_BLOCK = 2**16


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repdual",
        description="Representation-based duals, enumerators and identity "
        "verification for codes over finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cap(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"a cap must be at least 1, got {text}")
        return int(text)

    def add_common(p, code=False, table=False, tuple_cap=False):
        """Every subcommand's options but demo's, each where it is read: --code
        and --closure-cap for a code, --cache-dir for a table, --tuple-cap for R(H)."""
        p.add_argument("--group", help="group spec: JSON file or builtin:NAME")
        if code:
            p.add_argument(
                "--code",
                required=True,
                help="code spec: JSON file or trivial:/full:/diag: shorthand",
            )
            p.add_argument("--closure-cap", type=cap, default=DEFAULT_CODE_CAP, metavar="N")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if tuple_cap:
            p.add_argument("--tuple-cap", type=cap, default=DEFAULT_TUPLE_CAP, metavar="N")
        if table:
            p.add_argument("--cache-dir", help="on-disk character table cache")

    p = sub.add_parser("classes", help="conjugacy classes of a group")
    add_common(p)
    p = sub.add_parser("chartable", help="exact character table of a group")
    add_common(p, table=True)
    p = sub.add_parser("wenum", help="weight enumerator of a code")
    add_common(p, code=True)
    p = sub.add_parser("cwe", help="complete weight enumerator of a code")
    add_common(p, code=True, table=True)
    p = sub.add_parser("rank", help="projection-cardinality polymatroid")
    add_common(p, code=True)
    p = sub.add_parser("tutte", help="floating Tutte evaluation")
    add_common(p, code=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p = sub.add_parser("dual", help="representation-based dual multiset")
    add_common(p, code=True, table=True, tuple_cap=True)
    p = sub.add_parser("verify", help="exact identity verification")
    add_common(p, code=True, table=True, tuple_cap=True)
    for name in CHECKS:
        p.add_argument(f"--{name}", action="store_true")
    p.add_argument("--all", action="store_true")
    # demo fixes its group, codes and output: it takes its caps and the cache
    p = sub.add_parser("demo", help="reproduce the two worked reference examples")
    p.add_argument("--tuple-cap", type=cap, default=DEFAULT_TUPLE_CAP, metavar="N")
    p.add_argument("--coset-cap", type=cap, default=DEFAULT_COSET_CAP, metavar="N")
    p.add_argument("--cache-dir", help="on-disk character table cache")
    return parser


def _emit(args, text_lines, json_obj) -> None:
    """Print text_lines() or json_obj(), whichever --format asks for; the
    other is never built.  The text goes out in one write, each line ended
    by a newline.  The JSON is the bytes of json.dumps(..., indent=2) and a
    newline, streamed from the encoder in blocks of JSON_BLOCK chunks, so
    the whole string is never held at once."""
    if args.format == "json":
        chunks = json.JSONEncoder(indent=2).iterencode(json_obj())
        for block in iter(lambda: "".join(islice(chunks, JSON_BLOCK)), ""):
            sys.stdout.write(block)
        sys.stdout.write("\n")
    else:
        sys.stdout.write("".join(f"{line}\n" for line in text_lines()))


def _load_group(args):
    if not args.group:
        raise SpecFileError("this subcommand needs --group")
    return load_group_spec(args.group)


def _load_code(args):
    group = load_group_spec(args.group) if args.group else None
    return load_code_spec(args.code, group, cap=args.closure_cap)


def _code_json(code, **fields) -> dict:
    """A code command's JSON object: the code's group, n and size, then fields."""
    return {"group": code.group.name, "n": code.n, "size": code.size, **fields}


def cmd_classes(args) -> int:
    G = _load_group(args)
    cd = conjugacy_classes(G)
    head = f"group {G.name}: order {G.order}, {cd.num_classes} conjugacy classes"
    sizes = cd.class_sizes

    def lines():
        reps = G.labels_of(cd.class_reps)
        return [head] + [
            f"  class {c + 1}: size {size}, rep {rep}"
            for c, (size, rep) in enumerate(zip(sizes, reps))
        ]

    def blob():
        labels = list(G.element_labels)
        members = [[] for _ in range(cd.num_classes)]
        for label, c in zip(labels, cd.class_of):
            members[c].append(label)
        classes = [
            {"index": c + 1, "size": sizes[c], "rep": labels[r], "members": members[c]}
            for c, r in enumerate(cd.class_reps)
        ]
        return {
            "group": G.name, "order": G.order, "num_classes": cd.num_classes, "classes": classes
        }

    _emit(args, lines, blob)
    return 0


def cmd_chartable(args) -> int:
    G = _load_group(args)
    ct = character_table(G, cache_dir=args.cache_dir)

    def lines():
        reps = " ".join(G.labels_of(ct.classes.class_reps))
        rows = enumerate(zip(ct.degrees, ct.values_text()))
        return [
            f"group {G.name}: {ct.k} irreducible characters, conductor {ct.conductor}",
            f"  classes: {reps}",
            *(f"  chi{i + 1} [deg {d}]: {', '.join(row)}" for i, (d, row) in rows),
        ]

    _emit(args, lines, ct.to_json)
    return 0


def cmd_wenum(args) -> int:
    code = _load_code(args)
    W = weight_enumerator(code)
    _emit(
        args,
        lambda: [f"W_H(z) = {W.render('z')}"],
        lambda: _code_json(code, weight_enumerator=W.to_json()),
    )
    return 0


def cmd_cwe(args) -> int:
    code = _load_code(args)
    ct = character_table(code.group, cache_dir=args.cache_dir)
    cwe = complete_weight_enumerator(code, ct.classes)
    _emit(
        args,
        lambda: [f"cwe_H = {cwe.render('y')}"],
        lambda: _code_json(code, cwe=cwe.to_json()),
    )
    return 0


def cmd_rank(args) -> int:
    code = _load_code(args)
    rp = rank_profile(code)

    # the masks with highest bit b are 2^b + S for S < 2^b, so their
    # coordinates are those of S followed by b + 1
    def lines():
        text = [""]
        for b in range(code.n):
            text += [str(b + 1)] + [f"{t},{b + 1}" for t in text[1:]]
        head = f"polymatroid of H <= {code.group.name}^{code.n} (|H| = {code.size})"
        return [head] + [f"  S={{{t}}}: |pr_S(H)| = {c}" for t, c in zip(text, rp.card)]

    def blob():
        coords = [[]]
        for b in range(code.n):
            coords += [c + [b + 1] for c in coords]
        cards = [list(pair) for pair in zip(coords, rp.card)]
        return _code_json(code, q=code.group.order, cards=cards)

    _emit(args, lines, blob)
    return 0


def cmd_tutte(args) -> int:
    code = _load_code(args)
    value = tutte_evaluate(rank_profile(code), args.x, args.y)
    _emit(
        args,
        lambda: [f"T(x={args.x}, y={args.y}) = {value!r}"],
        lambda: {"x": args.x, "y": args.y, "value": value},
    )
    return 0


def cmd_dual(args) -> int:
    code = _load_code(args)
    ct = character_table(code.group, cache_dir=args.cache_dir)
    dm = dual_multiset(code, ct, cap=args.tuple_cap)
    cosets = code.group.order**code.n // code.size
    W, cwe = dual_weight_enumerator(dm), dual_cwe(dm)
    columns = dm.counts.tolist(), dm.dims.tolist(), dm.weights.tolist()

    def lines():
        # every tuple's irrep names, one name column per coordinate
        names = np.array([f"rho{j + 1}" for j in range(dm.k)], dtype=object)[dm.index]
        rows = zip(map("(x)".join, names.tolist()), *columns)
        return [
            f"R(H) for H <= {code.group.name}^{code.n}: {cosets} total dimensions",
            *(f"  {m} x {label} (dim {dim}, weight {weight})" for label, m, dim, weight in rows),
            f"W_R(z) = {W.render('z')}",
            f"cwe_R = {cwe.render('x')}",
        ]

    def blob():
        rows = zip(dm.index.tolist(), *columns)
        return _code_json(
            code,
            cosets=cosets,
            tuples=[
                {"j": [j + 1 for j in tup], "mult": m, "dim": dim, "weight": weight}
                for tup, m, dim, weight in rows
            ],
            dual_weight_enumerator=W.to_json(),
            dual_cwe=cwe.to_json(),
        )

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
    checks = [r.to_json() for r in results]
    _emit(args, lambda: lines, lambda: _code_json(code, checks=checks, passed=passed))
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
        reps = ", ".join(G.labels_of([ct.classes.class_reps[c] for c in tup]))
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
