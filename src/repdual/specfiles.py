"""Loading groups and codes from JSON spec files or inline shorthands.

Group specs (JSON object, file containing one, or "builtin:NAME" shorthand):

  {"kind": "builtin", "name": "S3"}                      named group
  {"kind": "permutation", "degree": 3,
   "generators": [[[0, 1]], [[0, 1, 2]]]}                cycles, 0-based points
  {"kind": "table", "table": [[0, 1], [1, 0]],
   "labels": ["e", "a"]}                                 Cayley table, distinct labels
  {"kind": "product", "factors": [<spec>, ...]}          direct product

Code specs (JSON object/file or "trivial:n=K" / "full:n=K" / "diag:n=K"):

  {"group": <group spec or path string>, "n": 2,
   "generators": [["(0 1)", "(0 1 2)"]]}                 element labels per
                                                         coordinate

Parse problems raise SpecFileError naming the offending field; JSON syntax
errors carry the decoder's line/column.
"""

from __future__ import annotations

import json
from pathlib import Path

from .codes import (
    DEFAULT_CODE_CAP,
    GroupCode,
    code_from_generators,
    diagonal_code,
    full_code,
    trivial_code,
)
from .errors import RepdualError, SpecFileError
from .groups import (
    DEFAULT_GROUP_CAP,
    FiniteGroup,
    builtin_group,
    group_from_generators,
    group_from_table,
    perm_from_cycles,
    product_group,
)


def _read_json(path: str) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecFileError(f"{where}: missing field {key!r}")
    return obj[key]


def _is_int(x) -> bool:
    """A JSON integer: an int, and not a boolean."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_group_spec(spec, cap: int = DEFAULT_GROUP_CAP, where: str = "group") -> FiniteGroup:
    """spec: dict, path to a JSON file, or 'builtin:NAME' shorthand."""
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        if spec.startswith("builtin:"):
            name = spec.split(":", 1)[1]
            try:
                return builtin_group(name, cap)
            except (ValueError, RepdualError) as exc:
                raise SpecFileError(f"{where}: {exc}") from exc
        return load_group_spec(_read_json(spec), cap, where=spec)
    if not isinstance(spec, dict):
        raise SpecFileError(f"{where}: expected an object, got {type(spec).__name__}")
    kind = _require(spec, "kind", where)
    try:
        if kind == "builtin":
            name = _require(spec, "name", where)
            params = spec.get("params")
            if params is not None:
                name = f"{name}{params}"
            return builtin_group(name, cap)
        if kind == "permutation":
            degree = _require(spec, "degree", where)
            if not _is_int(degree):
                raise SpecFileError(f"{where}.degree: expected an integer, got {degree!r}")
            perms = []
            for gi, cycles in enumerate(_require(spec, "generators", where)):
                if not all(_is_int(pt) for cycle in cycles for pt in cycle):
                    raise SpecFileError(f"{where}.generators[{gi}]: points must be integers")
                perms.append(perm_from_cycles(cycles, degree))
            return group_from_generators(perms, cap)
        if kind == "table":
            labels = spec.get("labels")
            if labels is not None and not (
                isinstance(labels, list)
                and {type(label) for label in labels} <= {str}
                and len(set(labels)) == len(labels)
            ):
                raise SpecFileError(f"{where}.labels: expected a list of distinct strings")
            return group_from_table(_require(spec, "table", where), labels)
        if kind == "product":
            factors = _require(spec, "factors", where)
            groups = [
                load_group_spec(f, cap, where=f"{where}.factors[{i}]")
                for i, f in enumerate(factors)
            ]
            return product_group(groups, cap=cap)
    except SpecFileError:
        raise
    except (RepdualError, ValueError, TypeError, IndexError) as exc:
        raise SpecFileError(f"{where} ({kind}): {exc}") from exc
    raise SpecFileError(f"{where}: unknown group kind {kind!r}")


def _parse_shorthand_params(text: str, where: str) -> dict[str, str]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise SpecFileError(f"{where}: expected key=value, got {part!r}")
        key, value = (x.strip() for x in part.split("=", 1))
        if key != "n":
            raise SpecFileError(f"{where}: unknown shorthand parameter {key!r}")
        if key in out:
            raise SpecFileError(f"{where}: shorthand parameter {key!r} given twice")
        out[key] = value
    return out


def _label_index(G: FiniteGroup) -> dict[str, int]:
    return {label: i for i, label in enumerate(G.element_labels)}


def load_code_spec(
    spec,
    group: FiniteGroup | None = None,
    cap: int = DEFAULT_CODE_CAP,
    group_cap: int = DEFAULT_GROUP_CAP,
    where: str = "code",
) -> GroupCode:
    """spec: dict, path to a JSON file, or 'trivial:n=K' / 'full:n=K' /
    'diag:n=K' shorthand (shorthands need an explicit group)."""
    if isinstance(spec, str):
        head, _, rest = spec.partition(":")
        if head in ("trivial", "full", "diag"):
            if group is None:
                raise SpecFileError(f"{where}: shorthand {spec!r} needs --group")
            params = _parse_shorthand_params(rest, where)
            try:
                n = int(params["n"])
            except (KeyError, ValueError):
                raise SpecFileError(f"{where}: shorthand {spec!r} needs n=<int>")
            if n < 1:
                raise SpecFileError(f"{where}: shorthand {spec!r} needs n >= 1")
            if head == "trivial":
                return trivial_code(group, n)
            if head == "full":
                return full_code(group, n, cap)
            return diagonal_code(group, n)
        return load_code_spec(_read_json(spec), group, cap, group_cap, where=spec)
    if not isinstance(spec, dict):
        raise SpecFileError(f"{where}: expected an object, got {type(spec).__name__}")
    if "group" in spec:
        group = load_group_spec(spec["group"], group_cap, where=f"{where}.group")
    if group is None:
        raise SpecFileError(f"{where}: no group given (field 'group' or --group)")
    n = _require(spec, "n", where)
    if not _is_int(n) or n < 1:
        raise SpecFileError(f"{where}.n: expected a positive integer, got {n!r}")
    labels = _label_index(group)
    gens = []
    words = _require(spec, "generators", where)
    if not isinstance(words, list):
        raise SpecFileError(f"{where}.generators: expected a list of generators, got {words!r}")
    for gi, gen in enumerate(words):
        if not isinstance(gen, list) or len(gen) != n:
            raise SpecFileError(
                f"{where}.generators[{gi}]: expected a list of {n} element labels"
            )
        word = []
        for ci, lab in enumerate(gen):
            if not isinstance(lab, str) or lab not in labels:
                raise SpecFileError(
                    f"{where}.generators[{gi}][{ci}]: unknown element label {lab!r} "
                    f"for group {group.name}"
                )
            word.append(labels[lab])
        gens.append(tuple(word))
    try:
        return code_from_generators(group, n, gens, cap)
    except RepdualError as exc:
        raise SpecFileError(f"{where}: {exc}") from exc
