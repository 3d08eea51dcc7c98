"""The benchmark's three workloads.

Each workload turns a seed into inputs, sets up (``setup``), runs one op at a
time (``run``) and gates every op's output (``check``).  ``check`` returns
``(ok, digest)``: ``ok`` is the correctness gate and ``digest`` fingerprints
the op's output, so a traced pass can be compared with an untraced one.
All three are closed loops with one client: the next op starts when the
previous one has finished.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import repdual.chartable as chartable
import repdual.duality as duality
import repdual.groups as groups
import repdual.identities as identities
import repdual.specfiles as specfiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI_JOBS = BENCH_DIR / "cli_jobs.json"
COSET_CAP = 10**5
CLI_TIMEOUT_S = 150


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _clear_table_memo() -> None:
    """Forget every in-memory character table, so the next lookup is cold."""
    chartable._cache.clear()


@dataclass
class State:
    """What set-up produced: the ops of one pass, in seeded order, as
    ``(key, op)`` pairs, and the directory the workload may write to."""

    ops: list
    workdir: Path
    extra: dict = field(default_factory=dict)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- code_matrix -------------------------------------------------------------


def _class_profiles(G, classes, n: int) -> list[list[int]]:
    """Conjugacy classes, one per coordinate, of the seeded generator words:
    all in a class of largest element order, the classes taken in turn, all
    in a class of smallest order.  The seed picks each coordinate's element
    within its class and shuffles the coordinates.  Conjugating
    coordinatewise is an isomorphism of codes that keeps every class
    pattern, so a profile costs about the same whatever the seed."""
    by_order = sorted(
        range(1, classes.num_classes), key=lambda c: G.element_order(classes.class_reps[c])
    )
    return [
        [by_order[-1]] * n,
        [by_order[m % len(by_order)] for m in range(n)],
        [by_order[0]] * n,
    ]


class CodeMatrix:
    """Full analysis of many small codes in the acceptance-matrix shape."""

    name = "code_matrix"
    in_process = True

    def __init__(self, groups=("Z2", "Z4", "Z6", "S3", "D4", "Q8"), lengths=(1, 2, 3, 4),
                 seeded_codes: int = 3):
        self.group_names = groups
        self.lengths = lengths
        self.seeded_codes = seeded_codes

    def setup(self, seed: int, workdir: Path) -> State:
        """Parse every group and code from its spec and build the tables."""
        _clear_table_memo()
        rng = random.Random(f"code_matrix:{seed}")
        ops = []
        for gname in self.group_names:
            G = specfiles.load_group_spec(f"builtin:{gname}")
            ct = chartable.character_table(G)
            for n in self.lengths:
                specs = [(kind, f"{kind}:n={n}") for kind in ("trivial", "full", "diag")]
                profiles = _class_profiles(G, ct.classes, n)[: self.seeded_codes]
                for i, profile in enumerate(profiles):
                    word = [rng.choice(ct.classes.members(c)) for c in profile]
                    rng.shuffle(word)
                    labels = [G.element_labels[g] for g in word]
                    specs.append((f"gen{i}", {"n": n, "generators": [labels]}))
                for label, spec in specs:
                    code = specfiles.load_code_spec(spec, G)
                    ops.append((f"{gname} n={n} {label}", (code, ct)))
        rng.shuffle(ops)
        return State(ops, workdir)

    def run(self, state: State, op, tracer=None):
        code, ct = op
        results = identities.verify_all(code, ct)
        dm = oracle = None
        if code.group.order**code.n // code.size <= COSET_CAP:
            pc = duality.permutation_character(code, ct.classes, coset_cap=COSET_CAP)
            oracle = duality.decompose_permutation_character(pc, ct, code.n)
            dm = duality.dual_multiset(code, ct)
        return results, dm, oracle

    def check(self, state: State, op, out) -> tuple[bool, str]:
        results, dm, oracle = out
        ok = all(r.passed for r in results)
        if dm is not None:
            ok = ok and dm.mult == oracle.mult
        blob = [(r.name, r.passed, r.details) for r in results]
        if dm is not None:
            blob.append(sorted(dm.mult.items()))
            blob.append(sorted(oracle.mult.items()))
        return ok, _sha256(repr(blob))


# -- table_zoo ---------------------------------------------------------------

ZOO = (("S5",), ("S6",), ("D15",), ("D30",), ("Z24",), ("Z30",), ("Z2",) * 5, ("S4", "Z3"))


def _zoo_label(factors) -> str:
    return factors[0] if len(factors) == 1 else "x".join(factors)


def _build_zoo_group(factors):
    if len(factors) == 1:
        return groups.builtin_group(factors[0])
    return groups.product_group([groups.builtin_group(f) for f in factors])


class TableZoo:
    """Cold character tables of mid-sized groups, each written to disk."""

    name = "table_zoo"
    in_process = True

    def __init__(self, zoo=ZOO):
        self.zoo = zoo

    def setup(self, seed: int, workdir: Path) -> State:
        """Shuffle the groups and record each one's order and class count,
        against which every op's table is checked."""
        order = list(self.zoo)
        random.Random(f"table_zoo:{seed}").shuffle(order)
        reference = {}
        for factors in order:
            G = _build_zoo_group(factors)
            reference[factors] = (G.order, groups.conjugacy_classes(G).num_classes)
        ops = [(_zoo_label(f), f) for f in order]
        return State(ops, workdir, {"reference": reference})

    def run(self, state: State, op, tracer=None):
        _clear_table_memo()
        cache_dir = Path(tempfile.mkdtemp(dir=state.workdir))
        G = _build_zoo_group(op)
        return chartable.character_table(G, cache_dir=cache_dir), cache_dir

    def check(self, state: State, op, out) -> tuple[bool, str]:
        ct, cache_dir = out
        wrote = any(cache_dir.iterdir())
        shutil.rmtree(cache_dir)
        order, num_classes = state.extra["reference"][op]
        ok = (
            wrote
            and ct.group.order == order
            and sum(d * d for d in ct.degrees) == order
            and ct.k == num_classes
        )
        return ok, _sha256(json.dumps(ct.to_json()))


# -- cli_session -------------------------------------------------------------


def load_cli_jobs(path: Path = CLI_JOBS) -> list[dict]:
    return json.loads(path.read_text())["jobs"]


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliSession:
    """One ``python -m repdual.cli`` process per job, as a user runs it."""

    name = "cli_session"
    in_process = False

    def __init__(self, jobs: list[dict] | None = None):
        self.jobs = load_cli_jobs() if jobs is None else jobs

    def setup(self, seed: int, workdir: Path) -> State:
        """Fill a warm --cache-dir for every group a job reads from it."""
        cache_dir = workdir / "cache"
        for job in self.jobs:
            argv = job["argv"]
            if "{cache}" in argv:
                _clear_table_memo()
                G = specfiles.load_group_spec(argv[argv.index("--group") + 1])
                chartable.character_table(G, cache_dir=cache_dir)
        _clear_table_memo()
        ops = [(job["name"], job) for job in self.jobs]
        random.Random(f"cli_session:{seed}").shuffle(ops)
        return State(ops, workdir, {"cache": str(cache_dir), "env": _cli_env()})

    def run(self, state: State, job, tracer=None):
        argv = [state.extra["cache"] if a == "{cache}" else a for a in job["argv"]]
        if tracer is None:
            cmd = [sys.executable, "-m", "repdual.cli", *argv]
        else:
            trace_out = state.workdir / "job-trace.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_driver.py"), str(trace_out), "--", *argv]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=state.extra["env"], capture_output=True, timeout=CLI_TIMEOUT_S
        )
        if tracer is not None:
            tracer.merge(json.loads(trace_out.read_text()), tracer.op)
            trace_out.unlink()
        return proc.returncode, proc.stdout

    def check(self, state: State, job, out) -> tuple[bool, str]:
        code, stdout = out
        digest = _sha256(stdout)
        return code == job["exit"] and digest == job["stdout_sha256"], f"{code}:{digest}"


WORKLOADS = {w.name: w for w in (CodeMatrix, TableZoo, CliSession)}
