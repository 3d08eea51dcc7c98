"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for p in (str(BENCH_DIR), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import repdual.identities  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)


def _cli_job(name: str) -> dict:
    return next(j for j in workloads.load_cli_jobs() if j["name"] == name)


def _cached_s3_job() -> dict:
    """A job reading the warm cache; its reference is the uncached output."""
    env = workloads._cli_env()
    ref = subprocess.run(
        [sys.executable, "-m", "repdual.cli", "chartable", "--group", "builtin:S3"],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    return {
        "name": "chartable_S3_cached",
        "argv": ["chartable", "--group", "builtin:S3", "--cache-dir", "{cache}"],
        "exit": 0,
        "stdout_sha256": hashlib.sha256(ref.stdout).hexdigest(),
    }


def tiny(name: str):
    if name == "code_matrix":
        return workloads.CodeMatrix(groups=("Z2", "S3"), lengths=(1, 2), seeded_codes=2)
    if name == "table_zoo":
        return workloads.TableZoo(zoo=(("S3",), ("Z2", "Z2")))
    return workloads.CliSession([_cli_job("demo"), _cached_s3_job()])


def _all_bindings() -> list:
    tracing.traced_functions()  # imports every layer module first
    return [
        (id(holder), key, id(value))
        for holder in tracing._binding_holders()
        for key, value in tracing._items(holder)
        if isinstance(value, types.FunctionType)
    ]


@pytest.mark.parametrize("name", ["code_matrix", "table_zoo", "cli_session"])
def test_workload_runs_end_to_end(name):
    result = run.measure(tiny(name), seed=0, seconds=0)
    assert result["failed"] == 0
    assert result["records"]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert e2e <= set(result["metrics"])
    assert all(result["metrics"][m] > 0 for m in e2e)


def test_seed_fixes_inputs():
    a = tiny("code_matrix").setup(7, run._workdir())
    b = tiny("code_matrix").setup(7, run._workdir())
    c = tiny("code_matrix").setup(8, run._workdir())
    keys = lambda s: [(k, op[0].words) for k, op in s.ops]  # noqa: E731
    assert keys(a) == keys(b)
    assert keys(a) != keys(c)
    for s in (a, b, c):
        s.close()


@pytest.mark.parametrize("name", ["code_matrix", "table_zoo", "cli_session"])
def test_traced_outputs_match_untraced(name, tmp_path):
    before = _all_bindings()
    result = run.measure_traced(tiny(name), 0, tmp_path / "spans.json")
    assert _all_bindings() == before
    assert result["failed"] == 0
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == per_layer
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_tracer_wraps_every_binding_and_nests():
    before = _all_bindings()
    original = repdual.identities.dual_multiset
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the name identities pulled in with ``from .duality import`` is wrapped
        assert repdual.identities.dual_multiset is not original
        assert repdual.identities.dual_multiset.__wrapped__ is original
        state = tiny("code_matrix").setup(0, run._workdir())
        code, ct = state.ops[0][1]
        repdual.identities.verify_all(code, ct)
        state.close()
    finally:
        tracer.uninstall()
    assert repdual.identities.dual_multiset is original
    assert _all_bindings() == before
    names = [tracer.names[s[0]] for s in tracer.spans]
    greene = names.index("identities.verify_greene")
    assert names[tracer.spans[greene][3]] == "identities.verify_all"
    nested = {names[i] for i, s in enumerate(tracer.spans) if s[3] == greene}
    assert "duality.dual_multiset" in nested
    assert tracer.counts["cyclotomic.Cyclotomic.__mul__"] > 0


def test_wrong_digest_counts_as_failure():
    job = dict(_cli_job("demo"), stdout_sha256="0" * 64)
    result = run.measure(workloads.CliSession([job, _cli_job("demo")]), seed=0, seconds=0)
    assert result["failed"] == 1
    assert result["extra"]["fail_frac"] == 0.5


def test_failing_check_counts_as_failure(monkeypatch):
    real = repdual.identities.verify_all

    def one_fails(code, ct=None):
        results = real(code, ct)
        if code.n == 2:
            results[0].fail("injected")
        return results

    monkeypatch.setattr(repdual.identities, "verify_all", one_fails)
    wl = tiny("code_matrix")
    result = run.measure(wl, seed=0, seconds=0)
    n2 = sum(1 for r in result["records"] if " n=2 " in r[0])
    assert n2 and result["failed"] == n2
    assert result["extra"]["fail_frac"] == n2 / len(result["records"])


def test_raising_op_counts_as_failure(monkeypatch):
    monkeypatch.setattr(
        workloads.TableZoo, "run", lambda self, state, op, tracer=None: 1 / 0
    )
    result = run.measure(tiny("table_zoo"), seed=0, seconds=0)
    assert result["failed"] == len(result["records"]) == 2


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "code_matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
