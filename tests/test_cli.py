import hashlib
import json
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import repdual
from repdual import cli
from repdual.cli import _emit, main
from repdual.errors import SpecFileError
from repdual.specfiles import load_code_spec, load_group_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env() -> dict:
    """This environment with the src directory that the tests import
    repdual from put first on PYTHONPATH, so a child process runs the same
    checkout, installed or not."""
    src = str(Path(repdual.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_load_group_builtin_shorthand():
    for name, order in (("S3", 6), ("Z6", 6), ("D4", 8), ("Q8", 8), ("S4", 24)):
        G = load_group_spec(f"builtin:{name}")
        assert G.order == order


def test_load_group_json_kinds(tmp_path):
    perm = tmp_path / "s3.json"
    perm.write_text(
        json.dumps({"kind": "permutation", "degree": 3, "generators": [[[0, 1]], [[0, 1, 2]]]})
    )
    assert load_group_spec(str(perm)).order == 6
    table = {"kind": "table", "table": [[0, 1], [1, 0]]}
    assert load_group_spec(table).order == 2
    product = {"kind": "product", "factors": [{"kind": "builtin", "name": "Z2"}, table]}
    assert load_group_spec(product).order == 4
    assert load_group_spec({"kind": "builtin", "name": "Z", "params": 6}).order == 6


def test_load_group_errors(tmp_path):
    with pytest.raises(SpecFileError, match="missing field"):
        load_group_spec({"kind": "permutation", "degree": 2})
    with pytest.raises(SpecFileError, match="unknown group kind"):
        load_group_spec({"kind": "frobnicate"})
    for name in ("builtin:Z0", "builtin:S0", "builtin:D0"):
        with pytest.raises(SpecFileError, match="positive parameter"):
            load_group_spec(name)
    with pytest.raises(SpecFileError, match="positive parameter"):
        load_group_spec({"kind": "builtin", "name": "Z", "params": 0})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError, match="line 1"):
        load_group_spec(str(bad))


def test_load_code_spec_labels(tmp_path):
    spec = {
        "group": "builtin:S3",
        "n": 2,
        "generators": [["(0 1)", "(0 1 2)"]],
    }
    code = load_code_spec(spec)
    assert code.size == 6
    spec["generators"] = [["(0 1)", "nope"]]
    with pytest.raises(SpecFileError, match=r"generators\[0\]\[1\]"):
        load_code_spec(spec)


def test_load_code_shorthands():
    G = load_group_spec("builtin:S3")
    assert load_code_spec("trivial:n=3", G).size == 1
    assert load_code_spec("full:n=2", G).size == 36
    assert load_code_spec("diag:n=4", G).size == 6
    with pytest.raises(SpecFileError, match="needs --group"):
        load_code_spec("diag:n=4")


def test_cli_classes(capsys):
    code, out, _ = run(capsys, "classes", "--group", "builtin:S3")
    assert code == 0
    assert "3 conjugacy classes" in out
    assert "class 2: size 3" in out


def test_cli_classes_builds_no_table(capsys, monkeypatch):
    import repdual.cli as cli

    monkeypatch.setattr(cli, "character_table", None)
    code, out, _ = run(capsys, "classes", "--group", "builtin:D4")
    assert code == 0
    assert "5 conjugacy classes" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--cache-dir", "D"),
        ("wenum", "--code", "diag:n=2", "--cache-dir", "D"),
        ("rank", "--code", "diag:n=2", "--cache-dir", "D"),
        ("tutte", "--code", "diag:n=2", "--x", "2", "--y", "2", "--cache-dir", "D"),
        ("classes", "--closure-cap", "10"),
        ("chartable", "--closure-cap", "10"),
    ],
    ids=["classes-cache", "wenum-cache", "rank-cache", "tutte-cache", "classes-cap", "chartable-cap"],
)
def test_cli_options_a_subcommand_does_not_read_are_argument_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--group", "builtin:S3", *argv[1:]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_cli_classes_json_lists_members_in_index_order(capsys):
    from repdual.groups import conjugacy_classes, symmetric_group

    code, out, _ = run(capsys, "classes", "--group", "builtin:S4", "--format", "json")
    assert code == 0
    G = symmetric_group(4)
    cd = conjugacy_classes(G)
    members = [c["members"] for c in json.loads(out)["classes"]]
    assert members == [[G.element_labels[g] for g in cd.members(c)] for c in range(cd.num_classes)]


def test_cli_chartable_refuses_a_large_class_algebra(capsys):
    # the closed-form table of Z<n> has n^3 entries: Z322 is the largest
    # cyclic table under the default cap
    code, out, err = run(capsys, "chartable", "--group", "builtin:Z1000")
    assert code == 1
    assert out == ""
    message = "character table array (k*k*m entries) needs 1000000000 > cap 33554432"
    assert err == f"error: {message}\n"


def test_cli_cyclic_groups_keep_the_group_cap(capsys):
    code, out, err = run(capsys, "classes", "--group", "builtin:Z5001")
    assert code == 2
    assert out == ""
    assert "cyclic group order needs 5001 > cap 5000" in err


def test_cli_chartable_json(capsys):
    code, out, _ = run(capsys, "chartable", "--group", "builtin:S3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["degrees"] == [1, 1, 2]
    assert blob["values"][1][1] == {"conductor": 6, "coeffs": ["-1", "0"]}


def test_cli_wenum_cwe_rank(capsys):
    code, out, _ = run(capsys, "wenum", "--group", "builtin:S3", "--code", "diag:n=4")
    assert code == 0 and "1 + 5*z^4" in out
    code, out, _ = run(capsys, "cwe", "--group", "builtin:S3", "--code", "diag:n=3")
    assert code == 0 and "y1^3 + 3*y2^3 + 2*y3^3" in out
    code, out, _ = run(capsys, "rank", "--group", "builtin:S3", "--code", "diag:n=2")
    assert code == 0 and "S={1,2}: |pr_S(H)| = 6" in out


def test_cli_tutte_trivial(capsys):
    code, out, _ = run(
        capsys,
        "tutte",
        "--group",
        "builtin:Z2",
        "--code",
        "trivial:n=1",
        "--x",
        "2",
        "--y",
        "3",
    )
    assert code == 0
    assert "3.0" in out


@pytest.mark.parametrize("x, y", [("nan", "3"), ("2", "nan"), ("inf", "3"), ("2", "-inf")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_tutte_refuses_non_finite_points(capsys, x, y, fmt):
    code, out, err = run(
        capsys, "tutte", "--group", "builtin:Z2", "--code", "full:n=2", f"--x={x}", f"--y={y}",
        "--format", fmt,
    )
    assert (code, out) == (2, "")
    assert err.startswith("domain error: tutte_evaluate needs finite x and y, got (")


def test_cli_tutte_keeps_its_domain_message(capsys):
    code, out, err = run(
        capsys, "tutte", "--group", "builtin:Z2", "--code", "full:n=2", "--x", "1", "--y", "3"
    )
    assert (code, out) == (2, "")
    assert err == "domain error: tutte_evaluate needs x > 1 and y > 1, got (1.0, 3.0)\n"


def test_cli_dual_text_and_json(capsys):
    code, out, _ = run(capsys, "dual", "--group", "builtin:S3", "--code", "diag:n=2")
    assert code == 0
    assert "1 x rho1(x)rho1 (dim 1, weight 0)" in out
    code, out, _ = run(
        capsys, "dual", "--group", "builtin:S3", "--code", "diag:n=2", "--format", "json"
    )
    blob = json.loads(out)
    assert {"j": [1, 1], "mult": 1, "dim": 1, "weight": 0} in blob["tuples"]
    assert blob["cosets"] == 6


def test_cli_verify_all(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "builtin:S3", "--code", "diag:n=4", "--all"
    )
    assert code == 0
    assert "greene: PASS" in out
    assert "macwilliams2: PASS" in out


def test_cli_verify_abelian_flag(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--group",
        "builtin:Z4",
        "--code",
        "diag:n=2",
        "--all",
        "--format",
        "json",
    )
    assert code == 0
    blob = json.loads(out)
    names = [c["name"] for c in blob["checks"]]
    assert "abelian_specialization" in names
    # requesting the abelian check on a nonabelian group is an argument error
    code, _, err = run(
        capsys, "verify", "--group", "builtin:S3", "--code", "diag:n=2", "--abelian"
    )
    assert code == 2
    assert "nonabelian" in err


def test_cli_demo(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "all reference values reproduced" in out
    assert "MISMATCH" not in out


@pytest.mark.parametrize(
    "option", [("--format", "json"), ("--group", "builtin:Z5"), ("--code", "diag:n=2"), ("--closure-cap", "10")]
)
def test_cli_demo_refuses_options_it_does_not_read(capsys, option):
    # demo fixes its group, codes and output: argparse rejects the rest
    with pytest.raises(SystemExit) as exc:
        main(["demo", *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_cli_demo_takes_its_caps_and_cache(capsys, tmp_path, monkeypatch):
    from repdual import chartable

    monkeypatch.setattr(chartable, "_cache", {})  # so the S3 table is written
    code, out, _ = run(capsys, "demo", "--cache-dir", str(tmp_path), "--coset-cap", "36")
    assert code == 0 and "all reference values reproduced" in out
    assert len(list(tmp_path.iterdir())) == 1
    code, _, err = run(capsys, "demo", "--tuple-cap", "10")
    assert code == 1
    assert err == "error: irrep tuple space needs 81 > cap 10\n"


def test_cli_spec_error_exit_2(capsys):
    code, _, err = run(capsys, "wenum", "--code", "diag:n=2")
    assert code == 2
    assert "spec error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("wenum", "--group", "builtin:S3", "--code", "diag:n=0"),
        ("dual", "--group", "builtin:S3", "--code", "full:n=-1"),
        ("classes", "--group", "builtin:Z0"),
        ("chartable", "--group", "builtin:S0"),
    ],
)
def test_cli_empty_shorthands_are_spec_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "spec error" in err


def test_cli_group_closure_keeps_its_fixed_cap(capsys):
    # --closure-cap bounds code closures only
    code, out, err = run(
        capsys, "wenum", "--group", "builtin:S7", "--code", "diag:n=1", "--closure-cap", "100000"
    )
    assert code == 2
    assert out == ""
    assert "group closure needs 5001 > cap 5000" in err


@pytest.mark.parametrize("check", ["--mw1", "--extension", "--abelian"])
def test_cli_verify_tuple_cap_reaches_every_check(capsys, check):
    code, out, err = run(
        capsys, "verify", "--group", "builtin:Z6", "--code", "full:n=4", check,
        "--tuple-cap", "10",
    )
    assert code == 1
    assert out == ""
    assert "irrep tuple space needs 1296 > cap 10" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"n": True, "generators": [["(0 1)"]]},
        {"n": 2, "generators": [[["x"], "()"]]},
        {"n": 2, "generators": [["()", {"x": 1}]]},
    ],
    ids=["bool-n", "list-label", "object-label"],
)
def test_cli_malformed_code_specs_exit_2(capsys, tmp_path, spec):
    # a bool is not a length and a label must be a string: both are spec
    # errors, not tracebacks
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "wenum", "--group", "builtin:S3", "--code", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("spec error: ")
    assert ("expected a positive integer" if spec["n"] is True else "unknown element label") in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "permutation", "degree": 2, "generators": [[[False, True]]]},
         "generators[0]: points must be integers"),
        ({"kind": "permutation", "degree": True, "generators": [[[0]]]},
         "degree: expected an integer, got True"),
    ],
    ids=["bool-points", "bool-degree"],
)
def test_cli_boolean_permutation_fields_exit_2(capsys, tmp_path, spec, field):
    # a JSON boolean is not a point or a degree, as it is not a length
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "classes", "--group", str(path))
    assert code == 2
    assert out == ""
    assert err == f"spec error: {path}.{field}\n"


def test_cli_cache_dir_that_is_a_file_exits_1(capsys, tmp_path, monkeypatch):
    from repdual import chartable

    monkeypatch.setattr(chartable, "_cache", {})  # so the table is written
    path = tmp_path / "F"
    path.write_text("")
    code, out, err = run(capsys, "chartable", "--group", "builtin:S3", "--cache-dir", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write to cache directory {path}: ")
    assert err.count("\n") == 1 and "File exists" in err
    assert path.read_text() == ""


@pytest.mark.parametrize(
    "shorthand, key", [("diag:n=2,x=9", "unknown shorthand parameter 'x'"),
                       ("diag:n=2,n=3", "shorthand parameter 'n' given twice")]
)
def test_cli_shorthands_refuse_unknown_and_repeated_keys(capsys, shorthand, key):
    code, out, err = run(capsys, "wenum", "--group", "builtin:Z2", "--code", shorthand)
    assert code == 2
    assert out == ""
    assert err == f"spec error: code: {key}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--group", "builtin:S3", "--code", "diag:n=2", "--closure-cap", "0"),
        ("wenum", "--group", "builtin:Z2", "--code", "full:n=2", "--closure-cap", "-1"),
        ("dual", "--group", "builtin:S3", "--code", "diag:n=2", "--tuple-cap", "-5"),
        ("demo", "--coset-cap", "0"),
    ],
    ids=["rank", "wenum", "dual", "demo"],
)
def test_cli_caps_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-2]}: a cap must be at least 1, got {argv[-1]}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("wenum", "--group", "builtin:S3", "--code", "diag:n=2", "--tuple-cap", "5"),
        ("dual", "--group", "builtin:S3", "--code", "diag:n=2", "--coset-cap", "5"),
    ],
    ids=["wenum-tuple-cap", "dual-coset-cap"],
)
def test_cli_subcommands_refuse_caps_they_do_not_read(capsys, argv):
    # only demo runs the coset oracle, and only dual, verify and demo build R(H)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_cli_deterministic_json(capsys):
    argv = ["dual", "--group", "builtin:Q8", "--code", "diag:n=3", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


@pytest.mark.parametrize("lines", [[], [""], ["a", "", "b c"]], ids=["none", "empty", "three"])
def test_emit_writes_the_bytes_of_one_print_per_line(capsys, lines):
    for line in lines:
        print(line)
    want = capsys.readouterr().out
    _emit(Namespace(format="text"), lambda: lines, dict)
    assert capsys.readouterr().out == want


JSON_COMMANDS = ["classes", "chartable", "wenum", "cwe", "rank", "tutte", "dual", "verify"]


@pytest.mark.parametrize("command", JSON_COMMANDS)
@pytest.mark.parametrize("group, code", [("S3", "diag:n=3"), ("Q8", "full:n=2"), ("Z6", "trivial:n=2")])
def test_streamed_json_is_the_bytes_of_json_dumps(capsys, monkeypatch, command, group, code):
    argv = [command, "--group", f"builtin:{group}", "--format", "json"]
    if command not in ("classes", "chartable"):
        argv += ["--code", code]
    if command == "tutte":
        argv += ["--x", "2.5", "--y", "1.5"]
    _, out, err = run(capsys, *argv)
    assert out == json.dumps(json.loads(out), indent=2) + "\n", err
    # blocks of a few chunks write the same bytes
    monkeypatch.setattr(cli, "JSON_BLOCK", 3)
    assert run(capsys, *argv)[1] == out


def test_cli_process_maps_openssl_only_to_name_a_cache_file(tmp_path):
    """hashlib's OpenSSL module is loaded only to take the table digest
    that names a --cache-dir file.  numpy 1.x loads it itself (its eager
    numpy.random imports secrets, hence hmac and hashlib), so the check
    is what importing repdual and running the CLI add past numpy."""
    from repdual.groups import builtin_group

    script = (
        "import sys\n"
        "import numpy\n"
        "before = '_hashlib' in sys.modules\n"
        "from repdual import cli\n"
        "argv = ['verify', '--group', 'builtin:Q8', '--code', 'diag:n=4', '--all']\n"
        "assert cli.main(argv + sys.argv[1:]) == 0\n"
        "print(before, '_hashlib' in sys.modules)\n"
    )
    for extra in ([], ["--cache-dir", str(tmp_path)]):
        r = subprocess.run([sys.executable, "-c", script, *extra], capture_output=True, text=True, env=cli_env())
        assert r.returncode == 0, r.stderr
        before, after = r.stdout.splitlines()[-1].split()
        assert after == (before if not extra else "True")
    (path,) = tmp_path.iterdir()
    assert path.name == f"chartable-{builtin_group('Q8').table_digest()}.json"


def test_cli_byte_identical_across_processes():
    argv = [
        sys.executable,
        "-m",
        "repdual.cli",
        "dual",
        "--group",
        "builtin:S3",
        "--code",
        "diag:n=2",
        "--format",
        "json",
    ]
    r1 = subprocess.run(argv, capture_output=True, text=True, env=cli_env())
    r2 = subprocess.run(argv, capture_output=True, text=True, env=cli_env())
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout


def test_cli_two_processes_share_one_cache_file(tmp_path):
    """Two chartable processes started at once on an empty --cache-dir both
    succeed with the same output and leave one whole cache file."""
    from repdual import chartable
    from repdual.groups import builtin_group

    argv = [sys.executable, "-m", "repdual.cli", "chartable", "--group", "builtin:S4", "--cache-dir", str(tmp_path)]
    procs = [
        subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env())
        for _ in range(2)
    ]
    (out1, err1), (out2, err2) = (p.communicate(timeout=120) for p in procs)
    assert [p.returncode for p in procs] == [0, 0], err1 + err2
    assert out1 == out2 and "chi" in out1
    (path,) = tmp_path.iterdir()
    assert path.name.startswith("chartable-") and path.suffix == ".json"
    G = builtin_group("S4")
    assert chartable._load_cached(G, path) == chartable._compute_character_table(G)


@pytest.mark.parametrize("labels", [[1, 2], ["a", "a"], "ab", {"a": 0, "b": 1}], ids=["ints", "repeated", "string", "object"])
def test_cli_table_spec_labels_must_be_distinct_strings(tmp_path, capsys, labels):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "table", "table": [[0, 1], [1, 0]], "labels": labels}))
    for command in ("classes", "chartable"):
        code, out, err = run(capsys, command, "--group", str(path))
        assert (code, out) == (2, "")
        assert err == f"spec error: {path}.labels: expected a list of distinct strings\n"


def test_cli_table_spec_labels_name_the_elements(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "table", "table": [[0, 1], [1, 0]], "labels": ["e", "a"]}))
    code, out, _ = run(capsys, "chartable", "--group", str(path))
    assert code == 0
    assert "  classes: e a\n" in out


@pytest.mark.parametrize("generators", [None, "ab", {"x": ["1"]}, 3], ids=["null", "string", "object", "int"])
def test_cli_code_spec_generators_must_be_a_list(tmp_path, capsys, generators):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": 1, "generators": generators}))
    code, out, err = run(capsys, "wenum", "--group", "builtin:Z3", "--code", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"spec error: {path}.generators: expected a list of generators")
    assert "Traceback" not in err


def test_cli_one_generator_code_over_a_large_cyclic_group(tmp_path):
    """The closure of one generating word over Z5000 reads two Cayley
    columns, not a Python copy of the 25M-entry table: the same bytes, and
    the child's peak RSS (ru_maxrss, KB on Linux) stays under 600 MB."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"n": 2, "generators": [["1", "2"]]}))
    argv = [sys.executable, "-m", "repdual.cli", "wenum", "--group", "builtin:Z5000", "--code", str(path)]
    with open(tmp_path / "err", "w+") as err:
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=cli_env())
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)  # Popen.wait would reap it with no usage
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        assert child.returncode == 0, err.read()
    assert hashlib.sha256(out).hexdigest() == "3eac825d58a23e2f80ecf04a7369e40bd1b7515cd46cb23a9d50b5501ea4cdb2"
    assert usage.ru_maxrss < 600 * 1024


def test_cli_table_spec_that_is_not_a_group_exits_2(tmp_path, capsys):
    # FiniteGroup trusts its table; a table spec is checked by group_from_table
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "table", "table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}))
    code, out, err = run(capsys, "classes", "--group", str(path))
    assert (code, out) == (2, "")
    assert "row 1 is not a permutation (not a Latin square)" in err


def test_cli_code_file_with_embedded_group(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(
        json.dumps(
            {
                "group": {"kind": "builtin", "name": "S3"},
                "n": 2,
                "generators": [["(0 1)", "(0 1 2)"]],
            }
        )
    )
    code, out, _ = run(capsys, "wenum", "--code", str(path))
    assert code == 0
    assert "1 + 3*z + 2*z^2" in out
