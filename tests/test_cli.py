import json

import pytest

from repdual.cli import main
from repdual.errors import SpecFileError
from repdual.specfiles import load_code_spec, load_group_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_cli_classes_builds_no_table(capsys, tmp_path, monkeypatch):
    import repdual.cli as cli

    monkeypatch.setattr(cli, "character_table", None)
    code, out, _ = run(capsys, "classes", "--group", "builtin:D4", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "5 conjugacy classes" in out
    assert list(tmp_path.iterdir()) == []


def test_cli_classes_json_lists_members_in_index_order(capsys):
    from repdual.groups import conjugacy_classes, symmetric_group

    code, out, _ = run(capsys, "classes", "--group", "builtin:S4", "--format", "json")
    assert code == 0
    G = symmetric_group(4)
    cd = conjugacy_classes(G)
    members = [c["members"] for c in json.loads(out)["classes"]]
    assert members == [[G.element_labels[g] for g in cd.members(c)] for c in range(cd.num_classes)]


def test_cli_chartable_refuses_a_large_class_algebra(capsys):
    # Z300 is the largest cyclic table under the default cap
    code, out, err = run(capsys, "chartable", "--group", "builtin:Z1000")
    assert code == 1
    assert out == ""
    message = "class multiplication array (k^3 entries) needs 1000000000 > cap 33554432"
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
    code, out, err = run(capsys, "classes", "--group", "builtin:S7", "--closure-cap", "100000")
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


def test_cli_deterministic_json(capsys):
    argv = ["dual", "--group", "builtin:Q8", "--code", "diag:n=3", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_cli_byte_identical_across_processes():
    import subprocess
    import sys

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
    r1 = subprocess.run(argv, capture_output=True, text=True)
    r2 = subprocess.run(argv, capture_output=True, text=True)
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout


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
