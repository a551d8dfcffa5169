import json
import os
import subprocess
import sys

import pytest

from homfill.cli import main

GROUPS = os.path.join(os.path.dirname(__file__), "..", "groups")


def grp(name):
    return os.path.join(GROUPS, name)


def run_cli(args):
    return main(args)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_fill_z2(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli([
        "fill", "--pres", grp("z2.grp"), "--word", "a a b b A A B B",
        "--ball", "5", "--out", str(out),
    ])
    assert code == 0
    doc = read(out)
    assert doc["area"] == 4
    assert doc["status"] == "optimal"
    assert doc["tool"]["name"] == "homfill"
    assert os.path.exists(str(out) + ".meta.json")


def test_fill_brute_matches(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli([
        "fill", "--pres", grp("z2.grp"), "--word", "a b a' b'",
        "--ball", "4", "--solver", "brute", "--out", str(out),
    ]) == 0
    assert read(out)["area"] == 1


def test_fill_non_closing_word(tmp_path, capsys):
    code = run_cli([
        "fill", "--pres", grp("f2.grp"), "--word", "a b A B",
        "--ball", "4", "--out", str(tmp_path / "r.json"), "--json-errors",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "close" in err["message"]


def test_fa_table(tmp_path):
    out = tmp_path / "fa.json"
    assert run_cli([
        "fa", "--pres", grp("z2.grp"), "--max-n", "8", "--ball", "5", "--out", str(out),
    ]) == 0
    doc = read(out)
    values = {row["n"]: row["fa"] for row in doc["values"]}
    assert values[4] == 1 and values[8] == 4
    table = (tmp_path / "fa.txt").read_text().strip().splitlines()
    assert table[4].split("\t") == ["4", "1"]
    assert "truncation_note" in doc


def test_surface_and_verify(tmp_path):
    out = tmp_path / "d.json"
    dot = tmp_path / "d.dot"
    assert run_cli([
        "surface", "--pres", grp("z2.grp"), "--word", "a a b b a' a' b' b'",
        "--ball", "5", "--out", str(out), "--dot", str(dot),
    ]) == 0
    doc = read(out)
    assert doc["metrics"]["area"] == 4 and doc["metrics"]["radius"] == 1
    assert dot.read_text().startswith("graph surface")
    assert run_cli(["verify", "--diagram", str(out), "--pres", grp("z2.grp"), "--ball", "5"]) == 0


def test_verify_flags_corruption(tmp_path, capsys):
    out = tmp_path / "d.json"
    run_cli([
        "surface", "--pres", grp("z2.grp"), "--word", "a a b b a' a' b' b'",
        "--ball", "5", "--out", str(out),
    ])
    doc = read(out)
    doc["gluing"].append(doc["gluing"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run_cli(["verify", "--diagram", str(bad)])
    assert code == 1
    assert "matched twice" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"faces": [{"slots": [[0, 1], [0]]}]}', "ParseError"),
        ('{"faces": [{"slots": [[0, 1], [0, -1]]}], "gluing": [[[0, 0], [0, 5], false]]}', "DomainError"),
        ("not json", "ParseError"),
    ],
    ids=["one-element-slot", "slot-outside-face", "not-json"],
)
def test_verify_bad_diagram_exits_cleanly(tmp_path, capsys, text, error):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli(["verify", "--diagram", str(bad), "--json-errors"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize(
    "args",
    [
        ["fill", "--pres", "{missing}", "--word", "a b a' b'", "--ball", "2"],
        ["verify", "--diagram", "{missing}"],
        ["degree", "--constants", "{missing}"],
    ],
    ids=["pres", "diagram", "constants"],
)
def test_missing_input_file_exits_cleanly(tmp_path, capsys, args):
    missing = str(tmp_path / "nope")
    argv = [a.replace("{missing}", missing) for a in args]
    assert run_cli(argv + ["--out", str(tmp_path / "o.json"), "--json-errors"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert missing in err["message"]


@pytest.mark.parametrize(
    "args",
    [
        ["fill", "--pres", grp("z2.grp"), "--word", "a b a' b'", "--ball", "2", "--out", "{missing}/o.json"],
        [
            "surface", "--pres", grp("z2.grp"), "--word", "a b a' b'", "--ball", "2",
            "--out", "{tmp}/d.json", "--dot", "{missing}/d.dot",
        ],
        ["fill", "--pres", grp("z2.grp"), "--word", "a b a' b'", "--ball", "2", "--out", "{adir}"],
    ],
    ids=["out", "dot", "out-is-dir"],
)
def test_unwritable_output_exits_cleanly(tmp_path, capsys, args):
    missing = str(tmp_path / "nodir")
    adir = tmp_path / "adir"
    adir.mkdir()
    argv = [
        a.replace("{missing}", missing).replace("{adir}", str(adir)).replace("{tmp}", str(tmp_path))
        for a in args
    ]
    assert run_cli(argv + ["--json-errors"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert (str(adir) if "{adir}" in args else missing) in err["message"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_pres_not_utf8_exits_cleanly(tmp_path, capsys):
    pres = tmp_path / "bad.grp"
    pres.write_bytes(b"\xff\xfe generators: a")
    code = run_cli([
        "fill", "--pres", str(pres), "--word", "a", "--ball", "1",
        "--out", str(tmp_path / "o.json"), "--json-errors",
    ])
    assert code == 1
    assert "UTF-8" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize(
    "data",
    [b"not json", b"\xff\xfe", b'{"C": 1}', b'{"M": "2"}', b'{"M": 2.5}', b"[2]"],
    ids=["not-json", "not-utf8", "no-M", "string-M", "float-M", "not-object"],
)
def test_degree_bad_constants_exits_cleanly(tmp_path, capsys, data):
    consts = tmp_path / "c.json"
    consts.write_bytes(data)
    code = run_cli([
        "degree", "--constants", str(consts), "--out", str(tmp_path / "d.json"), "--json-errors",
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_constants_heis(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli([
        "constants", "--pres", grp("heis_ext.grp"), "--ball", "6", "--out", str(out),
    ]) == 0
    doc = read(out)
    assert doc["M"] == 1 and doc["C"] == 1 and doc["C_double_prime"] == 0
    assert doc["rho"] == 5


def test_pushdown_z3(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli([
        "pushdown", "--pres", grp("z3_ext.grp"), "--word", "a b a' b'",
        "--route", "t1", "--ball", "6", "--k-ball", "6", "--trace", str(out),
    ]) == 0
    doc = read(out)
    assert doc["initial_area"] == 5
    assert doc["final_area"] == 1
    assert len(doc["steps"]) == 1
    assert doc["steps"][0]["direction"] == "backward"
    assert doc["surviving_coset"] == "e"
    assert doc["all_steps_ok"] and doc["final_bound_ok"]


def test_arpair_cli(tmp_path):
    out = tmp_path / "ar.json"
    assert run_cli([
        "arpair", "--pres", grp("z2.grp"), "--max-n", "6", "--ball", "4", "--out", str(out),
    ]) == 0
    doc = read(out)
    assert doc["f_table"][4] == 1
    assert (tmp_path / "ar.area.txt").exists()
    assert (tmp_path / "ar.radius.txt").exists()


def test_degree_cli(tmp_path):
    out = tmp_path / "deg.json"
    assert run_cli(["degree", "--M", "2", "--max-n", "512", "--out", str(out)]) == 0
    assert read(out)["degree"] == 3


def test_degree_from_constants(tmp_path):
    consts = tmp_path / "c.json"
    run_cli(["constants", "--pres", grp("z3_ext.grp"), "--ball", "5", "--out", str(consts)])
    out = tmp_path / "deg.json"
    assert run_cli([
        "degree", "--constants", str(consts), "--max-n", "256", "--out", str(out),
    ]) == 0
    doc = read(out)
    assert doc["M"] == 1
    assert doc["degree"] <= 2


def test_determinism_same_config(tmp_path, monkeypatch):
    # identical configs (same relative out path) from two directories
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        monkeypatch.chdir(d)
        assert run_cli([
            "fa", "--pres", grp("z2.grp"), "--max-n", "6", "--ball", "4",
            "--seed", "7", "--out", "fa.json",
        ]) == 0
    assert (d1 / "fa.json").read_bytes() == (d2 / "fa.json").read_bytes()


def test_parse_error_names_location(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("backend: free\ngenerators: a\nnonsense: x\n")
    code = run_cli(["fill", "--pres", str(bad), "--word", "a", "--ball", "2",
                    "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "homfill.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "homfill" in result.stdout


def test_invariant_errors_exit_2(monkeypatch, capsys):
    import homfill.cli as cli_mod
    from homfill.errors import InvariantError

    def boom(args):
        raise InvariantError("synthetic bug marker")

    monkeypatch.setattr(cli_mod, "cmd_degree", boom)
    parser = cli_mod.build_parser()
    args = parser.parse_args(["degree", "--M", "1"])
    args.func = boom
    monkeypatch.setattr(cli_mod, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
    assert cli_mod.main(["degree", "--M", "1"]) == 2
    assert "synthetic bug marker" in capsys.readouterr().err


def test_unexpected_errors_exit_2_with_structured_error(monkeypatch, capsys):
    import homfill.cli as cli_mod

    def boom(args):
        raise ValueError("synthetic failure marker")

    parser = cli_mod.build_parser()
    args = parser.parse_args(["degree", "--M", "1", "--json-errors"])
    args.func = boom
    monkeypatch.setattr(cli_mod, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
    assert cli_mod.main(["degree", "--M", "1", "--json-errors"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "ValueError", "message": "synthetic failure marker"}


def test_budget_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMFILL_BUDGET_VERTICES", "3")
    code = run_cli([
        "fill", "--pres", grp("z2.grp"), "--word", "a b a' b'", "--ball", "4",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1


def test_budget_env_not_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOMFILL_BUDGET_VERTICES", "abc")
    code = run_cli([
        "fill", "--pres", grp("z2.grp"), "--word", "a b a' b'", "--ball", "4",
        "--out", str(tmp_path / "r.json"), "--json-errors",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert "HOMFILL_BUDGET_VERTICES" in err["message"]
