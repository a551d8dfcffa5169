import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfill.cli import main, read_constants_M
from homfill.errors import HomfillError

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


def test_verify_refuses_a_diagram_without_faces(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"faces": []}')
    assert run_cli(["verify", "--diagram", str(empty), "--pres", grp("z2.grp"), "--ball", "5"]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "violations": ["diagram has no faces"]}


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"faces": [{"slots": [[0, 1], [0]]}]}', "ParseError"),
        ('{"faces": [{"slots": [[0, 1], [0, -1]]}], "gluing": [[[0, 0], [0, 5], false]]}', "DomainError"),
        ("not json", "ParseError"),
        ('{"faces": [{"slots": [[0, 1], [0, -1]]}], "gluing": [[[0, 0], [0, 1], "false"]]}', "ParseError"),
        ('{"faces": [{"slots": [[0, 1]]}], "gluing": 5}', "ParseError"),
        ('{"faces": [{"slots": [[0, 1]]}], "gluing": null}', "ParseError"),
    ]
    + [
        (f'{{"faces": [{{"slots": [[0, 1]], "{key}": {value}}}], "gluing": []}}', "ParseError")
        for key in ("provenance", "corner_images")
        for value in ("0", "false", '""', "{}")
    ],
    ids=[
        "one-element-slot", "slot-outside-face", "not-json", "flag-not-boolean", "gluing-number", "gluing-null",
        *(f"{key}-{kind}" for key in ("provenance", "corners") for kind in ("zero", "false", "empty-string", "object")),
    ],
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


@pytest.mark.parametrize(
    "text, relator",
    [
        ("backend: free_abelian\ngenerators: a b\nrelator: a a\n", "a a"),
        ("backend: free\ngenerators: a b\nword b: a a\nrelator: a b'\n", "a b'"),
    ],
    ids=["free_abelian", "free"],
)
def test_nontrivial_relator_exits_cleanly(tmp_path, capsys, text, relator):
    # such a relator's loop does not close in the Cayley graph
    pres = tmp_path / "bad.grp"
    pres.write_text(text)
    code = run_cli([
        "fa", "--pres", str(pres), "--max-n", "4", "--ball", "3",
        "--out", str(tmp_path / "fa.json"), "--json-errors",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert repr(relator) in err["message"]


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_a_large_vector_relator_is_refused_without_spelling_its_normal_form(tmp_path):
    # the relator check reads the exponent vector: the normal form of c
    # would spell out 10^9 letters, so the CLI runs in a child process
    # capped at 1 GiB of address space, where spelling it fails at once
    # with MemoryError instead of taking the machine's memory
    pres = tmp_path / "big.grp"
    pres.write_text("backend: free_abelian\ngenerators: a c\nvector c: 1000000000\nrelator: c\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "homfill.cli", "fa", "--pres", str(pres), "--max-n", "4", "--ball", "3",
         "--out", str(tmp_path / "fa.json"), "--json-errors"],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=60,
    )
    assert time.perf_counter() - started < 30
    assert result.returncode == 1, result.stderr
    err = json.loads(result.stderr)
    assert err["error"] == "ParseError"
    assert "'c'" in err["message"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("backend: free\ngenerators: a b\nword c: a b\n", "word image for unknown generator 'c'"),
        ("backend: free_abelian\ngenerators: a b\nvector c: 1 1\n", "vector image for unknown generator 'c'"),
        ("backend: free_abelian\ngenerators: a b c\nword c: a b\n", "word line for 'c' needs backend free"),
        ("backend: free\ngenerators: a b c\nvector c: 1 1\n", "vector line for 'c' needs backend free_abelian"),
        (
            "backend: extension\nk-backend: free_abelian\ngenerators: a b\nword b: a\n"
            "lift t1: a -> a ; b -> b\nlift t1 inverse: a -> a ; b -> b\n",
            "word line for 'b' needs backend free",
        ),
    ],
    ids=["word-unknown", "vector-unknown", "word-in-free_abelian", "vector-in-free", "word-in-k-backend"],
)
def test_image_line_the_backend_cannot_use_exits_cleanly(tmp_path, capsys, text, message):
    # each line used to be dropped or to add a basis generator
    pres = tmp_path / "bad.grp"
    pres.write_text(text)
    code = run_cli([
        "fa", "--pres", str(pres), "--max-n", "4", "--ball", "2",
        "--out", str(tmp_path / "fa.json"), "--json-errors",
    ])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert message in err["message"]


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
    [b"not json", b"\xff\xfe", b'{"C": 1}', b'{"M": "2"}', b'{"M": 2.5}', b"[2]", b"[" * 100_000],
    ids=["not-json", "not-utf8", "no-M", "string-M", "float-M", "not-object", "deep-nesting"],
)
def test_degree_bad_constants_exits_cleanly(tmp_path, capsys, data):
    consts = tmp_path / "c.json"
    consts.write_bytes(data)
    code = run_cli([
        "degree", "--constants", str(consts), "--out", str(tmp_path / "d.json"), "--json-errors",
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "flag, value",
    [("--B", "abc"), ("--C", "nan"), ("--B", "1/0")],
    ids=["not-a-number", "nan", "zero-denominator"],
)
def test_degree_bad_constant_exits_cleanly(tmp_path, capsys, flag, value):
    out = tmp_path / "d.json"
    assert run_cli(["degree", flag, value, "--out", str(out), "--json-errors"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert f"argument {flag}: not a fraction: {value!r}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_degree_empty_range_exits_cleanly(tmp_path, capsys, max_n):
    """An empty sampled range is refused as such, not reported as a fit
    that no degree passes."""
    out = tmp_path / "d.json"
    assert run_cli(["degree", "--max-n", max_n, "--out", str(out), "--json-errors"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "DomainError", "message": "n_max must be >= 1"}
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["fa", "arpair"])
def test_budget_vertices_caps_the_ball(tmp_path, capsys, command):
    code = run_cli([
        command, "--pres", grp("z2.grp"), "--ball", "2", "--max-n", "3",
        "--budget-vertices", "1", "--out", str(tmp_path / "o.json"), "--json-errors",
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceError"


@pytest.mark.parametrize(
    "args, message",
    [
        (["constants", "--pres", grp("z3_ext.grp"), "--ball", "2", "--k-ball", "0"], "radius must be >= 1"),
        (["arpair", "--pres", grp("z2.grp"), "--ball", "2", "--max-n", "-1"], "n_max must be >= 1"),
        (["arpair", "--pres", grp("z2.grp"), "--ball", "2", "--max-n", "0"], "n_max must be >= 1"),
    ],
    ids=["k-ball-0", "arpair-max-n-negative", "arpair-max-n-0"],
)
def test_bad_sizes_exit_cleanly(tmp_path, capsys, args, message):
    assert run_cli(args + ["--out", str(tmp_path / "o.json"), "--json-errors"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize(
    "args, words",
    [
        (["fa", "--pres", grp("z2.grp"), "--max-n", "4"], ("homfill fa", "required", "--ball")),
        (["arpair", "--pres", grp("z2.grp"), "--max-n", "4", "--ball", "2", "--policy", "bogus"], ("--policy", "bogus")),
        (
            ["arpair", "--pres", grp("z2.grp"), "--max-n", "4", "--ball", "2", "--policy", "search_budgeted"],
            ("--policy", "search_budgeted"),
        ),
    ],
    ids=["missing-ball", "unknown-policy", "deleted-policy"],
)
def test_usage_errors_exit_1_with_a_structured_error(tmp_path, capsys, args, words):
    # exit 2 is kept for broken invariants; a usage error is bad input
    out = tmp_path / "o.json"
    assert run_cli(args + ["--out", str(out), "--json-errors"]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "ParseError"
    assert all(word in err["message"] for word in words)
    assert "usage:" not in captured.out + captured.err
    assert not out.exists()
    assert run_cli(args + ["--out", str(out), "--json"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("homfill: ParseError: ")


@pytest.mark.parametrize("args", [["--help"], ["fa", "--help"]], ids=["help", "fa-help"])
def test_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 0
    assert "homfill" in capsys.readouterr().out


BALL_FLAGS = {"--pres": None, "--ball": None, "--budget-vertices": None}
SHARED_FLAGS = {"--seed": 0, "--json-errors": False, "--verbose": False}
SUBCOMMAND_FLAGS = {
    "fill": {**BALL_FLAGS, "--word": None, "--solver": "ilp", "--out": "result.json"},
    "fa": {**BALL_FLAGS, "--max-n": None, "--scope": "loops_only", "--out": "fa.json"},
    "surface": {**BALL_FLAGS, "--word": None, "--solver": "ilp", "--out": "diagram.json", "--dot": None},
    "constants": {**BALL_FLAGS, "--k-ball": None, "--out": "constants.json"},
    "pushdown": {
        **BALL_FLAGS,
        "--word": None,
        "--route": "",
        "--k-ball": None,
        "--f-table": "default",
        "--trace": "trace.json",
    },
    "arpair": {**BALL_FLAGS, "--max-n": None, "--policy": "min_area_then_measure_radius", "--out": "arpair.json"},
    "degree": {"--constants": None, "--M": 1, "--B": "1", "--C": "1", "--max-n": 1024, "--out": "degree.json"},
    "verify": {"--diagram": None, "--pres": None, "--ball": 3, "--budget-vertices": None, "--out": None},
}


def test_subcommand_flags():
    # every subcommand's option strings and their defaults, which the config
    # echo of each artifact records
    from homfill.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    assert sorted(sub.choices) == sorted(SUBCOMMAND_FLAGS)
    for name, p in sub.choices.items():
        flags = {s: a.default for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        assert flags == {**SUBCOMMAND_FLAGS[name], **SHARED_FLAGS}, name


# fuzzed constants files: only HomfillError may escape ``homfill degree``'s reader

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(("M", "C", "m", "")), inner, max_size=3),
    max_leaves=12,
)
constants_texts = (
    json_values.map(json.dumps)
    | st.fixed_dictionaries({"M": json_values}).map(json.dumps)
    | st.text(alphabet=st.sampled_from('{}[]":,M0123456789-.eE ntrufalsNI'), max_size=24)
    # past Python's recursion limit and its digit limit for int()
    | st.integers(900, 3000).map(lambda depth: "[" * depth + "]" * depth)
    | st.integers(4000, 6000).map(lambda digits: '{"M": ' + "7" * digits + "}")
)


@settings(max_examples=300, deadline=None)
@given(text=constants_texts)
def test_constants_files_raise_only_homfill_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_constants.json"
    path.write_text(text, encoding="utf-8")
    try:
        M = read_constants_M(str(path))
    except HomfillError:
        return
    assert type(M) is int and M == json.loads(text)["M"]
