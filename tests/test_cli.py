from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topolab
from conftest import maybe_labeled
from topolab import checkers
from topolab.cli import _fn_dict, _fn_from, _space_from, main
from topolab.duality import t_of_tau, tau_of_t
from topolab.fntop import NAMED, FnTopology, named_function_topology
from topolab.hypertop import (
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    z_scott,
)
from topolab.mapspace import enumerate_continuous

S = {"points": 2, "opens": [0, 2, 3]}
PT = {"points": 1, "opens": [0, 1]}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_validate_echoes_canonical(tmp_path, capsys):
    path = write(tmp_path, "s.json", S)
    code, out, _ = run(capsys, "space", "validate", path)
    assert code == 0
    echo = json.loads(out)
    assert echo["opens"] == [0, 2, 3]
    assert echo["canonical"] == [0, 1, 3]


def test_space_validate_rejects_non_topology(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"points": 2, "opens": [0, 1]})
    code, _, err = run(capsys, "space", "validate", path)
    assert code == 2
    assert "NotATopology" in err


def test_dual_file_not_a_topology_fails_as_a_space_file_does(tmp_path, capsys):
    # O_Z(Y) of Sierpinski space into itself has three members, so a dual
    # family fails as the same family on 3 points does: one error line
    spath = write(tmp_path, "s.json", S)
    for opens in ([0, 1, 3], [0, 1, 2, 7]):
        tau = write(tmp_path, "tau.json", {"y": S, "z": S, "opens": opens})
        space = write(tmp_path, "bad.json", {"points": 3, "opens": opens})
        dual = run(capsys, "dual", "t-of-tau", "--dual", tau, "--y", spath, "--z", spath)
        assert dual == run(capsys, "space", "validate", space)
        assert (dual[0], dual[1], json.loads(dual[2])["error"]) == (2, "", "NotATopology")


def test_space_enum_counts_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "enum.json"
    code, out, _ = run(capsys, "space", "enum", "--points", "3", "--out", str(out_file))
    assert code == 0
    assert out == ""
    data = json.loads(out_file.read_text())
    assert data["count"] == 29


def test_maps_enum(tmp_path, capsys):
    path = write(tmp_path, "s.json", S)
    code, out, _ = run(capsys, "maps", "enum", "--y", path, "--z", path)
    assert code == 0
    assert json.loads(out)["tables"] == [[0, 0], [0, 1], [1, 1]]


def test_topo_build_named(tmp_path, capsys):
    path = write(tmp_path, "s.json", S)
    code, out, _ = run(capsys, "topo", "build", "--kind", "co", "--y", path, "--z", path)
    assert code == 0
    built = json.loads(out)
    assert built["provenance"] == "co"
    assert built["subbasis"] == [0, 4, 6, 7]


def test_topo_build_hyper_kinds(tmp_path, capsys):
    path = write(tmp_path, "s.json", S)
    code, out, _ = run(capsys, "topo", "build", "--kind", "scott", "--y", path)
    assert code == 0
    assert json.loads(out)["kind"] == "scott"
    code, _, err = run(capsys, "topo", "build", "--kind", "zscott", "--y", path)
    assert code == 2
    assert "needs --z" in err


def test_check_admissible_exit_codes(tmp_path, capsys):
    spath = write(tmp_path, "s.json", S)
    co = write(tmp_path, "co.json", {"y": S, "z": S, "subbasis": [0, 4, 6, 7]})
    code, out, _ = run(capsys, "check", "admissible", "--topology", co)
    assert code == 0
    assert json.loads(out)["status"] == "holds"
    ind = write(tmp_path, "ind.json", {"y": S, "z": S, "subbasis": []})
    code, out, _ = run(capsys, "check", "admissible", "--topology", ind)
    assert code == 1
    assert json.loads(out)["witnesses"] == [["open", 2, "product_preimage", 56]]
    del spath


def test_check_splitting_finds_discrete_witness(tmp_path, capsys):
    disc = write(tmp_path, "disc.json", {"y": S, "z": S, "subbasis": [1, 2, 4]})
    code, out, _ = run(capsys, "check", "splitting", "--topology", disc, "--max-x", "2")
    assert code == 1
    assert json.loads(out)["status"] == "fails"


@pytest.mark.parametrize("bound", ["0", "-1", "two"])
def test_check_splitting_refuses_a_bound_below_one(tmp_path, capsys, bound):
    # refused while parsing, before the file is read: exit 2, stdout empty
    co = write(tmp_path, "co.json", {"y": S, "z": S, "subbasis": [0, 4, 6, 7]})
    with pytest.raises(SystemExit) as exc:
        main(["check", "splitting", "--topology", co, "--max-x", bound])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-x" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "theorems", "--max-y", "0"],
        ["check", "theorems", "--max-z", "-1"],
        ["search", "question", "--id", "q1", "--max-y", "0"],
        ["search", "question", "--id", "q1", "--max-z", "two"],
    ],
)
def test_suite_bounds_below_one_exit_two(capsys, argv):
    # refused while parsing, as --max-x is: no vacuous rows on stdout
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err


def test_check_splitting_exact(tmp_path, capsys):
    co = write(tmp_path, "co.json", {"y": S, "z": S, "subbasis": [0, 4, 6, 7]})
    code, out, _ = run(capsys, "check", "splitting", "--topology", co, "--exact")
    assert code == 0
    assert json.loads(out)["status"] == "holds"
    disc = write(tmp_path, "disc.json", {"y": S, "z": S, "subbasis": [1, 2, 4]})
    code, out, _ = run(capsys, "check", "splitting", "--topology", disc, "--exact")
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fails"
    assert rep["witnesses"] == [["maps", [0, 1], "tables", [[0, 0], [0, 1]]]]
    # one route per call
    with pytest.raises(SystemExit) as exc:
        main(["check", "splitting", "--topology", co, "--exact", "--max-x", "2"])
    assert exc.value.code == 2


def test_check_splitting_instance_budget_exits_two(tmp_path, capsys):
    # discrete(4) -> indiscrete(4): 256 maps, about 151M instances at the
    # default --max-x 3
    y = {"points": 4, "opens": list(range(16))}
    z = {"points": 4, "opens": [0, 15]}
    wide = write(tmp_path, "wide.json", {"y": y, "z": z, "subbasis": []})
    code, out, err = run(capsys, "check", "splitting", "--topology", wide)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"
    code, out, _ = run(capsys, "check", "splitting", "--topology", wide, "--max-x", "2")
    assert code == 0
    assert json.loads(out)["instance_count"] == 196_864


def test_check_compose(tmp_path, capsys):
    spath = write(tmp_path, "s.json", S)
    ppath = write(tmp_path, "pt.json", PT)
    code, out, _ = run(
        capsys, "check", "compose",
        "--x", ppath, "--y", spath, "--z", spath, "--kinds", "coZ,coZ,coZ",
    )
    assert code == 0
    assert json.loads(out)["status"] == "holds"


def test_check_compose_defect_is_no_bad_input(tmp_path, capsys, monkeypatch):
    # a named factor off the pointwise topology is a bug, not bad input: it
    # propagates as AssertionError, with no report and no exit 2
    def coarse(name, y, z):
        return FnTopology.of(named_function_topology(name, y, z).maps, ())

    monkeypatch.setattr(checkers, "named_function_topology", coarse)
    spath = write(tmp_path, "s.json", S)
    with pytest.raises(AssertionError, match="compose:co,co,co .*C\\(X,Y\\) contains"):
        main(["check", "compose", "--x", spath, "--y", spath, "--z", spath, "--kinds", "co,co,co"])
    assert capsys.readouterr() == ("", "")


def test_check_theorems_skips_expected_divergences(tmp_path, capsys):
    code, out, _ = run(capsys, "check", "theorems", "--max-y", "2", "--max-z", "2")
    # the three divergence rows fail on purpose and must not flip the exit
    assert code == 0
    rows = json.loads(out)
    assert sum(1 for r in rows if not r["expected"]) == 3
    assert all(r["expected"] or r["status"] == "fails" for r in rows)


def test_dual_round_trip(tmp_path, capsys):
    spath = write(tmp_path, "s.json", S)
    co = write(tmp_path, "co.json", {"y": S, "z": S, "subbasis": [0, 4, 6, 7]})
    tau_file = tmp_path / "tau.json"
    code, _, _ = run(
        capsys, "dual", "tau-of-t", "--topology", co, "--out", str(tau_file)
    )
    assert code == 0
    tau = json.loads(tau_file.read_text())
    assert tau["opens"] == [0, 1, 4, 5, 6, 7]
    code, out, _ = run(
        capsys, "dual", "t-of-tau", "--dual", str(tau_file), "--y", spath, "--z", spath
    )
    assert code == 0
    assert 1 in json.loads(out)["subbasis"]  # {const0} shows up after the trip


def test_dual_t_of_tau_consistency_guard(tmp_path, capsys):
    spath = write(tmp_path, "s.json", S)
    other = write(tmp_path, "other.json", {"points": 2, "opens": [0, 1, 3]})
    tau = write(tmp_path, "tau.json", {"y": S, "z": S, "opens": [0, 7]})
    code, _, err = run(
        capsys, "dual", "t-of-tau", "--dual", tau, "--y", other, "--z", spath
    )
    assert code == 2
    assert "disagrees" in err


def test_search_question_exits(tmp_path, capsys):
    code, out, _ = run(
        capsys, "search", "question", "--id", "q3.1", "--max-y", "2", "--max-z", "2"
    )
    assert code == 0
    assert json.loads(out)["status"] == "completed"
    code, _, err = run(capsys, "search", "question", "--id", "q99")
    assert code == 2
    assert "UnknownQuestion" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"points": 2}),
        json.dumps({"points": 2, "opens": [0, 2.0, 3]}),
        json.dumps({"points": 2, "opens": [0, "2", 3]}),
        json.dumps({"points": -1, "opens": [0]}),
        json.dumps({"points": 2, "opens": [0, 2, 3], "labels": "ab"}),
        json.dumps([2, [0, 2, 3]]),
        "{not json",
        # nested lists; 100,000 levels pass the parser's recursion limit on every supported Python
        pytest.param("[" * 2_000 + "]" * 2_000, id="nested-2000"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
    ],
)
def test_malformed_space_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "space", "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInput"


def test_unreadable_input_and_unwritable_output_exit_two(tmp_path, capsys):
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b'{"points": \xff}')
    for path, error in (
        (undecodable, "MalformedInput"),
        (tmp_path / "absent.json", "FileNotFoundError"),
        (tmp_path, "IsADirectoryError"),
    ):
        code, out, err = run(capsys, "space", "validate", str(path))
        assert (code, out, json.loads(err)["error"]) == (2, "", error)
    out_file = tmp_path / "absent" / "out.json"
    code, out, err = run(capsys, "space", "enum", "--points", "1", "--out", str(out_file))
    assert (code, out, json.loads(err)["error"]) == (2, "", "FileNotFoundError")


def test_malformed_topology_and_dual_files_exit_two(tmp_path, capsys):
    spath = write(tmp_path, "s.json", S)
    top = write(tmp_path, "t.json", {"y": S, "z": S, "subbasis": [0, 4.5]})
    code, _, err = run(capsys, "check", "admissible", "--topology", top)
    assert (code, json.loads(err)["error"]) == (2, "MalformedInput")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "check", "admissible", "--topology", str(nested))
    assert (code, json.loads(err)["error"]) == (2, "MalformedInput")
    tau = write(tmp_path, "tau.json", {"y": S, "z": S})
    code, _, err = run(
        capsys, "dual", "t-of-tau", "--dual", tau, "--y", spath, "--z", spath
    )
    assert (code, json.loads(err)["error"]) == (2, "MalformedInput")


def test_bad_arguments_exit_two(tmp_path, capsys):
    spath = write(tmp_path, "s.json", S)
    code, _, err = run(capsys, "space", "enum", "--points", "-1")
    assert code == 2 and "nonnegative" in err
    code, _, err = run(
        capsys, "check", "compose",
        "--x", spath, "--y", spath, "--z", spath, "--kinds", "coZ,coZ",
    )
    assert code == 2 and "--kinds" in err


def test_closed_stdout_exits_141_without_a_message():
    # the enumeration of 6,942 spaces outgrows a pipe buffer, so the write
    # meets the closed read end
    src = str(Path(topolab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "topolab.cli", "space", "enum", "--points", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call starts a fresh interpreter, and the two cost about 8 ms
    # of its start-up; diffing sys.modules ignores what site hooks load
    src = str(Path(topolab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; before = set(sys.modules); import topolab.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(proc.stdout.split())
    assert "topolab.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_cli_import_loads_neither_typing_nor_pathlib_without_site_hooks():
    # with -S no site hook imports either module first, as a plain CI
    # interpreter may not; annotations stay strings, so neither is needed
    src = str(Path(topolab.__file__).parents[1])
    code = (
        "import sys; before = set(sys.modules); import topolab.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(proc.stdout.split())
    assert "topolab.cli" in added
    assert not {"typing", "pathlib"} & added


def test_space_validate_refuses_a_space_past_the_canonical_cap(tmp_path, capsys, monkeypatch):
    # 10! * 1024 relabeled opens: refused before any permutation is tried
    import topolab.finspace

    def no_scan(*args):
        raise AssertionError("permutation scan started")

    monkeypatch.setattr(topolab.finspace, "permutations", no_scan)
    path = write(tmp_path, "d10.json", {"points": 10, "opens": list(range(1 << 10))})
    code, out, err = run(capsys, "space", "validate", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_internal_error_is_not_reported_as_bad_input(tmp_path, capsys, monkeypatch):
    import topolab.cli

    def broken(x):
        raise ValueError("internal bug")

    monkeypatch.setattr(topolab.cli, "canonical_form", broken)
    path = write(tmp_path, "s.json", S)
    with pytest.raises(ValueError, match="internal bug"):
        main(["space", "validate", path])


def write_space(path, x):
    obj = {"points": x.size, "opens": list(x.opens.members)}
    if x.labels is not None:
        obj["labels"] = list(x.labels)
    path.write_text(json.dumps(obj))
    return str(path)


@settings(max_examples=30, deadline=None)
@given(x=maybe_labeled(3))
def test_space_validate_round_trip(tmp_path_factory, x):
    d = tmp_path_factory.mktemp("space")
    out = d / "out.json"
    assert main(["space", "validate", write_space(d / "x.json", x), "--out", str(out)]) == 0
    back = _space_from(json.loads(out.read_text()))
    assert back.opens.members == x.opens.members
    assert back.labels == x.labels


@settings(max_examples=30, deadline=None)
@given(y=maybe_labeled(3), z=maybe_labeled(2), kind=st.sampled_from(tuple(NAMED)))
def test_topo_build_round_trip(tmp_path_factory, y, z, kind):
    d = tmp_path_factory.mktemp("topo")
    out = d / "out.json"
    argv = ["topo", "build", "--kind", kind, "--out", str(out)]
    argv += ["--y", write_space(d / "y.json", y), "--z", write_space(d / "z.json", z)]
    assert main(argv) == 0
    t = named_function_topology(kind, y, z)
    back = _fn_from(json.loads(out.read_text()))
    assert back.maps.tables == t.maps.tables
    assert back.subbasis == t.subbasis
    assert back.provenance == t.provenance == kind
    assert (back.maps.domain.labels, back.maps.codomain.labels) == (y.labels, z.labels)


# each hyperspace kind of `topo build`, built in process
HYPER_BUILDERS = {
    "scott": lambda y, z: scott(y),
    "sscott": lambda y, z: strong_scott(y),
    "ksubbasis": lambda y, z: compact_subbasis_topology(y),
    "zscott": z_scott,
    "zsscott": strong_z_scott,
}


def fn_topology(y, z, kind):
    """A named topology on C(Y, Z), or its indiscrete or discrete one."""
    if kind in NAMED:
        return named_function_topology(kind, y, z)
    maps = enumerate_continuous(y, z)
    singletons = [1 << i for i in range(len(maps))]
    return FnTopology.of(maps, singletons if kind == "discrete" else [])


def write_topology(path, t):
    path.write_text(json.dumps(_fn_dict(t)))
    return str(path)


TOPOLOGY_KINDS = st.sampled_from((*NAMED, "indiscrete", "discrete"))


@settings(max_examples=30, deadline=None)
@given(y=maybe_labeled(3), z=maybe_labeled(2), kind=st.sampled_from(tuple(HYPER_BUILDERS)))
def test_topo_build_hyperspace_round_trip(tmp_path_factory, y, z, kind):
    d = tmp_path_factory.mktemp("hyper")
    out = d / "out.json"
    argv = ["topo", "build", "--kind", kind, "--out", str(out)]
    argv += ["--y", write_space(d / "y.json", y), "--z", write_space(d / "z.json", z)]
    assert main(argv) == 0
    h = HYPER_BUILDERS[kind](y, z)
    got = json.loads(out.read_text())
    assert got["kind"] == h.kind and _space_from(got["base"]) == y
    assert (tuple(got["ground"]), tuple(got["opens"])) == (h.ground, h.opens.members)


@settings(max_examples=30, deadline=None)
@given(y=maybe_labeled(3), z=maybe_labeled(2), kind=TOPOLOGY_KINDS)
def test_dual_commands_round_trip(tmp_path_factory, y, z, kind):
    d = tmp_path_factory.mktemp("dual")
    t = fn_topology(y, z, kind)
    tau_file, back_file = d / "tau.json", d / "back.json"
    argv = ["dual", "tau-of-t", "--topology", write_topology(d / "t.json", t)]
    assert main([*argv, "--out", str(tau_file)]) == 0
    tau = tau_of_t(t)
    got = json.loads(tau_file.read_text())
    assert (tuple(got["ground"]), tuple(got["opens"])) == (tau.ground, tau.opens.members)
    argv = ["dual", "t-of-tau", "--dual", str(tau_file), "--out", str(back_file)]
    argv += ["--y", write_space(d / "y.json", y), "--z", write_space(d / "z.json", z)]
    assert main(argv) == 0
    back = _fn_from(json.loads(back_file.read_text()))
    want = t_of_tau(tau, t.maps)
    assert back == want and back.subbasis == want.subbasis


@settings(max_examples=30, deadline=None)
@given(y=maybe_labeled(3), z=maybe_labeled(2), kind=TOPOLOGY_KINDS)
def test_check_admissible_round_trip(tmp_path_factory, y, z, kind):
    d = tmp_path_factory.mktemp("admissible")
    t = fn_topology(y, z, kind)
    out = d / "out.json"
    argv = ["check", "admissible", "--topology", write_topology(d / "t.json", t)]
    code = main([*argv, "--out", str(out)])
    rep = checkers.is_admissible(t)
    assert code == (1 if rep.status == "fails" and rep.expected else 0)
    assert json.loads(out.read_text()) == json.loads(json.dumps(rep.to_dict()))
