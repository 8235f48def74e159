from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_spaces_up_to
from topolab.cli import _fn_from, _space_from, main
from topolab.fntop import NAMED, named_function_topology

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
    ],
)
def test_malformed_space_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "space", "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInput"


def test_malformed_topology_and_dual_files_exit_two(tmp_path, capsys):
    spath = write(tmp_path, "s.json", S)
    top = write(tmp_path, "t.json", {"y": S, "z": S, "subbasis": [0, 4.5]})
    code, _, err = run(capsys, "check", "admissible", "--topology", top)
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


def test_internal_error_is_not_reported_as_bad_input(tmp_path, capsys, monkeypatch):
    import topolab.cli

    def broken(x):
        raise ValueError("internal bug")

    monkeypatch.setattr(topolab.cli, "canonical_form", broken)
    path = write(tmp_path, "s.json", S)
    with pytest.raises(ValueError, match="internal bug"):
        main(["space", "validate", path])


@st.composite
def maybe_labeled(draw, max_points):
    x = draw(st.sampled_from(all_spaces_up_to(max_points)))
    if draw(st.booleans()):
        labels = draw(st.lists(st.text(max_size=3), min_size=x.size, max_size=x.size))
        x = replace(x, labels=tuple(labels))
    return x


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
