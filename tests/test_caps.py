from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import topolab
from topolab import caps
from topolab.caps import CAPS, clear_caches
from topolab.checkers import theorem_suite
from topolab.errors import BudgetExceeded, GroundTooLarge
from topolab.explorer import QUESTION_IDS, question_search
from topolab.finspace import chain, class_index, discrete, enumerate_topologies, make_space, sierpinski
from topolab.fntop import named_function_topology
from topolab.hypertop import scott, z_scott
from topolab.mapspace import continuous_slice_count, enumerate_continuous

SRC = Path(topolab.__file__).parent
TESTS = Path(__file__).parent


def _fresh_five_point_y():
    # a 5-point space no other row builds: a point beside a 4-chain
    return make_space(5, [a | b << 4 for a in chain(4).opens for b in (0, 1)])


def _chain3_pointwise():
    maps = enumerate_continuous(chain(3), chain(3))
    assert len(maps) == 10
    return maps.pointwise


# (cap, the value a build passes under, the build, the refusal); a cap
# above its default is raised for the build and restored after it, one at
# or below is set for the build and then lowered by one
CAP_ROWS = [
    pytest.param(
        "MAX_MAP_POINTS", 5, lambda: enumerate_continuous(discrete(5), sierpinski()),
        BudgetExceeded, id="map-points-listing",
    ),
    pytest.param(
        "MAX_MAP_POINTS", 5, lambda: named_function_topology("t1z", _fresh_five_point_y(), sierpinski()),
        BudgetExceeded, id="map-points-named",
    ),
    pytest.param(
        "MAX_HYPER_GROUND", 32, lambda: scott(discrete(5)),
        GroundTooLarge, id="hyper-ground-scott",
    ),
    pytest.param(
        "MAX_HYPER_GROUND", 32, lambda: z_scott(discrete(5), sierpinski()),
        GroundTooLarge, id="hyper-ground-z-scott",
    ),
    pytest.param(
        "MAX_SPLITTING_INSTANCES", 400_000, lambda: continuous_slice_count(_chain3_pointwise(), 4, True),
        BudgetExceeded, id="splitting-instances",
    ),
    pytest.param(
        "MAX_ENUM_POINTS", 5, lambda: enumerate_topologies(5),
        GroundTooLarge, id="enum-points-listing",
    ),
    pytest.param(
        "MAX_ENUM_POINTS", 5, lambda: class_index(5),
        GroundTooLarge, id="enum-points-classes",
    ),
]


@pytest.mark.parametrize("name, passing, build, refusal", CAP_ROWS)
def test_a_restored_cap_refuses_again(monkeypatch, name, passing, build, refusal):
    # a result built under one cap never answers under another: a cached
    # builder, or one stacked on a cached builder, refuses again once the
    # cap that let it through is restored or lowered
    default = getattr(CAPS, name)
    if passing > default:
        with pytest.raises(refusal):
            build()
        monkeypatch.setattr(CAPS, name, passing)
        build()
        monkeypatch.undo()
        assert getattr(CAPS, name) == default
    else:
        build()
        monkeypatch.setattr(CAPS, name, passing - 1)
    with pytest.raises(refusal):
        build()


def test_the_caps_keep_their_names_and_defaults():
    assert {name: getattr(CAPS, name) for name in dir(CAPS) if name.startswith("MAX_")} == {
        "MAX_GROUND": 32,
        "MAX_ENUM_POINTS": 5,
        "MAX_CANONICAL_RELABELS": 1_000_000,
        "MAX_MAP_POINTS": 4,
        "MAX_SPLITTING_X": 4,
        "MAX_SPLITTING_INSTANCES": 250_000,
        "MAX_HYPER_GROUND": 16,
        "MAX_SUITE_Y": 3,
        "MAX_SUITE_Z": 2,
    }


def test_setting_a_cap_empties_every_cache(monkeypatch):
    # plain assignment, monkeypatch's set and its undo each empty the
    # caches, even when the value does not change; a name that is not a
    # cap, and a deletion, are refused and empty nothing
    def fill():
        enumerate_continuous(sierpinski(), sierpinski())
        return enumerate_continuous.cache_info().currsize

    clear_caches()
    assert fill() == 1
    CAPS.MAX_MAP_POINTS = CAPS.MAX_MAP_POINTS
    assert enumerate_continuous.cache_info().currsize == 0
    assert fill() == 1
    monkeypatch.setattr(CAPS, "MAX_GROUND", 32)
    assert enumerate_continuous.cache_info().currsize == 0
    assert fill() == 1
    monkeypatch.undo()
    assert enumerate_continuous.cache_info().currsize == 0
    assert fill() == 1
    with pytest.raises(AttributeError, match="MAX_POINTS"):
        CAPS.MAX_POINTS = 5
    with pytest.raises(AttributeError):
        monkeypatch.setattr(CAPS, "MAX_POINTS", 5)
    with pytest.raises(AttributeError):
        del CAPS.MAX_MAP_POINTS
    assert enumerate_continuous.cache_info().currsize == 1


def _cached_definitions() -> set[str]:
    # module.qualname of every definition decorated with `cached`
    found = set()

    def walk(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", module)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {getattr(d, "id", getattr(d, "attr", None)) for d in child.decorator_list}
                if "cached" in names:
                    found.add(f"{module}.{prefix}{child.name}")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), "", f"topolab.{path.stem}")
    return found


def _module_caches() -> dict[str, object]:
    # every cache found on a loaded module of the package, as a scan of
    # module attributes finds them
    found = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("topolab"):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", "") == modname:
                found[f"{modname}.{attr}"] = value
    return found


def test_the_registry_reaches_every_cache():
    registered = {f"{fn.__module__}.{fn.__qualname__}": fn for fn in caps._caches}
    # 15 when this test was written
    assert set(registered) == _cached_definitions()
    assert len(registered) == len(caps._caches)
    scanned = _module_caches()
    assert all(registered.get(name) is fn for name, fn in scanned.items())
    # one home for lru_cache in the package, and for cache_clear anywhere
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path == SRC / "caps.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.parent == SRC:
                if isinstance(node, ast.ImportFrom):
                    assert "lru_cache" not in {a.name for a in node.names}, path.name
                assert getattr(node, "attr", None) != "lru_cache", path.name
            if isinstance(node, ast.Call):
                assert getattr(node.func, "attr", None) != "cache_clear", path.name
    # a cold suite and every probe fill caches, and one call empties them
    clear_caches()
    theorem_suite(3, 2)
    for qid in QUESTION_IDS:
        question_search(qid, 3, 2)
    assert sum(fn.cache_info().currsize for fn in caps._caches) > 0
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in registered.items()} == dict.fromkeys(
        registered, 0
    )
