"""The contract of the twelve frozen value classes: the repr, equality and
hash a frozen dataclass gave them, and no field that can be reassigned.
The reprs were taken from the dataclass versions; `reports._plain` prints
a value it does not know by its str, so they are output bytes. Last, the
contract of `finspace.cached_property`, which caches their derived facts."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import topolab
from topolab.duality import DualSpace, tau_of_t
from topolab.explorer import QuestionProbe
from topolab.finspace import (
    FinSpace,
    Frozen,
    LocalProfile,
    SubsetFamily,
    cached_property,
    discrete,
    make_space,
    separation_profile,
    sierpinski,
)
from topolab.fntop import Comparison, FnTopology, compare_topologies, named_function_topology
from topolab.hypertop import HyperSpace, scott
from topolab.mapspace import ContMap, MapSet, RelativeProfile, enumerate_continuous, relative_profile
from topolab.reports import VerdictReport

# the compared fields of each class, in order; FnTopology.source is not one
FIELDS = {
    SubsetFamily: ("ground_size", "members"),
    FinSpace: ("size", "opens", "labels"),
    LocalProfile: (
        "t0", "t1", "t2", "regular", "locally_compact", "locally_bounded", "corecompact"
    ),
    ContMap: ("domain", "codomain", "table"),
    MapSet: ("domain", "codomain", "tables"),
    RelativeProfile: (
        "o_z",
        "z_top",
        "locally_z_compact",
        "locally_z_bounded",
        "z_corecompact",
        "regular_locally_z_compact",
    ),
    HyperSpace: ("base", "ground", "min_opens", "kind"),
    DualSpace: ("base", "ground", "min_opens", "kind", "z"),
    FnTopology: ("maps", "min_opens", "provenance"),
    Comparison: ("verdict", "a_only", "b_only"),
    VerdictReport: (
        "claim",
        "status",
        "hypothesis_true_count",
        "instance_count",
        "witnesses",
        "budget",
        "expected",
    ),
    QuestionProbe: ("id", "bounds", "result", "explanation", "out_of_scope_reason"),
}
# every field, in constructor order: the compared ones, then the rest
INIT_FIELDS = {**FIELDS, FnTopology: FIELDS[FnTopology] + ("source",)}

_P = "FinSpace(size=1, opens=SubsetFamily(ground_size=1, members=(0, 1)), labels=None)"
_S = "FinSpace(size=2, opens=SubsetFamily(ground_size=2, members=(0, 2, 3)), labels=None)"
_MAPS = f"MapSet(domain={_P}, codomain={_S}, tables=((0,), (1,)))"
_REPORT = (
    "VerdictReport(claim='c', status='fails', hypothesis_true_count=1, "
    "instance_count=2, witnesses=((1, 2),), budget=(('max_x', 2),), expected=False)"
)

REPRS = {
    SubsetFamily: "SubsetFamily(ground_size=2, members=(0, 2, 3))",
    FinSpace: "FinSpace(size=2, opens=SubsetFamily(ground_size=2, members=(0, 2, 3)), "
    "labels=('a', 'b'))",
    LocalProfile: "LocalProfile(t0=True, t1=False, t2=False, regular=False, "
    "locally_compact=True, locally_bounded=True, corecompact=True)",
    ContMap: f"ContMap(domain={_P}, codomain={_S}, table=(1,))",
    MapSet: _MAPS,
    RelativeProfile: "RelativeProfile(o_z=SubsetFamily(ground_size=1, members=(0, 1)), "
    f"z_top={_P}, locally_z_compact=True, locally_z_bounded=True, z_corecompact=True, "
    "regular_locally_z_compact=True)",
    HyperSpace: f"HyperSpace(base={_P}, ground=(0, 1), min_opens=(3, 2), kind='scott')",
    DualSpace: f"DualSpace(base={_P}, ground=(0, 1), min_opens=(1, 2), kind='dual', z={_S})",
    FnTopology: f"FnTopology(maps={_MAPS}, min_opens=(3, 2), provenance='t1z')",
    Comparison: "Comparison(verdict='incomparable', a_only=(2,), b_only=(1,))",
    VerdictReport: _REPORT,
    QuestionProbe: f"QuestionProbe(id='q0', bounds=(1, 1), result=({_REPORT},), "
    "explanation='why', out_of_scope_reason='')",
}


def _instances():
    p, s = discrete(1), sierpinski()
    maps = enumerate_continuous(p, s)
    t = named_function_topology("t1z", p, s)
    report = VerdictReport("c", "fails", 1, 2, ((1, 2),), (("max_x", 2),), False)
    labeled = make_space(2, [0, 2, 3], ("a", "b"))
    return [
        labeled.opens,
        labeled,
        separation_profile(s),
        maps[1],
        maps,
        relative_profile(p, s),
        scott(p),
        tau_of_t(t),
        t,
        compare_topologies(t, FnTopology.of(maps, [1])),
        report,
        QuestionProbe("q0", (1, 1), (report,), "why"),
    ]


def _twin(value):
    """An equal value that shares no Frozen instance or nonempty tuple with
    the given one."""
    if type(value) in FIELDS:
        return type(value)(*(_twin(getattr(value, f)) for f in FIELDS[type(value)]))
    if isinstance(value, tuple):
        return tuple([_twin(v) for v in value])
    return value


@pytest.mark.parametrize("a", _instances(), ids=lambda a: type(a).__name__)
def test_value_classes_keep_the_dataclass_contract(a):
    cls = type(a)
    assert repr(a) == str(a) == REPRS[cls]
    b = _twin(a)
    assert b is not a and a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in FIELDS[cls]))
    assert a != object() and a != tuple(getattr(a, f) for f in FIELDS[cls])
    field = FIELDS[cls][0]
    with pytest.raises(AttributeError, match=field):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match=field):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.spare = 1


def test_every_value_class_is_covered():
    assert {type(a) for a in _instances()} == set(FIELDS) == set(REPRS)


def test_function_topologies_differing_only_in_source_are_equal():
    t = named_function_topology("t1z", discrete(1), sierpinski())
    for source in (None, "isbell", (1, 2), scott(discrete(1))):
        u = FnTopology(t.maps, t.min_opens, t.provenance, source)
        assert u == t and hash(u) == hash(t) and repr(u) == repr(t)
    assert FnTopology(t.maps, t.min_opens, "custom", t.source) != t


def test_a_report_still_checks_its_status():
    with pytest.raises(ValueError, match="not in"):
        VerdictReport("c", "bogus")
    with pytest.raises(ValueError, match="witness"):
        VerdictReport("c", "fails")
    assert VerdictReport("c", "fails", witnesses=(1,)).witnesses == (1,)


@pytest.mark.parametrize("a", _instances(), ids=lambda a: type(a).__name__)
def test_each_constructor_takes_the_fields_in_order(a):
    # VerdictReport writes its own, to check the status; the rest are
    # generated from the annotations
    cls = type(a)
    init = cls.__init__
    assert (init.__code__.co_filename == "<string>") == (cls is not VerdictReport)
    params = list(inspect.signature(init).parameters.values())
    assert [p.name for p in params] == ["self", *INIT_FIELDS[cls]]
    for p in params[1:]:
        if p.default is p.empty:
            assert not hasattr(cls, p.name)
        else:
            assert p.default == getattr(cls, p.name)
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\.__init__\(\) missing"):
        cls()
    fields = {f: getattr(a, f) for f in INIT_FIELDS[cls]}
    assert cls(**fields) == cls(*fields.values()) == a


def test_cached_property_computes_once_and_stores_on_the_instance():
    calls = []

    class Box(Frozen):
        value: int

        @cached_property
        def doubled(self) -> int:
            """Twice the value."""
            calls.append(self.value)
            return 2 * self.value

    assert isinstance(Box.doubled, cached_property)
    assert Box.doubled.__doc__ == "Twice the value."
    a, b, twin = Box(1), Box(2), Box(1)
    assert (a.doubled, a.doubled, b.doubled, b.doubled) == (2, 2, 4, 4)
    assert calls == [1, 2]
    assert vars(a) == {"value": 1, "doubled": 2} and vars(b)["doubled"] == 4
    # an equal instance computes its own value; Frozen still refuses a write
    assert twin == a and "doubled" not in vars(twin)
    assert twin.doubled == 2 and calls == [1, 2, 1]
    with pytest.raises(AttributeError, match="doubled"):
        a.doubled = 0
    assert a.doubled == 2


def test_no_module_takes_cached_property_from_functools():
    # Python 3.11's functools.cached_property takes a lock on every first
    # read; the package reads its cached facts through finspace's instead
    for path in sorted(Path(topolab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cached_property" not in {a.name for a in node.names}, path.name
            if isinstance(node, ast.Attribute) and node.attr == "cached_property":
                assert getattr(node.value, "id", None) != "functools", path.name
