from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from topolab import checkers, explorer
from topolab.caps import CAPS
from topolab.finspace import FinSpace, chain, discrete, enumerate_topologies, indiscrete, make_space, sierpinski


@pytest.fixture(scope="session")
def s() -> FinSpace:
    return sierpinski()


@pytest.fixture(scope="session")
def chain2() -> FinSpace:
    """Two points with opens {}, {0}, {0,1}."""
    return chain(2)


@pytest.fixture(scope="session")
def disc2() -> FinSpace:
    return discrete(2)


@pytest.fixture(scope="session")
def indisc2() -> FinSpace:
    return indiscrete(2)


@pytest.fixture(scope="session")
def pt() -> FinSpace:
    return make_space(1, [0, 1])


def all_spaces_up_to(n: int) -> list[FinSpace]:
    out: list[FinSpace] = []
    for k in range(1, n + 1):
        out.extend(enumerate_topologies(k))
    return out


@st.composite
def maybe_labeled(draw, max_points):
    x = draw(st.sampled_from(all_spaces_up_to(max_points)))
    if draw(st.booleans()):
        labels = draw(st.lists(st.text(max_size=3), min_size=x.size, max_size=x.size))
        x = FinSpace(x.size, x.opens, tuple(labels))
    return x


@pytest.fixture
def map_points(monkeypatch):
    """Set `CAPS.MAX_MAP_POINTS` for one test. Setting a cap empties every
    cache, and so does monkeypatch's undo, so no map set listed past the
    usual cap outlives the test."""
    return lambda points: monkeypatch.setattr(CAPS, "MAX_MAP_POINTS", points)


@pytest.fixture
def suite_caps(monkeypatch):
    """Raise every cap a suite at (max_y, max_z) needs for one test, as
    `tests/sweep_suite.py` does: `CAPS.MAX_SUITE_Y` and `MAX_SUITE_Z` to
    the bounds, `CAPS.MAX_MAP_POINTS` to the larger of them, and
    `CAPS.MAX_HYPER_GROUND` to the opens of the discrete space on that
    many points. No cap is lowered. Setting a cap, and monkeypatch's undo
    of it, empties every cache, as for `map_points`."""

    def raise_caps(max_y: int, max_z: int) -> None:
        points = max(max_y, max_z)
        for name, value in (
            ("MAX_SUITE_Y", max_y),
            ("MAX_SUITE_Z", max_z),
            ("MAX_MAP_POINTS", points),
            ("MAX_HYPER_GROUND", 1 << points),
        ):
            monkeypatch.setattr(CAPS, name, max(getattr(CAPS, name), value))

    return raise_caps


def spy_on_class_passes(monkeypatch) -> tuple[list, list]:
    """Record each class pass, a call of `checkers.space_axes` from the
    suite or a probe, with its bounds, and each labeled rerun, a read of
    `SpaceAxis.labeled`, which only `over_classes` and the escape rebuild
    of `composition_rows` make. The two lists fill as the patched calls
    run."""
    passes, reruns = [], []
    space_axes, labeled = checkers.space_axes, checkers.SpaceAxis.labeled

    def counted_axes(max_y, max_z):
        passes.append((max_y, max_z))
        return space_axes(max_y, max_z)

    def counted_labeled(axis):
        reruns.append(axis)
        return labeled.fget(axis)

    monkeypatch.setattr(checkers, "space_axes", counted_axes)
    monkeypatch.setattr(explorer, "space_axes", counted_axes)
    monkeypatch.setattr(checkers.SpaceAxis, "labeled", property(counted_labeled))
    return passes, reruns
