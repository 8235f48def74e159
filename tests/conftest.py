from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from topolab import finspace, fntop, hypertop, mapspace
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
        x = replace(x, labels=tuple(labels))
    return x


def clear_every_cache() -> None:
    """Empty every module-level cache of the package, so what follows runs
    cold: the four modules below hold all of them."""
    for mod in (finspace, mapspace, hypertop, fntop):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
