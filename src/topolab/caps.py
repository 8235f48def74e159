"""The package's caps, on one object, and the one registry of its module
caches.

A cap is checked inside a cached builder, and other caches sit on capped
ones (`named_function_topology` on `enumerate_continuous`, `z_scott` on
`scott`, `_orbit_sweep` on `enumerate_topologies`), so a result built
under a raised cap would answer a hit after the cap came back. Setting a
cap on `CAPS` therefore empties every cache `cached` made: no result
depends on what a cache saw under another cap, and a lookup costs what a
bare `lru_cache` lookup costs. Only tests and `tests/sweep_suite.py` set
caps.
"""

from __future__ import annotations

from functools import lru_cache

_caches: list = []


def cached(fn):
    """`lru_cache(maxsize=None)`, registered so `clear_caches` empties it."""
    wrapper = lru_cache(maxsize=None)(fn)
    _caches.append(wrapper)
    return wrapper


def clear_caches() -> None:
    """Empty every cache `cached` made, and its hit and miss counts."""
    for wrapper in _caches:
        wrapper.cache_clear()


class Caps:
    """The caps, each under its name, with its default as a class
    attribute. Setting one empties every cache; a name that is not a cap,
    or a deletion, raises AttributeError."""

    # finspace: the widest ground a subset family or a product may have
    MAX_GROUND = 32
    # finspace: `enumerate_topologies` lists topologies on at most this many points
    MAX_ENUM_POINTS = 5
    # finspace: the most relabeled opens, n! * |opens|, `canonical_form` builds
    MAX_CANONICAL_RELABELS = 1_000_000
    # mapspace: `enumerate_continuous` lists C(Y,Z) for factors of at most this many points
    MAX_MAP_POINTS = 4
    # mapspace: a splitting search's test spaces have at most this many points
    MAX_SPLITTING_X = 4
    # mapspace: the most slice assignments a splitting search counts
    MAX_SPLITTING_INSTANCES = 250_000
    # hypertop: a hyperspace's ground, O(Y), has at most this many opens
    MAX_HYPER_GROUND = 16
    # checkers: the suite's and the probes' bounds on Y and Z
    MAX_SUITE_Y = 3
    MAX_SUITE_Z = 2

    def __init__(self) -> None:
        # each default on the instance too: Python 3.11 reads an instance
        # attribute in about 3 ns over a global, a class attribute in 27
        for name, value in vars(Caps).items():
            if name.startswith("MAX_"):
                object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: int) -> None:
        if not name.startswith("MAX_") or not hasattr(Caps, name):
            raise AttributeError(f"{name!r} is not a cap")
        object.__setattr__(self, name, value)
        clear_caches()

    def __delattr__(self, name: str) -> None:
        # a deletion would bring back the default without emptying a cache
        raise AttributeError(f"a cap is set, not deleted: {name!r}")


CAPS = Caps()
