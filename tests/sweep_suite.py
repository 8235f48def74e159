"""The theorem suite and the question probes past their caps: each fast
pass beside its oracles.

    PYTHONPATH=src python tests/sweep_suite.py --max-y 4 --max-z 3

Raises every cap the bounds need, in this process only:
`checkers.MAX_SUITE_Y` and `MAX_SUITE_Z` to the bounds asked for,
`mapspace.MAX_MAP_POINTS` to the larger of them, and
`hypertop.MAX_HYPER_GROUND` to the opens of the discrete space on that
many points (32 at five). `finspace.MAX_ENUM_POINTS` stays, so a bound
stops at five points. Each run starts with every module cache emptied:
- `theorem_suite`, which decides its pair rows once per pair of T0
  quotient classes;
- `oracles.class_theorem_suite`, the class pass it replaced, once per
  homeomorphism class pair;
- the ten runnable probes of `question_search`, once per class pair
  (class triple for q6 and q7);
- `oracles.labeled_theorem_suite` and `oracles.labeled_question_search`,
  which decide on every labeled pair.

It prints whether the suite's JSON bytes agree with both suite oracles,
and the probes' with theirs; each cold time in raw seconds, and the peak
RSS after each run, both taken before the output is serialized. The peak
is the process's high-water mark, so the runs go in the order above,
small to large, and the labeled oracles' figures include the probes'
JSON. For the suite and the probes it prints the map sets each built,
the misses of `mapspace.enumerate_continuous`, beside the pairs it reads.
The suite's must be one per pair of T0 deciders, 192 at (4,3) and 261 at
(5,2), and, for max_z >= 2, one for the divergence rows; the class pairs
are printed beside them. The probes' must be one per distinct (domain,
codomain) class pair they read, 730 at (4,3) and 1,464 at (5,2), so a
hidden rerun on the labeled pairs shows. Exit status 1 when any pair of
byte strings differs or either count is off. Not collected by pytest: the
labeled sides at (4,3) take seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time

from oracles import class_theorem_suite, labeled_question_search, labeled_theorem_suite
from topolab import checkers, explorer, finspace, fntop, hypertop, mapspace
from topolab.explorer import QuestionProbe
from topolab.finspace import discrete
from topolab.reports import suite_to_json


def clear_every_cache() -> None:
    for mod in (finspace, mapspace, hypertop, fntop):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / (1 << 10)


def cold_run(run, to_text, max_y: int, max_z: int) -> tuple[str, float, float, int]:
    """run at the bounds from empty caches: its output through to_text, its
    time and the peak RSS so far, both taken before the text is made, and
    the map sets it built."""
    clear_every_cache()
    start = time.perf_counter()
    out = run(max_y, max_z)
    seconds = time.perf_counter() - start
    peak, map_sets = peak_rss_mb(), mapspace.enumerate_continuous.cache_info().misses
    return to_text(out), seconds, peak, map_sets


def probes(search):
    """Every runnable probe through search at the bounds."""

    def run(max_y: int, max_z: int) -> list[QuestionProbe]:
        return [search(qid, max_y, max_z) for qid in explorer._RUNNERS]

    return run


def probe_class_pairs(ys, zs) -> int:
    """The distinct (domain, codomain) class pairs whose map sets the
    probes read: Y x Z, and X x Y and X x Z for the first factor X of
    q6 and q7, on at most `explorer.MAX_COMPOSE_X` points; q10's
    codomain, discrete(2), is its own class."""
    xs = ys.upto(explorer.MAX_COMPOSE_X).reps
    reads = ((ys.reps, zs.reps), (xs, ys.reps), (xs, zs.reps), (ys.reps, [discrete(2)]))
    return len({(a, b) for dom, cod in reads for a in dom for b in cod})


def probes_to_json(out: list[QuestionProbe]) -> str:
    return "\n".join(probe.to_json() for probe in out)


def report(name: str, bounds: str, got, oracles: dict) -> bool:
    """Print how got compares with each oracle's run, by name, and
    whether all of them agree."""
    text, seconds, peak, map_sets = got
    agree = True
    for oracle, want in oracles.items():
        same = text == want[0]
        agree = agree and same
        print(f"{name} {bounds}: {oracle} oracle {'agrees' if same else 'DIFFERS'}")
    print(f"  sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"  {name:<15}{seconds:.3f} s cold, peak RSS {peak:.1f} MB")
    for oracle, want in oracles.items():
        print(f"  {oracle + ' oracle':<15}{want[1]:.3f} s cold, peak RSS {want[2]:.1f} MB")
    print(f"  {name} built {map_sets} map sets")
    return agree


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-y", type=int, default=4)
    p.add_argument("--max-z", type=int, default=3)
    args = p.parse_args(argv)
    checkers.MAX_SUITE_Y = max(checkers.MAX_SUITE_Y, args.max_y)
    checkers.MAX_SUITE_Z = max(checkers.MAX_SUITE_Z, args.max_z)
    points = max(args.max_y, args.max_z)
    mapspace.MAX_MAP_POINTS = max(mapspace.MAX_MAP_POINTS, points)
    hypertop.MAX_HYPER_GROUND = max(hypertop.MAX_HYPER_GROUND, 1 << points)
    bounds = f"({args.max_y},{args.max_z})"
    cap = (args.max_y, args.max_z)
    suite_got = cold_run(checkers.theorem_suite, suite_to_json, *cap)
    class_want = cold_run(class_theorem_suite, suite_to_json, *cap)
    probes_got = cold_run(probes(explorer.question_search), probes_to_json, *cap)
    suite_want = {
        "class": class_want,
        "labeled": cold_run(labeled_theorem_suite, suite_to_json, *cap),
    }
    probes_want = {"labeled": cold_run(probes(labeled_question_search), probes_to_json, *cap)}
    ys, zs = checkers.space_axes(args.max_y, args.max_z)
    class_pairs = len(ys.reps) * len(zs.reps)
    t0_pairs = len(ys.t0.reps) * len(zs.t0.reps)
    built_once = args.max_z < 2 or suite_got[3] == t0_pairs + 1
    agree = report("suite", bounds, suite_got, suite_want)
    print(f"  for {t0_pairs} T0 pairs ({class_pairs} class pairs)")
    if not built_once:
        print(f"  expected {t0_pairs + 1}: one per T0 pair, one for the divergence rows")
    read = probe_class_pairs(ys, zs)
    probes_once = probes_got[3] == read
    agree = report("probes", bounds, probes_got, probes_want) and agree
    print(f"  for {read} class pairs")
    if not probes_once:
        print(f"  expected {read}: one per class pair the probes read")
    return 0 if agree and built_once and probes_once else 1


if __name__ == "__main__":
    sys.exit(main())
