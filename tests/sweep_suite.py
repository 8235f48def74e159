"""The theorem suite and the question probes past their caps: each fast
pass beside its oracles.

    PYTHONPATH=src python tests/sweep_suite.py --max-y 4 --max-z 3

Raises every cap the bounds need, in its own processes only:
`CAPS.MAX_SUITE_Y` and `MAX_SUITE_Z` to the bounds asked for,
`CAPS.MAX_MAP_POINTS` to the larger of them, and
`CAPS.MAX_HYPER_GROUND` to the opens of the discrete space on that many
points (32 at five). `CAPS.MAX_ENUM_POINTS` stays, so a bound stops at
five points. Each run goes in a fresh interpreter of its own,
one at a time, so it starts with every module cache empty:
- `theorem_suite`, which decides its pair rows once per pair of T0
  quotient classes;
- `oracles.class_theorem_suite`, the class pass it replaced, once per
  homeomorphism class pair;
- the ten runnable probes of `question_search`, once per class pair
  (class triple for q6 and q7);
- `oracles.labeled_theorem_suite` and `oracles.labeled_question_search`,
  which decide on every labeled pair.

It prints whether the suite's JSON bytes agree with both suite oracles,
and the probes' with theirs; each cold time in raw seconds, and each
run's peak RSS, both taken before the output is serialized. The peak is
the run's own: the `VmHWM` its process reads from /proc/self/status
(Linux), which counts the interpreter and its imports but no other run.
For the suite and the probes it prints the map sets each built,
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
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from oracles import class_theorem_suite, labeled_question_search, labeled_theorem_suite
from topolab import checkers, explorer, mapspace
from topolab.caps import CAPS
from topolab.explorer import QuestionProbe
from topolab.finspace import discrete
from topolab.reports import suite_to_json


def raise_caps(max_y: int, max_z: int) -> None:
    CAPS.MAX_SUITE_Y = max(CAPS.MAX_SUITE_Y, max_y)
    CAPS.MAX_SUITE_Z = max(CAPS.MAX_SUITE_Z, max_z)
    points = max(max_y, max_z)
    CAPS.MAX_MAP_POINTS = max(CAPS.MAX_MAP_POINTS, points)
    CAPS.MAX_HYPER_GROUND = max(CAPS.MAX_HYPER_GROUND, 1 << points)


def peak_rss_mb() -> float:
    """This process's peak RSS so far, its `VmHWM` (Linux)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / (1 << 10)  # in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def probes(search):
    """Every runnable probe through search at the bounds."""

    def run(max_y: int, max_z: int) -> list[QuestionProbe]:
        return [search(qid, max_y, max_z) for qid in explorer._RUNNERS]

    return run


def probes_to_json(out: list[QuestionProbe]) -> str:
    return "\n".join(probe.to_json() for probe in out)


# each run by name: the route and how its output becomes text
RUNS = {
    "suite": (checkers.theorem_suite, suite_to_json),
    "class": (class_theorem_suite, suite_to_json),
    "probes": (probes(explorer.question_search), probes_to_json),
    "labeled suite": (labeled_theorem_suite, suite_to_json),
    "labeled probes": (probes(labeled_question_search), probes_to_json),
}


def cold_run(name: str, max_y: int, max_z: int) -> tuple[str, float, float, int]:
    """The named run at the bounds, in a fresh interpreter: its output
    through its text, its time and its peak RSS, both taken before the
    text is made, and the map sets it built."""
    raise_caps(max_y, max_z)
    run, to_text = RUNS[name]
    start = time.perf_counter()
    out = run(max_y, max_z)
    seconds = time.perf_counter() - start
    peak, map_sets = peak_rss_mb(), mapspace.enumerate_continuous.cache_info().misses
    return to_text(out), seconds, peak, map_sets


def alone(name: str, max_y: int, max_z: int) -> tuple[str, float, float, int]:
    """`cold_run` in a child process of its own, started fresh."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as child:
        return child.submit(cold_run, name, max_y, max_z).result()


def probe_class_pairs(ys, zs) -> int:
    """The distinct (domain, codomain) class pairs whose map sets the
    probes read: Y x Z, and X x Y and X x Z for the first factor X of
    q6 and q7, on at most `explorer.MAX_COMPOSE_X` points; q10's
    codomain, discrete(2), is its own class."""
    xs = ys.upto(explorer.MAX_COMPOSE_X).reps
    reads = ((ys.reps, zs.reps), (xs, ys.reps), (xs, zs.reps), (ys.reps, [discrete(2)]))
    return len({(a, b) for dom, cod in reads for a in dom for b in cod})


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
    raise_caps(args.max_y, args.max_z)
    bounds = f"({args.max_y},{args.max_z})"
    cap = (args.max_y, args.max_z)
    suite_got = alone("suite", *cap)
    probes_got = alone("probes", *cap)
    suite_want = {"class": alone("class", *cap), "labeled": alone("labeled suite", *cap)}
    probes_want = {"labeled": alone("labeled probes", *cap)}
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
