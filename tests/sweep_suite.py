"""The theorem suite and the question probes past their caps: each class
pass beside its labeled oracle.

    PYTHONPATH=src python tests/sweep_suite.py --max-y 4 --max-z 3

Raises `checkers.MAX_SUITE_Y` and `MAX_SUITE_Z` to the bounds asked for, in
this process only. Then it runs `theorem_suite`, which decides its pair rows
once per homeomorphism class pair, and the ten runnable probes of
`question_search`, which decide theirs once per class pair (class triple
for q6 and q7); then `oracles.labeled_theorem_suite` and
`oracles.labeled_question_search`, which decide on every labeled pair,
each run with every module cache emptied first. For the suite and for the
probes it prints whether the JSON bytes agree, each cold time in raw
seconds, and the process's peak RSS after each run, both taken before the
output is serialized; the two class passes run first, so their figures
are not the oracles'. After each class pass it
prints the map sets it built, the misses of `mapspace.enumerate_continuous`,
beside the class pairs it reads. The suite's must be one per class pair
and, for max_z >= 2, one for the divergence rows; the probes' one per
distinct (domain, codomain) class pair they read, 730 at (4,3), so a
hidden rerun on the labeled pairs shows. Exit status 1 when either pair
of byte strings differs or either count is off. Not collected by pytest:
the labeled sides at (4,3) take seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time

from oracles import labeled_question_search, labeled_theorem_suite
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


def report(name: str, bounds: str, got, want) -> bool:
    text, class_s, class_mb, map_sets = got
    agree = text == want[0]
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{name} {bounds}: class pass and labeled oracle {'agree' if agree else 'DIFFER'}")
    print(f"  sha256 {digest}")
    print(f"  class pass     {class_s:.3f} s cold, peak RSS {class_mb:.1f} MB")
    print(f"  labeled oracle {want[1]:.3f} s cold, peak RSS {want[2]:.1f} MB")
    print(f"  class pass built {map_sets} map sets")
    return agree


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-y", type=int, default=4)
    p.add_argument("--max-z", type=int, default=3)
    args = p.parse_args(argv)
    checkers.MAX_SUITE_Y = max(checkers.MAX_SUITE_Y, args.max_y)
    checkers.MAX_SUITE_Z = max(checkers.MAX_SUITE_Z, args.max_z)
    bounds = f"({args.max_y},{args.max_z})"
    cap = (args.max_y, args.max_z)
    suite_got = cold_run(checkers.theorem_suite, suite_to_json, *cap)
    probes_got = cold_run(probes(explorer.question_search), probes_to_json, *cap)
    suite_want = cold_run(labeled_theorem_suite, suite_to_json, *cap)
    probes_want = cold_run(probes(labeled_question_search), probes_to_json, *cap)
    ys, zs = checkers.space_axes(args.max_y, args.max_z)
    class_pairs = len(ys.reps) * len(zs.reps)
    built_once = args.max_z < 2 or suite_got[3] == class_pairs + 1
    agree = report("suite", bounds, suite_got, suite_want)
    print(f"  for {class_pairs} class pairs")
    if not built_once:
        print(f"  expected {class_pairs + 1}: one per class pair, one for the divergence rows")
    read = probe_class_pairs(ys, zs)
    probes_once = probes_got[3] == read
    agree = report("probes", bounds, probes_got, probes_want) and agree
    print(f"  for {read} class pairs")
    if not probes_once:
        print(f"  expected {read}: one per class pair the probes read")
    return 0 if agree and built_once and probes_once else 1


if __name__ == "__main__":
    sys.exit(main())
