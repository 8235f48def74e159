"""The theorem suite past its caps: the class pass beside the labeled oracle.

    PYTHONPATH=src python tests/sweep_suite.py --max-y 4 --max-z 3

Raises `checkers.MAX_SUITE_Y` and `MAX_SUITE_Z` to the bounds asked for, in
this process only. Then it runs `theorem_suite`, which decides its pair rows
once per homeomorphism class pair, and `oracles.labeled_theorem_suite`,
which decides them on every labeled pair, each with every module cache
emptied first. It prints whether their JSON bytes agree, each cold time in
raw seconds, and the process's peak RSS after each run; the class pass runs
first, so the first figure is its own. After the class pass it prints the
map sets it built, the misses of `mapspace.enumerate_continuous`, beside
its class pairs: for max_z >= 2 they must be one per class pair and one for
the divergence rows. Exit status 1 when the bytes differ or that count is
off. Not collected by pytest: the labeled side at (4,3) takes over a second.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time

from oracles import labeled_theorem_suite
from topolab import checkers, finspace, fntop, hypertop, mapspace
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


def cold_run(suite, max_y: int, max_z: int) -> tuple[str, float, float]:
    clear_every_cache()
    start = time.perf_counter()
    rows = suite(max_y, max_z)
    seconds = time.perf_counter() - start
    return suite_to_json(rows), seconds, peak_rss_mb()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-y", type=int, default=4)
    p.add_argument("--max-z", type=int, default=3)
    args = p.parse_args(argv)
    checkers.MAX_SUITE_Y = max(checkers.MAX_SUITE_Y, args.max_y)
    checkers.MAX_SUITE_Z = max(checkers.MAX_SUITE_Z, args.max_z)
    bounds = f"({args.max_y},{args.max_z})"
    got, class_s, class_mb = cold_run(checkers.theorem_suite, args.max_y, args.max_z)
    map_sets = mapspace.enumerate_continuous.cache_info().misses
    ys, zs = checkers._weighted_spaces(args.max_y, args.max_z, by_class=True)
    class_pairs = len(ys) * len(zs)
    built_once = args.max_z < 2 or map_sets == class_pairs + 1
    want, labeled_s, labeled_mb = cold_run(labeled_theorem_suite, args.max_y, args.max_z)
    agree = got == want
    digest = hashlib.sha256(got.encode()).hexdigest()
    print(f"suite {bounds}: class pass and labeled oracle {'agree' if agree else 'DIFFER'}")
    print(f"  sha256 {digest}")
    print(f"  class pass     {class_s:.3f} s cold, peak RSS {class_mb:.1f} MB")
    print(f"  labeled oracle {labeled_s:.3f} s cold, peak RSS {labeled_mb:.1f} MB")
    print(f"  class pass built {map_sets} map sets for {class_pairs} class pairs")
    if not built_once:
        print(f"  expected {class_pairs + 1}: one per class pair, one for the divergence rows")
    return 0 if agree and built_once else 1


if __name__ == "__main__":
    sys.exit(main())
