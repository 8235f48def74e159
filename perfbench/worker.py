"""One benchmark process in a fresh interpreter; run.py starts it.

Phases:
  setup  import topolab, build the workload's inputs, report when ready;
  run    the same, then one timed cold pass, its checks, and (with --warm 1)
         warm passes in the same process; prints one JSON object;
  cli    run `topolab.cli.main` on the arguments after `--`, timed like a
         pass; the CLI's own JSON goes to stdout unchanged.

With --trace-out PATH the tracer from spans.py wraps the package before the
timed pass, and the per-layer summary plus every span go to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

WARM_BUDGET_S = 1.0  # warm passes repeat until they add up to this much
MAX_WARM = 20


def _import_topolab(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import topolab

    where = os.path.dirname(os.path.abspath(topolab.__file__))
    if where != os.path.join(root, "src", "topolab"):
        raise SystemExit(f"topolab imported from {where}, not from this checkout")
    return topolab


def _cold_caches(spans) -> dict:
    caches = spans.lru_caches()
    warm = sorted(name for name, fn in caches.items() if fn.cache_info().currsize)
    if warm:
        raise SystemExit(f"lru_caches filled before any work: {', '.join(warm)}")
    return caches


def _cli(root: str, args) -> int:
    """`topolab.cli.main` on the arguments after `--`, which is what
    `python -m topolab.cli` runs. stdout is the CLI's own. The import and
    the call are one timed operation; its reference and wall seconds go to
    --timing-out so run.py can time the rest of the process from outside."""
    import clock
    import spans

    tracer = spans.Tracer() if args.trace_out else None

    def run_cli() -> int:
        _import_topolab(root)
        import topolab.cli

        _cold_caches(spans)
        if tracer:
            tracer.install()
        return topolab.cli.main(args.cli_args)

    rc, ref_s, wall_s = clock.Timeline().timed_one(run_cli)
    sys.stdout.flush()
    with open(args.timing_out, "w") as fh:
        json.dump({"ref_s": ref_s, "wall_s": wall_s}, fh)
    if tracer:
        tracer.write(args.trace_out, tracer.summary(spans.CLI_MODULES))
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", default="full")
    p.add_argument("--phase", choices=("setup", "run", "cli"), required=True)
    p.add_argument("--warm", type=int, default=1)
    p.add_argument("--trace-out")
    p.add_argument("--timing-out")
    p.add_argument("cli_args", nargs="*")
    args = p.parse_args(argv)

    root = os.getcwd()
    if args.phase == "cli":
        return _cli(root, args)

    import clock
    import spans

    def set_up():
        _import_topolab(root)
        import workloads

        caches = _cold_caches(spans)
        w = workloads.WORKLOADS[args.workload](args.seed, args.scale)
        w.build()
        for fn in caches.values():
            fn.cache_clear()
        return w

    timeline = clock.Timeline()
    w, setup_ref, setup_wall = timeline.timed_one(set_up)
    setup = {"ready": time.monotonic(), "ref_s": setup_ref, "wall_s": setup_wall}
    if args.phase == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install()
    out, items = timeline.timed(w.operations())
    if tracer:
        tracer.write(args.trace_out, tracer.summary(spans.WORKER_MODULES))

    failed = w.check(out)
    digest = w.digest(out)
    warm = []
    while args.warm and len(warm) < MAX_WARM and sum(map(sum, warm)) < WARM_BUDGET_S:
        again, again_items = timeline.timed(w.operations())
        warm.append(again_items)
        failed += w.check(again) if w.digest(again) == digest else w.ops

    print(
        json.dumps(
            {
                "setup": setup,
                "cold_items": items,
                "warm_items": warm,
                "ops": w.ops * (1 + len(warm)),
                "failed": failed,
                "work": w.work(),
                "digest": digest,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "cli": w.cli_calls(out),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
