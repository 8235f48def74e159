"""topolab benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite32 --seed 0 --seconds 30 --trace 0

Workloads: suite32, probes32, bound4, split3, or `all` for each in turn.
The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Lines before it restate them for people,
together with figures under other names (suite_cold_s, bound4_pair_p90_ms,
...). README.md in this directory explains the workloads and the metrics.

The benchmark is one closed-loop caller. Every repetition runs in a fresh
interpreter (worker.py), and at most one child process is alive at a time:
a worker, or one CLI run after the worker has exited. Exit status 0 means
every output was correct, 1 that a check failed, 2 a usage error or a
directory without the package source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 3  # setup-only interpreters per run, besides one per repetition
MIN_REPS = 2
HARD_LIMIT_S = 170  # a run must end within 180 s, set-up and CLI runs included

END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
)

# other names for figures, as each workload's share of the metrics above
ALIASES = {
    "suite32": (("suite_cold_s", "cold_s"), ("suite_warm_s", "warm_s"), ("cli_theorems_s", "cli_s")),
    "probes32": (("probes_cold_s", "cold_s"),),
    "bound4": (),
    "split3": (),
}


def inside_out(inner: dict, wall: float, factor: float) -> float:
    """Reference seconds of a child's life: the part it timed itself, plus
    the rest (interpreter start, and exit for a CLI run) timed from here."""
    return inner["ref_s"] + max(0.0, wall - inner["wall_s"]) * factor


class Run:
    """One workload's measurement in one checkout."""

    def __init__(self, root: str, workload: str, seed: int, scale: str) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self.timeline = clock.Timeline()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.build_dir = os.path.join(root, workloads.CLI_DIR)
        os.makedirs(self.build_dir, exist_ok=True)

    def _spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float, float]:
        """Run one child to completion; a child still running at the run's
        hard deadline is killed and reported as failed. Returns the process,
        its monotonic start and end, and reference seconds per wall second
        over its life, sampled in this process before and after it."""
        self.timeline.mark_if_due()
        start_pc = time.perf_counter()
        start = time.monotonic()
        try:
            proc = subprocess.run(
                argv,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.hard_deadline - start),
            )
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(argv, -9, "", "killed at the run's time limit")
        end = time.monotonic()
        end_pc = time.perf_counter()
        self.timeline.mark()
        return proc, start, end, self.timeline.factor(start_pc, end_pc)

    def worker(self, phase: str, *extra: str) -> tuple[dict | None, float]:
        """Start worker.py; returns its JSON result (None on failure) and the
        reference seconds from spawning it until its inputs were built."""
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--scale", self.scale, "--phase", phase, *extra,
        ]
        proc, start, _, factor = self._spawn(argv)
        if proc.returncode != 0:
            self.errors.append(f"worker {phase} exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None, 0.0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup = result["setup"]
        return result, inside_out(setup, setup["ready"] - start, factor)

    def run_cli(self, calls: list[dict], trace_prefix: str | None = None) -> tuple[list[float], list[dict]]:
        """Run each CLI call in its own interpreter, one after another, and
        check its output. Returns each call's reference seconds and the traced
        summaries."""
        times = []
        layers = []
        for i, call in enumerate(calls):
            for path, obj in call["files"].items():
                with open(os.path.join(self.root, path), "w") as fh:
                    json.dump(obj, fh)
            timing_path = os.path.join(self.build_dir, "cli-timing.json")
            if os.path.exists(timing_path):
                os.remove(timing_path)
            argv = [
                sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.workload, "--phase", "cli",
                "--timing-out", timing_path,
            ]
            if trace_prefix:
                out_path = f"{trace_prefix}-cli{i}.json"
                argv += ["--trace-out", out_path]
            proc, start, end, factor = self._spawn([*argv, "--", *call["argv"]])
            if os.path.exists(timing_path):
                with open(timing_path) as fh:
                    times.append(inside_out(json.load(fh), end - start, factor))
            else:
                times.append((end - start) * factor)
            self.attempted += 1
            if not workloads.check_cli(call["expect"], proc.returncode, proc.stdout):
                self.failed += 1
                self.errors.append(f"CLI {' '.join(call['argv'])}: wrong output (rc {proc.returncode})")
            if trace_prefix and os.path.exists(out_path):
                with open(out_path) as fh:
                    layers.append(json.load(fh)["layers"])
        return times, layers

    def _count(self, result: dict | None) -> None:
        if result is None:
            self.attempted += 1
            self.failed += 1
            return
        self.attempted += result["ops"]
        self.failed += result["failed"]

    def measure(self, seconds: float) -> tuple[dict, list[str]]:
        """Untraced repetitions until the time is up, at least MIN_REPS."""
        deadline = time.monotonic() + seconds
        setup = []
        for _ in range(SETUP_SPAWNS):
            result, ready = self.worker("setup")
            if result is None:
                self._count(None)
                return {}, []
            setup.append(ready)
        reps = []
        while True:
            started = time.monotonic()
            result, ready = self.worker("run")
            self._count(result)
            if result is None:
                break
            setup.append(ready)
            cli_times, _ = self.run_cli(result["cli"])
            reps.append((result, cli_times))
            took = time.monotonic() - started
            if len(reps) >= MIN_REPS and time.monotonic() + took > deadline:
                break
        if not reps:
            return {}, []
        samples = {
            "setup_s": setup,
            "cold_s": [sum(r["cold_items"]) for r, _ in reps],
            "warm_s": [sum(items) for r, _ in reps for items in r["warm_items"]],
            "cli_s": [sum(c) for _, c in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r, _ in reps],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return metrics, self._notes(values, samples, reps)

    def _notes(self, values: dict, samples: dict, reps: list) -> list[str]:
        w = self.workload
        lines = [
            f"{w} {name} {values[name]} {unit} (median of "
            + " ".join(f"{v:.4g}" for v in samples[name]) + ")"
            for name, unit in END_TO_END
        ]
        for alias, name in ALIASES[w]:
            lines.append(f"{w} {alias} {values[name]} s")
        work = reps[0][0]["work"]
        items = [t for r, _ in reps for t in r["cold_items"]]
        if w == "bound4":
            lines.append(f"{w} bound4_topologies_per_s {work / values['cold_s']} 1/s")
            if len(items) >= 20:
                cuts = statistics.quantiles(items, n=10)
                lines.append(f"{w} bound4_pair_p50_ms {cuts[4] * 1000} ms ({len(items)} pairs)")
                lines.append(f"{w} bound4_pair_p90_ms {cuts[8] * 1000} ms ({len(items)} pairs)")
        if w == "split3":
            lines.append(f"{w} split3_instances_per_s {work / values['cold_s']} 1/s")
        lines.append(f"{w} failed_ops {self.failed}/{self.attempted}")
        return lines

    def trace(self) -> tuple[dict, list[str]]:
        """One untraced and one traced cold pass, then the traced CLI runs."""
        plain, _ = self.worker("run", "--warm", "0")
        self._count(plain)
        prefix = os.path.join(self.build_dir, f"trace-{self.workload}")
        traced, _ = self.worker("run", "--warm", "0", "--trace-out", f"{prefix}.json")
        self._count(traced)
        if plain is None or traced is None:
            return {}, []
        if plain["digest"] != traced["digest"]:
            self.failed += 1
            self.errors.append("traced pass output differs from the untraced pass")
        with open(f"{prefix}.json") as fh:
            layers = dict(json.load(fh)["layers"])
        _, cli_layers = self.run_cli(traced["cli"], prefix)
        for summary in cli_layers:
            for key, value in summary.items():
                layers[key] = layers.get(key, 0) + value
        layers["trace_overhead"] = sum(traced["cold_items"]) / sum(plain["cold_items"])
        metrics = {
            name: {"value": layers.get(name, 0), "unit": spans.metric_unit(name)}
            for name in spans.LAYER_METRICS
        }
        notes = [
            f"{self.workload} {name} {m['value']} {m['unit']}"
            for name, m in metrics.items()
            if m["value"]
        ]
        notes.append(f"{self.workload} failed_ops {self.failed}/{self.attempted}")
        return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="topolab benchmark")
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny bounds are for the smoke test")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "topolab", "__init__.py")):
        print("run from the root of a topolab checkout: src/topolab is missing", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = Run(root, name, args.seed, args.scale)
        if args.trace:
            got, notes = run.trace()
        else:
            got, notes = run.measure(args.seconds)
        for line in notes + run.errors:
            print(line)
        correct = correct and not run.failed and bool(got)
        attempted += run.attempted
        failed += run.failed
        if args.workload == "all":
            got = {f"{name}.{key}": value for key, value in got.items()}
        metrics.update(got)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
