"""The four benchmark workloads: inputs from the seed, one timed pass, and
the checks on its output.

topolab is imported inside the methods that need it. run.py imports this
module to check CLI output without loading the package; worker.py imports it
after putting the checkout's src/ on sys.path. Calls go through module
attributes at call time, so the tracer's rebound wrappers see them.

A workload's operations are what `attempted` and `failed` count: one suite
run, one question probe, one (Y,Z) pair of six topologies, or one splitting
refutation per pass, plus one operation per CLI call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

CLI_DIR = os.path.join(".bench_build", "perfbench")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def space_dict(x) -> dict:
    return {"points": x.size, "opens": list(x.opens.members)}


def check_cli(expect: dict, returncode: int, stdout: str) -> bool:
    """Compare one CLI run with what the worker computed in process."""
    if returncode != expect["rc"]:
        return False
    if "sha256" in expect and sha256(stdout) != expect["sha256"]:
        return False
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    if "fields" in expect:
        got = {k: got.get(k) for k in expect["fields"]}
    if "ignore_claims" in expect:
        got = [row for row in got if row["claim"] not in expect["ignore_claims"]]
    return got == expect["json"]


class Workload:
    name = ""
    SCALES: dict = {}

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self.params = self.SCALES[scale]
        self.expected = EXPECTED[scale][self.name]

    def build(self) -> None:
        """Make the inputs; counted in setup_s."""

    @property
    def ops(self) -> int:
        """Operations in one pass."""
        raise NotImplementedError

    def work(self) -> int:
        """Units of work in one pass, for the throughput figures."""
        return self.ops

    def operations(self) -> list:
        """One pass: a zero-argument callable per operation. Each looks up
        its topolab function when called, after any tracer is installed."""
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def check(self, out) -> int:
        """Number of operations of the pass whose output is wrong."""
        raise NotImplementedError

    def cli_calls(self, out) -> list[dict]:
        """CLI runs of the same work: arguments for `topolab.cli.main`,
        input files to write first, and what check_cli must see."""
        raise NotImplementedError


class Suite32(Workload):
    """theorem_suite at (3,2), cold, then warm, then `check theorems`."""

    name = "suite32"
    SCALES = {"full": (3, 2), "tiny": (2, 1)}
    REFINEMENT = "admissible:refinement-monotone"  # the only row the seed moves
    ops = 1

    def operations(self):
        import topolab

        max_y, max_z = self.params
        return [lambda: topolab.checkers.theorem_suite(max_y, max_z, seed=self.seed)]

    def digest(self, out) -> str:
        import topolab

        return sha256(topolab.reports.suite_to_json(out[0]))

    def check(self, out) -> int:
        rows = [r.to_dict() for r in out[0]]
        failing = [r for r in rows if r["status"] == "fails"]
        divergences = [r for r in rows if not r["expected"]]
        refinement = [r for r in rows if r["claim"] == self.REFINEMENT]
        ok = (
            len(rows) == self.expected["rows"]
            and len(divergences) == 3
            and failing == divergences
            and len(refinement) == 1
            and refinement[0]["budget"]["seed"] == self.seed
        )
        if self.seed == 0:
            ok = ok and self.digest(out) == self.expected["digest_seed0"]
        return 0 if ok else self.ops

    def cli_calls(self, out):
        max_y, max_z = self.params
        rows = json.loads(canonical([r.to_dict() for r in out[0]]))
        return [
            {
                "argv": ["check", "theorems", "--max-y", str(max_y), "--max-z", str(max_z)],
                "files": {},
                "expect": {
                    "rc": 0,
                    "sha256": self.expected["cli_sha256"],
                    "ignore_claims": [self.REFINEMENT],
                    "json": [r for r in rows if r["claim"] != self.REFINEMENT],
                },
            }
        ]


class Probes32(Workload):
    """Every question id through question_search at (3,2), cold."""

    name = "probes32"
    SCALES = {"full": (3, 2), "tiny": (2, 1)}

    @property
    def ops(self) -> int:
        return len(self.expected["rows"])

    def operations(self):
        import topolab

        return [
            lambda qid=qid: topolab.explorer.question_search(qid, *self.params)
            for qid in topolab.explorer.QUESTION_IDS
        ]

    def digest(self, out) -> str:
        return sha256(canonical([p.to_dict() for p in out]))

    def check(self, out) -> int:
        if self.digest(out) != self.expected["digest"]:
            return self.ops
        rows = self.expected["rows"]
        bad = 0
        for probe in out:
            statuses = [r.status for r in probe.result]
            scoped = probe.status == "completed"
            if (
                probe.id not in rows
                or len(statuses) != rows[probe.id]
                or "fails" in statuses
                or scoped != bool(statuses)
            ):
                bad += 1
        return bad + abs(len(out) - self.ops)

    def cli_calls(self, out):
        max_y, max_z = self.params
        return [
            {
                "argv": [
                    "search", "question", "--id", p.id,
                    "--max-y", str(max_y), "--max-z", str(max_z),
                ],
                "files": {},
                "expect": {"rc": 0, "json": json.loads(canonical(p.to_dict()))},
            }
            for p in out
        ]


class Bound4(Workload):
    """Six named topologies for one relabeled 4-point Y per homeomorphism
    class against every Z with at most 2 points."""

    name = "bound4"
    SCALES = {"full": (4, 2), "tiny": (3, 1)}

    def build(self):
        from topolab.finspace import bits, enumerate_topologies, make_space

        n, max_z = self.params
        rng = random.Random(self.seed)
        self.ys = []
        for rep in enumerate_topologies(n, up_to_iso=True):
            perm = list(range(n))
            rng.shuffle(perm)
            opens = [sum(1 << perm[p] for p in bits(o)) for o in rep.opens.members]
            self.ys.append(make_space(n, opens))
        self.zs = [sp for k in range(1, max_z + 1) for sp in enumerate_topologies(k)]

    @property
    def ops(self) -> int:
        return len(self.ys) * len(self.zs)

    def work(self) -> int:
        return self.ops * 6

    def operations(self):
        import topolab

        def pair(y, z):
            return lambda: [
                topolab.fntop.named_function_topology(k, y, z) for k in topolab.fntop.NAMED
            ]

        return [pair(y, z) for y in self.ys for z in self.zs]

    def digest(self, out) -> str:
        return sha256(
            canonical(
                [
                    [
                        t.provenance,
                        list(t.maps.domain.opens.members),
                        list(t.maps.codomain.opens.members),
                        list(t.subbasis),
                    ]
                    for pair in out
                    for t in pair
                ]
            )
        )

    @staticmethod
    def invariant(out) -> str:
        """Relabeling Y permutes maps and subbasis members but keeps their
        numbers, so this digest does not depend on the seed."""
        counts = Counter(
            (t.provenance, len(t.maps), len(t.subbasis)) for pair in out for t in pair
        )
        return sha256(canonical(sorted([*key, n] for key, n in counts.items())))

    def check(self, out) -> int:
        import topolab

        if len(out) != self.ops or self.invariant(out) != self.expected["invariant"]:
            return self.ops
        kinds = list(topolab.fntop.NAMED)
        return sum(1 for pair in out if [t.provenance for t in pair] != kinds)

    def cli_calls(self, out):
        # the pair with the most opens on both sides: the heaviest hyperspaces
        i = max(range(len(self.ys)), key=lambda k: len(self.ys[k].opens))
        j = max(range(len(self.zs)), key=lambda k: len(self.zs[k].opens))
        pair = out[i * len(self.zs) + j]
        y_path = os.path.join(CLI_DIR, "bound4-y.json")
        z_path = os.path.join(CLI_DIR, "bound4-z.json")
        files = {y_path: space_dict(self.ys[i]), z_path: space_dict(self.zs[j])}
        return [
            {
                "argv": ["topo", "build", "--kind", t.provenance, "--y", y_path, "--z", z_path],
                "files": files,
                "expect": {
                    "rc": 0,
                    "fields": ["provenance", "subbasis"],
                    "json": {"provenance": t.provenance, "subbasis": list(t.subbasis)},
                },
            }
            for t in pair
        ]


class Split3(Workload):
    """refute_splitting at max_x=3 over all named topologies at (3,2)."""

    name = "split3"
    SCALES = {"full": (3, 2, 3), "tiny": (2, 1, 2)}

    def build(self):
        import topolab
        from topolab.finspace import enumerate_topologies

        max_y, max_z, _ = self.params
        ys = [sp for n in range(1, max_y + 1) for sp in enumerate_topologies(n)]
        zs = [sp for n in range(1, max_z + 1) for sp in enumerate_topologies(n)]
        self.tops = [
            topolab.fntop.named_function_topology(k, y, z)
            for y in ys
            for z in zs
            for k in topolab.fntop.NAMED
        ]

    @property
    def ops(self) -> int:
        return len(self.tops)

    def work(self) -> int:
        return self.expected["instances"]

    def operations(self):
        import topolab

        max_x = self.params[2]
        return [
            lambda t=t: topolab.checkers.refute_splitting(t, max_x=max_x) for t in self.tops
        ]

    def digest(self, out) -> str:
        return sha256(canonical([r.to_dict() for r in out]))

    def check(self, out) -> int:
        if (
            len(out) != self.ops
            or sum(r.instance_count for r in out) != self.expected["instances"]
            or self.digest(out) != self.expected["digest"]
        ):
            return self.ops
        return sum(1 for r in out if r.status == "fails")

    def cli_calls(self, out):
        # the six topologies on the largest map set, the costliest instances
        first = max(range(0, len(self.tops), 6), key=lambda k: len(self.tops[k].maps))
        calls = []
        for k in range(first, first + 6):
            t = self.tops[k]
            path = os.path.join(CLI_DIR, f"split3-{t.provenance}.json")
            topology = {
                "y": space_dict(t.maps.domain),
                "z": space_dict(t.maps.codomain),
                "subbasis": list(t.subbasis),
                "provenance": t.provenance,
            }
            calls.append(
                {
                    "argv": [
                        "check", "splitting", "--topology", path,
                        "--max-x", str(self.params[2]),
                    ],
                    "files": {path: topology},
                    "expect": {"rc": 0, "json": json.loads(canonical(out[k].to_dict()))},
                }
            )
        return calls


WORKLOADS = {w.name: w for w in (Suite32, Probes32, Bound4, Split3)}
