"""Frozen bytes for outputs that no benchmark digest covers.

Each covered output is rendered as one line of text and the whole listing is
hashed; the digest was taken before the open families were rebuilt as the
up-sets of their minimal opens, so any change in a covered byte shows here.
Covered: `topo build` JSON of the five hyperspace kinds, `z_topology`
opens, `product` opens and labels, named function-space opens and their
duals, and every `make_space` rejection on at most 3 points.
"""

from __future__ import annotations

import hashlib
import json

from topolab.cli import main
from topolab.duality import tau_of_t
from topolab.errors import TopolabError
from topolab.finspace import make_space, product
from topolab.fntop import NAMED, named_function_topology
from topolab.mapspace import z_topology

from conftest import all_spaces_up_to

FROZEN_SHA256 = "4114e324fd60093ac12aedbf66ff48aa61aeac70976cf7b5f0c0e88c83512837"


def _space_file(tmp_path, tag: str, x) -> str:
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps({"points": x.size, "opens": list(x.opens.members)}))
    return str(path)


def _topo_build_lines(tmp_path) -> list[str]:
    out = tmp_path / "out.json"
    lines = []

    def build(kind, y_file, z_file=None):
        argv = ["topo", "build", "--kind", kind, "--y", y_file, "--out", str(out)]
        if z_file is not None:
            argv += ["--z", z_file]
        assert main(argv) == 0
        lines.append(f"topo build {kind}: {out.read_text()}")

    ys = [_space_file(tmp_path, f"y{i}", y) for i, y in enumerate(all_spaces_up_to(3))]
    zs = [_space_file(tmp_path, f"z{i}", z) for i, z in enumerate(all_spaces_up_to(2))]
    for y_file in ys:
        for kind in ("scott", "sscott", "ksubbasis"):
            build(kind, y_file)
        for z_file in zs:
            for kind in ("zscott", "zsscott"):
                build(kind, y_file, z_file)
    return lines


def _rejection_lines() -> list[str]:
    lines = []
    for n in range(4):
        for pick in range(1 << (1 << n)):
            fam = [m for m in range(1 << n) if (pick >> m) & 1]
            try:
                make_space(n, fam)
            except TopolabError as exc:
                witness = getattr(exc, "witness", ())
                lines.append(f"reject {n} {fam}: {type(exc).__name__} {exc} {witness}")
    return lines


def frozen_listing(tmp_path) -> str:
    lines = _topo_build_lines(tmp_path)
    for y in all_spaces_up_to(3):
        for z in all_spaces_up_to(2):
            lines.append(f"z_topology {y.encoding()} {z.encoding()}: {z_topology(y, z).opens.members}")
    small = all_spaces_up_to(2)
    for a in small:
        for b in small:
            p = product(a, b)
            lines.append(f"product {a.encoding()} {b.encoding()}: {p.opens.members} {p.labels}")
    for y in small:
        for z in small:
            for name in NAMED:
                t = named_function_topology(name, y, z)
                lines.append(
                    f"{name} {y.encoding()} {z.encoding()}: "
                    f"{t.opens.members} dual {tau_of_t(t).opens.members}"
                )
    lines += _rejection_lines()
    return "\n".join(lines) + "\n"


def test_frozen_bytes(tmp_path):
    listing = frozen_listing(tmp_path)
    assert hashlib.sha256(listing.encode()).hexdigest() == FROZEN_SHA256
