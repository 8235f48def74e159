"""Frozen bytes for labeled inputs.

Every Y of at most 3 points and Z of at most 2 points is given point labels,
and the constructors keyed on (Y, Z) are listed for the labeled pair: the
`topo build` JSON of the five hyperspace kinds and of the six named
function-space topologies, the opens and labels of `z_topology`, and the
labels of `relative_profile(...).z_top` and of `sierpinski_correspondence`.
The caches are first warmed with the unlabeled equal spaces, so a result
built for an unlabeled space can never leak into a labeled listing
unnoticed. The digest was taken while labeled calls still shared the cache
entry of their unlabeled twin and had their labels put back afterwards.
"""

from __future__ import annotations

import hashlib
import json

from topolab.cli import _fn_dict, _hyper_dict
from topolab.finspace import FinSpace
from topolab.fntop import NAMED, named_function_topology
from topolab.hypertop import (
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    z_scott,
)
from topolab.mapspace import relative_profile, sierpinski_correspondence, z_topology

from conftest import all_spaces_up_to

FROZEN_SHA256 = "174bb87c370320928ca63c090f5dbf4fabe82cec9f0daccf4c0552826ec1e31a"

_Y_KINDS = (scott, strong_scott, compact_subbasis_topology)
_YZ_KINDS = (z_scott, strong_z_scott)


def _labeled(x, tag: str):
    return FinSpace(x.size, x.opens, tuple(f"{tag}{p}" for p in range(x.size)))


def _listing(ys, zs) -> list[str]:
    lines = []
    for y in ys:
        for h in (kind(y) for kind in _Y_KINDS):
            lines.append(f"hyper {json.dumps(_hyper_dict(h), sort_keys=True)}")
        pairs = [
            (v, m.domain.labels, m.codomain.labels) for v, m in sierpinski_correspondence(y)
        ]
        lines.append(f"sierpinski {y.encoding()} {y.labels}: {pairs}")
        for z in zs:
            for h in (kind(y, z) for kind in _YZ_KINDS):
                lines.append(f"hyper {json.dumps(_hyper_dict(h), sort_keys=True)}")
            for name in NAMED:
                t = named_function_topology(name, y, z)
                lines.append(f"fn {json.dumps(_fn_dict(t), sort_keys=True)}")
            zt = z_topology(y, z)
            lines.append(f"z_topology {y.encoding()} {z.encoding()}: {zt.opens.members} {zt.labels}")
            rp = relative_profile(y, z)
            lines.append(f"relative_profile {y.encoding()} {z.encoding()}: {rp.z_top.labels}")
    return lines


def frozen_listing() -> str:
    ys = all_spaces_up_to(3)
    zs = all_spaces_up_to(2)
    _listing(ys, zs)  # warm every cache with the unlabeled spaces
    lines = _listing([_labeled(y, "y") for y in ys], [_labeled(z, "z") for z in zs])
    return "\n".join(lines) + "\n"


def test_frozen_labeled_bytes():
    listing = frozen_listing()
    assert hashlib.sha256(listing.encode()).hexdigest() == FROZEN_SHA256
