"""Command-line surface over flat JSON files.

File formats, all plain JSON objects:

  space     {"points": n, "opens": [masks], "labels": [names]?}
  topology  {"y": space, "z": space, "subbasis": [masks], "provenance": str?}
  dual      {"y": space, "z": space, "opens": [family masks]}

A mask is an integer whose bit p stands for point p of the object's ground;
family masks index the ground list of the object carrying them. Every
command prints JSON to stdout unless --out names a file. Exit codes: 0 the
check holds or stays inconclusive, 1 a failing witness was found, 2 bad
input: usage, an unreadable or malformed file, or a value the package
rejects, 141 stdout was closed before the output was written, as a shell
reports a pipe writer killed by SIGPIPE. Any other exception is a bug and
surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checkers import (
    composition_check,
    is_admissible,
    refute_splitting,
    splitting_verdict,
    theorem_suite,
)
from .duality import DualSpace, t_of_tau, tau_of_t
from .errors import MalformedInput, TopolabError
from .finspace import FinSpace, canonical_form, enumerate_topologies, make_space
from .fntop import NAMED, FnTopology, named_function_topology
from .hypertop import (
    HyperSpace,
    compact_subbasis_topology,
    scott,
    strong_scott,
    strong_z_scott,
    z_scott,
)
from .mapspace import enumerate_continuous
from .explorer import question_search

_HYPER_KINDS = {
    "scott": scott,
    "sscott": strong_scott,
    "ksubbasis": compact_subbasis_topology,
}
_HYPER_Z_KINDS = {"zscott": z_scott, "zsscott": strong_z_scott}
_ALL_KINDS = tuple(NAMED) + tuple(_HYPER_KINDS) + tuple(_HYPER_Z_KINDS)


def _load(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (ValueError, RecursionError) as exc:  # bad text, JSON or nesting; OSError passes
        raise MalformedInput(f"{path}: {exc}") from exc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_SHAPES = {
    "a count": lambda v: _is_int(v) and v >= 0,
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list of masks": lambda v: isinstance(v, list) and all(_is_int(m) for m in v),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v),
}
_REQUIRED = object()


def _field(obj, key: str, shape: str, default=_REQUIRED):
    """obj[key], checked against one of the _SHAPES, or the default when
    absent; any other input raises MalformedInput."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        if default is _REQUIRED:
            raise MalformedInput(f"missing {key!r}")
        return default
    if not _SHAPES[shape](obj[key]):
        raise MalformedInput(f"{key!r} must be {shape}")
    return obj[key]


def _emit(obj: dict | list, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _space_from(obj) -> FinSpace:
    labels = _field(obj, "labels", "a list of strings", None)
    return make_space(
        _field(obj, "points", "a count"),
        _field(obj, "opens", "a list of masks"),
        None if labels is None else tuple(labels),
    )


def _space_dict(x: FinSpace) -> dict:
    d = {"points": x.size, "opens": list(x.opens.members)}
    if x.labels is not None:
        d["labels"] = list(x.labels)
    return d


def _fn_from(obj) -> FnTopology:
    y = _space_from(_field(obj, "y", "an object"))
    z = _space_from(_field(obj, "z", "an object"))
    maps = enumerate_continuous(y, z)
    return FnTopology.of(
        maps,
        _field(obj, "subbasis", "a list of masks"),
        _field(obj, "provenance", "a string", "custom"),
    )


def _fn_dict(t: FnTopology) -> dict:
    return {
        "y": _space_dict(t.maps.domain),
        "z": _space_dict(t.maps.codomain),
        "subbasis": list(t.subbasis),
        "provenance": t.provenance,
    }


def _hyper_dict(h: HyperSpace) -> dict:
    return {
        "kind": h.kind,
        "base": _space_dict(h.base),
        "ground": list(h.ground),
        "opens": list(h.opens.members),
    }


def _fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 2


def _verdict_exit(reports) -> int:
    return 1 if any(r.status == "fails" and r.expected for r in reports) else 0


def _cmd_space_validate(args) -> int:
    x = _space_from(_load(args.file))
    echo = _space_dict(x)
    echo["canonical"] = list(canonical_form(x))
    _emit(echo, args.out)
    return 0


def _cmd_space_enum(args) -> int:
    if args.points < 0:
        return _fail("--points must be nonnegative")
    spaces = enumerate_topologies(args.points)
    _emit(
        {
            "points": args.points,
            "count": len(spaces),
            "spaces": [list(sp.opens.members) for sp in spaces],
        },
        args.out,
    )
    return 0


def _cmd_maps_enum(args) -> int:
    maps = enumerate_continuous(_space_from(_load(args.y)), _space_from(_load(args.z)))
    _emit({"count": len(maps), "tables": [list(t) for t in maps.tables]}, args.out)
    return 0


def _cmd_topo_build(args) -> int:
    y = _space_from(_load(args.y))
    if args.kind in _HYPER_KINDS:
        _emit(_hyper_dict(_HYPER_KINDS[args.kind](y)), args.out)
        return 0
    if args.z is None:
        return _fail(f"--kind {args.kind} needs --z")
    z = _space_from(_load(args.z))
    if args.kind in _HYPER_Z_KINDS:
        _emit(_hyper_dict(_HYPER_Z_KINDS[args.kind](y, z)), args.out)
        return 0
    _emit(_fn_dict(named_function_topology(args.kind, y, z)), args.out)
    return 0


def _cmd_check_admissible(args) -> int:
    rep = is_admissible(_fn_from(_load(args.topology)))
    _emit(rep.to_dict(), args.out)
    return _verdict_exit([rep])


def _cmd_check_splitting(args) -> int:
    t = _fn_from(_load(args.topology))
    rep = splitting_verdict(t) if args.exact else refute_splitting(t, max_x=args.max_x)
    _emit(rep.to_dict(), args.out)
    return _verdict_exit([rep])


def _cmd_check_compose(args) -> int:
    kinds = tuple(args.kinds.split(","))
    if len(kinds) != 3 or not set(kinds) <= set(NAMED):
        return _fail(f"--kinds needs three of {','.join(NAMED)}")
    rep = composition_check(
        _space_from(_load(args.x)),
        _space_from(_load(args.y)),
        _space_from(_load(args.z)),
        kinds,
    )
    _emit(rep.to_dict(), args.out)
    return _verdict_exit([rep])


def _cmd_check_theorems(args) -> int:
    reports = theorem_suite(args.max_y, args.max_z)
    _emit([r.to_dict() for r in reports], args.out)
    return _verdict_exit(reports)


def _cmd_dual_tau_of_t(args) -> int:
    d = tau_of_t(_fn_from(_load(args.topology)))
    _emit(
        {
            "y": _space_dict(d.y),
            "z": _space_dict(d.z),
            "ground": list(d.ground),
            "opens": list(d.opens.members),
        },
        args.out,
    )
    return 0


def _cmd_dual_t_of_tau(args) -> int:
    y = _space_from(_load(args.y))
    z = _space_from(_load(args.z))
    obj = _load(args.dual)
    for key, sp in (("y", y), ("z", z)):
        given = _field(obj, key, "an object", None)
        if given is not None and _space_from(given).opens != sp.opens:
            return _fail(f"dual file's {key} disagrees with --{key}")
    tau = DualSpace.of(y, z, _field(obj, "opens", "a list of masks"))
    t = t_of_tau(tau, enumerate_continuous(y, z))
    _emit(_fn_dict(t), args.out)
    return 0


def _cmd_search_question(args) -> int:
    probe = question_search(args.id, args.max_y, args.max_z)
    _emit(probe.to_dict(), args.out)
    return _verdict_exit(probe.result)


def _point_bound(text: str) -> int:
    """A --max-* bound: the spaces it ranges over have 1..n points, so n >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"a point bound must be at least 1, got {n}")
    return n


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="topolab", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)

    def leaf(group, name, fn, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    space = groups.add_parser("space").add_subparsers(dest="cmd", required=True)
    p = leaf(space, "validate", _cmd_space_validate)
    p.add_argument("file")
    p = leaf(space, "enum", _cmd_space_enum)
    p.add_argument("--points", type=int, required=True)

    maps = groups.add_parser("maps").add_subparsers(dest="cmd", required=True)
    p = leaf(maps, "enum", _cmd_maps_enum)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)

    topo = groups.add_parser("topo").add_subparsers(dest="cmd", required=True)
    p = leaf(topo, "build", _cmd_topo_build)
    p.add_argument("--kind", choices=_ALL_KINDS, required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z")

    check = groups.add_parser("check").add_subparsers(dest="cmd", required=True)
    p = leaf(check, "admissible", _cmd_check_admissible)
    p.add_argument("--topology", required=True)
    p = leaf(check, "splitting", _cmd_check_splitting)
    p.add_argument("--topology", required=True)
    route = p.add_mutually_exclusive_group()
    route.add_argument("--max-x", type=_point_bound, default=3)
    route.add_argument(
        "--exact", action="store_true", help="decide it: t lies below the pointwise topology"
    )
    p = leaf(check, "compose", _cmd_check_compose)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--kinds", required=True, help="comma triple, e.g. coZ,coZ,coZ")
    p = leaf(check, "theorems", _cmd_check_theorems)
    p.add_argument("--max-y", type=_point_bound, default=3)
    p.add_argument("--max-z", type=_point_bound, default=2)

    dual = groups.add_parser("dual").add_subparsers(dest="cmd", required=True)
    p = leaf(dual, "tau-of-t", _cmd_dual_tau_of_t)
    p.add_argument("--topology", required=True)
    p = leaf(dual, "t-of-tau", _cmd_dual_t_of_tau)
    p.add_argument("--dual", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)

    search = groups.add_parser("search").add_subparsers(dest="cmd", required=True)
    p = leaf(search, "question", _cmd_search_question)
    p.add_argument("--id", required=True)
    p.add_argument("--max-y", type=_point_bound, default=3)
    p.add_argument("--max-z", type=_point_bound, default=2)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader left early: point stdout at devnull, so the flush at
        # exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (TopolabError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
