"""Command-line front door.

Subcommands: validate, realize, sample, analyze, irreducible, bound,
repair-encoding.  Every run prints a JSON document containing a manifest
(subcommand, flags, seed, input digests, artifact version, timestamp) and a
result block; outputs are byte-identical across reruns except for the
manifest timestamp.

Exit codes: 0 success; 1 usage error; 2 validation failure (non-graphical,
non-digraphical, frozen chain); 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import flow_components, mixing_bound
from .chain import (
    VARIANT_ALL_PAIRS,
    VARIANT_EXACT,
    ChainRun,
    FrozenChainError,
    derive_seed,
    sample,
)
from .construct import realize, realize_directed
from .degseq import NotRealizableError, load_degrees
from .encoding import RepairStuckError, load_encoding, repair
from .encoding import validate as validate_encoding
from .graph import Digraph, read_digraph, read_graph, write_edge_list
from .irreducibility import find_useful, induced_triangles, switch_connectivity
from .statespace import DEFAULT_CAP, CapExceededError, NoMixingError, analyze

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class ValidationFailure(Exception):
    """Input that fails a semantic check: maps to exit code 2."""

    def __init__(self, reason, payload=None):
        super().__init__(reason)
        self.reason = reason
        self.payload = payload or {}


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, extra=None) -> dict:
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    digests = {}
    for key in ("degrees", "encoding", "sidecar", "z"):
        val = getattr(args, key, None)
        if val and os.path.exists(val):
            digests[val] = _digest(val)
    man = {
        "artifact": "switchmix",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.subcommand,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "input_digests": digests,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        man.update(extra)
    return man


def _emit(args, document) -> None:
    text = json.dumps(document, indent=2, sort_keys=True, default=str) + "\n"
    out = getattr(args, "out", None)
    if out and not getattr(args, "_out_handled", False):
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _load_seq(args):
    return load_degrees(args.degrees, directed=args.directed)


def _cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("SWITCHMIX_CAP")
    if env:
        return int(env)
    return DEFAULT_CAP


# -- subcommand bodies -------------------------------------------------------


def _cmd_validate(args):
    seq = _load_seq(args)
    if args.directed:
        if seq.sum_in != seq.sum_out:
            raise ValidationFailure(
                "not digraphical",
                {
                    "directed": True,
                    "digraphical": False,
                    "detail": f"in-degree sum {seq.sum_in} differs from out-degree sum {seq.sum_out}",
                },
            )
        flags = seq.classify()
        result = {"directed": True, **flags, "m": seq.m, "r_min": seq.r_min, "r_max": seq.r_max}
        if not flags["digraphical"]:
            raise ValidationFailure("not digraphical", result)
    else:
        flags = seq.classify()
        result = {
            "directed": False,
            **flags,
            "M": seq.M,
            "M2": seq.M2,
            "a": seq.a,
            "d_min": seq.d_min,
            "d_max": seq.d_max,
        }
        if not flags["graphical"]:
            raise ValidationFailure("not graphical", result)
    return result


def _cmd_realize(args):
    seq = _load_seq(args)
    g = realize_directed(seq) if args.directed else realize(seq)
    if args.out:
        write_edge_list(g, args.out)
        args._out_handled = True
    return {
        "n": g.n,
        "edges" if not args.directed else "arcs": [list(e) for e in g.edges],
        "written_to": args.out,
    }


def _cmd_sample(args):
    seq = _load_seq(args)
    start = realize_directed(seq) if args.directed else realize(seq)
    run = ChainRun(
        start=start,
        steps=args.steps,
        seed=args.seed,
        variant=args.variant,
        thinning=args.thin,
    )
    replica_states = [sample(run, args.count, stream=r) for r in range(args.replicas)]
    result = {
        "replicas": args.replicas,
        "count": args.count,
        "steps": args.steps,
        "thin": args.thin,
        "variant": args.variant,
        "sub_seeds": [derive_seed(args.seed, r) for r in range(args.replicas)],
        "files": [],
    }
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        args._out_handled = True
        for r, states in enumerate(replica_states):
            for i, state in enumerate(states):
                name = f"sample_r{r:02d}_{i:05d}.txt"
                write_edge_list(type(start)(start.n, state), outdir / name)
                result["files"].append(name)
    else:
        result["states"] = [
            [[list(e) for e in state] for state in states]
            for states in replica_states
        ]
    return result


def _cmd_analyze(args):
    seq = _load_seq(args)
    an = analyze(seq, variant=args.variant, cap=_cap(args))
    horizon = args.horizon
    curve = an.tv_curve(horizon)
    eps = Fraction(str(args.eps))
    mixing = None
    if an.irreducible and len(an.states) <= args.mixing_cap:
        try:
            mixing = an.exact_mixing_time(eps)
        except NoMixingError:  # a periodic chain never gets within eps
            pass
    return {
        "states": len(an.states),
        "nnz": an.nnz,
        "orbits": len(an.start_orbits),
        "irreducible": an.irreducible,
        "symmetric": an.is_symmetric(),
        "rows_sum_to_one": an.rows_sum_to_one(),
        "uniform_stationary": an.uniform_is_stationary(),
        "min_diagonal": str(an.min_diagonal()),
        "laziness_floor": str(an.laziness_floor()),
        "spectral_gap": an.spectral_gap,
        "eps": args.eps,
        "exact_mixing_time": mixing,
        "tv_curve": [float(x) for x in curve],
        "tv_final_exact": str(curve[-1]),
        "horizon": horizon,
    }


def _cmd_irreducible(args):
    seq = _load_seq(args)
    report = switch_connectivity(seq, cap=_cap(args))
    witnesses = []
    if args.directed:
        from .statespace import enum_states

        states = enum_states(seq, cap=_cap(args))
        for state in states[: args.witness_states]:
            dg = Digraph(seq.n, state)
            for tri in induced_triangles(dg):
                w = find_useful(dg, tri)
                witnesses.append(
                    {
                        "state": [list(a) for a in state],
                        "triangle": list(tri),
                        "witness": None
                        if w is None
                        else {"kind": w.kind, "value": w.value, "condition": w.condition},
                    }
                )
    return {**report, "witness_samples": witnesses}


def _nstr(x, digits: int = 25) -> str:
    import mpmath

    return mpmath.nstr(x, digits)


def _cmd_bound(args):
    seq = _load_seq(args)
    rep = mixing_bound(seq, args.eps)
    comps = flow_components(seq)
    return {
        "eps": args.eps,
        "formula": rep.formula,
        "applicability": rep.applicability,
        "poly_part": str(rep.poly_part),
        "log_part": _nstr(rep.log_part),
        "value": _nstr(rep.value),
        "components": {
            "size_bound": str(comps.size_bound),
            "ell_bound": str(comps.ell_bound),
            "one_over_Q": comps.one_over_Q,
            "encoding_ratio_bound": str(comps.encoding_ratio_bound),
            "load_bound": str(comps.load_bound),
            "product_equals_bound": _nstr(comps.product_bound(args.eps))
            == _nstr(rep.value),
        },
    }


def _cmd_repair_encoding(args):
    L = load_encoding(args.encoding, args.sidecar)
    if args.z is not None:
        Z = read_graph(args.z) if L.mode == "undirected" else read_digraph(args.z)
        flags = validate_encoding(L, Z)
    else:
        flags = {"valid": L.is_valid(), "good": L.is_good()}
    p, q = L.defect_counts()
    try:
        res = repair(L)
    except RepairStuckError as exc:
        return {
            "profile": [p, q],
            "flags": flags,
            "repaired": False,
            "stuck_profile": list(exc.profile),
            "switch_log": [[ph, list(t)] for ph, t in exc.log],
        }
    if args.out:
        write_edge_list(res.result, args.out)
        args._out_handled = True
    return {
        "profile": [p, q],
        "flags": flags,
        "repaired": True,
        "switches": len(res.switch_log),
        "switch_log": [[ph, list(t)] for ph, t in res.switch_log],
        "result_edges": [list(e) for e in res.result.edges],
    }


# -- argument wiring ----------------------------------------------------------


def _at_least(low):
    """argparse type: an integer no smaller than ``low`` (else a usage error)."""

    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def _build_parser() -> _Parser:
    parser = _Parser(prog="switchmix", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=False, chain=False, eps=False, cap=False):
        p.add_argument("--degrees", required=True, help="degree file or inline spec")
        p.add_argument("--directed", action="store_true")
        p.add_argument("--out", default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if chain:
            p.add_argument("--steps", type=int, default=0, help="burn-in steps")
            p.add_argument("--thin", type=int, default=1)
            p.add_argument("--count", type=int, default=1)
            p.add_argument("--replicas", type=_at_least(1), default=1)
            p.add_argument(
                "--variant",
                choices=["exact", "all-pairs"],
                default="exact",
            )
        if eps:
            p.add_argument("--eps", type=float, default=0.01)
        if cap:
            p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("validate", help="graphicality and applicability flags")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("realize", help="deterministic greedy realization")
    common(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("sample", help="run switch chains and emit states")
    common(p, seed=True, chain=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("analyze", help="exact transition-matrix diagnostics")
    common(p, eps=True, cap=True)
    p.add_argument("--horizon", type=_at_least(0), default=200)
    p.add_argument(
        "--mixing-cap",
        type=int,
        default=16,
        help="compute worst-start mixing time only up to this many states",
    )
    p.add_argument(
        "--variant", choices=["exact", "all-pairs"], default="exact"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("irreducible", help="switch-graph connectivity report")
    common(p, cap=True)
    p.add_argument("--witness-states", type=_at_least(0), default=5)
    p.set_defaults(func=_cmd_irreducible)

    p = sub.add_parser("bound", help="closed-form mixing-time bounds")
    common(p, eps=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("repair-encoding", help="drive an encoding defect-free")
    p.add_argument("--encoding", required=True, help="dense CSV matrix")
    p.add_argument("--sidecar", default=None, help="JSON sidecar (default CSV+.json)")
    p.add_argument("--z", default=None, help="reference state edge list")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_repair_encoding)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    if hasattr(args, "variant"):
        args.variant = VARIANT_EXACT if args.variant == "exact" else VARIANT_ALL_PAIRS
    try:
        result = args.func(args)  # runs first: it may set args._out_handled
        document = {"manifest": _manifest(args), "result": result}
        if args.subcommand == "sample" and args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "manifest.json").write_text(
                json.dumps(document, indent=2, sort_keys=True, default=str) + "\n",
                encoding="utf-8",
            )
        _emit(args, document)
        return EXIT_OK
    except ValidationFailure as exc:
        document = {
            "manifest": _manifest(args),
            "error": {"reason": exc.reason, **exc.payload},
        }
        _emit(args, document)
        return EXIT_VALIDATION
    except (NotRealizableError, FrozenChainError) as exc:
        document = {"manifest": _manifest(args), "error": {"reason": str(exc)}}
        _emit(args, document)
        return EXIT_VALIDATION
    except CapExceededError as exc:
        document = {"manifest": _manifest(args), "error": {"reason": str(exc)}}
        _emit(args, document)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
