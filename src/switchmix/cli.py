"""Command-line front door.

Subcommands: validate, realize, sample, analyze, irreducible, bound,
repair-encoding.  Every run prints a JSON document containing a manifest
(subcommand, flags, seed, input digests, artifact version, timestamp) and a
result block; outputs are byte-identical across reruns except for the
manifest timestamp.

Exit codes: 0 success; 1 usage error; 2 validation failure (non-graphical,
non-digraphical, frozen chain); 3 enumeration cap (states or search depth) exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .degseq import DEFAULT_CAP, CapExceededError, NotRealizableError, load_degrees

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
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    read = [getattr(args, key, None) for key in ("degrees", "z")]
    if args.subcommand == "repair-encoding":
        from .encoding import _sidecar_path

        read += [args.encoding, _sidecar_path(args.encoding, args.sidecar)]
    digests = {path: _digest(path) for path in read if path and os.path.exists(path)}
    return {
        "artifact": "switchmix",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.subcommand,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "input_digests": digests,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }


def _emit(document, path) -> None:
    """Print ``document`` and, when ``path`` is given, write it there too."""
    text = json.dumps(document, indent=2, sort_keys=True, default=str) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _exact(q) -> str:
    """A Fraction as ``str`` writes it, without the interpreter's cap on the
    digits of an int-to-str conversion (which ``Decimal`` does not apply)."""
    from decimal import Decimal

    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


def _document_path(args):
    """Where --out puts a run's JSON document, result or error: --out itself;
    nowhere for ``realize`` and ``repair-encoding``, whose --out holds only an
    edge list; for ``sample`` the manifest.json in that directory, made when
    missing and cleared of the ``sample_r*_*.txt`` files an earlier run left there."""
    if args.subcommand != "sample" or not args.out:
        return None if args.subcommand in ("realize", "repair-encoding") else args.out
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("sample_r*_*.txt"):
        stale.unlink()
    return out / "manifest.json"


# -- subcommand bodies -------------------------------------------------------
#
# Each returns (result block, path the JSON document is also written to).
# That path is ``_document_path``, or None where the command writes --out
# itself (an edge list).  Each body imports what it runs, so a process loads
# only its subcommand's modules.


def _cmd_validate(args):
    seq = load_degrees(args.degrees, directed=args.directed)
    kind = "digraphical" if seq.directed else "graphical"
    try:
        flags = seq.hypotheses()
    except NotRealizableError as exc:  # unbalanced in/out sums
        raise ValidationFailure(f"not {kind}", {"directed": True, kind: False, "detail": str(exc)}) from None
    if seq.directed:
        degree_ok = flags["r_min_ok"] and flags["r_max_ok"] and flags["density_ok"]
        stats = {"theorem2_degree_ok": degree_ok, "m": seq.m, "r_min": seq.r_min, "r_max": seq.r_max}
    else:
        stats = {"stable": seq.stable, "theorem1_applicable": flags["applicable"],
                 "M": seq.M, "M2": seq.M2, "a": seq.a, "d_min": seq.d_min, "d_max": seq.d_max}
    result = {"directed": seq.directed, kind: flags[kind], **stats}
    if not flags[kind]:
        raise ValidationFailure(f"not {kind}", result)
    return result, args.out


def _cmd_realize(args):
    from .construct import realize, realize_directed
    from .graph import write_edge_list

    seq = load_degrees(args.degrees, directed=args.directed)
    g = realize_directed(seq) if args.directed else realize(seq)
    if args.out:
        write_edge_list(g, args.out)
    return {
        "n": g.n,
        "edges" if not args.directed else "arcs": g.edges,
        "written_to": args.out,
    }, None


def _cmd_sample(args):
    from .chain import FrozenChainError, derive_seed, sample
    from .construct import realize, realize_directed
    from .graph import edge_list_text

    seq = load_degrees(args.degrees, directed=args.directed)
    start = realize_directed(seq) if args.directed else realize(seq)
    try:
        replica_states = [
            sample(start, args.count, steps=args.steps, seed=args.seed,
                   variant=args.variant, thinning=args.thin, stream=r)
            for r in range(args.replicas)
        ]
    except FrozenChainError as exc:
        raise ValidationFailure(str(exc)) from None
    result = {
        "replicas": args.replicas,
        "count": args.count,
        "steps": args.steps,
        "thin": args.thin,
        "variant": args.variant,
        "sub_seeds": [derive_seed(args.seed, r) for r in range(args.replicas)],
        "files": [],
    }
    manifest = _document_path(args)
    if args.out:
        for r, states in enumerate(replica_states):
            for i, state in enumerate(states):
                name = f"sample_r{r:02d}_{i:05d}.txt"
                (manifest.parent / name).write_text(edge_list_text(start.n, state), encoding="utf-8")
                result["files"].append(name)
    else:
        result["states"] = replica_states
    return result, manifest


def _cmd_analyze(args):
    from .statespace import NoMixingError, analyze

    seq = load_degrees(args.degrees, directed=args.directed)
    an = analyze(seq, variant=args.variant, cap=args.cap or DEFAULT_CAP)
    curve = an.tv_curve(args.horizon)
    mixing = None
    if len(an.states) <= args.mixing_cap:
        try:
            mixing = an.exact_mixing_time(args.eps)
        except NoMixingError:  # a reducible or periodic chain never gets within eps
            pass
    return {
        "states": len(an.states),
        "nnz": an.nnz,
        "orbits": len(an.start_orbits),
        "irreducible": an.irreducible,
        "symmetric": an.is_symmetric(),
        "rows_sum_to_one": an.rows_sum_to_one(),
        "uniform_stationary": an.uniform_is_stationary(),
        "min_diagonal": _exact(an.min_diagonal()),
        "laziness_floor": _exact(an.laziness_floor()),
        "spectral_gap": an.spectral_gap,
        "eps": args.eps,
        "exact_mixing_time": mixing,
        "tv_curve": [float(x) for x in curve],
        "tv_final_exact": _exact(curve[-1]),
        "horizon": args.horizon,
    }, args.out


def _cmd_irreducible(args):
    from .graph import Digraph
    from .irreducibility import find_useful, induced_triangles
    from .statespace import analyze

    seq = load_degrees(args.degrees, directed=args.directed)
    an = analyze(seq, cap=args.cap or DEFAULT_CAP)
    witnesses = []
    if args.directed:
        for state in an.states[: args.witness_states]:
            dg = Digraph(seq.n, state)
            for tri in induced_triangles(dg):
                w = find_useful(dg, tri)
                witnesses.append({"state": state, "triangle": tri, "witness": w and w._asdict()})
    return {**an.connectivity, "witness_samples": witnesses}, args.out


def _cmd_bound(args):
    from .bounds import flow_components, nstr

    seq = load_degrees(args.degrees, directed=args.directed)
    comps = flow_components(seq)
    applicability = seq.hypotheses()
    if seq.directed:
        applicability["note"] = "switch-irreducibility is reported by the irreducible command"
    return {
        "eps": args.eps,
        "formula": "theorem-directed" if seq.directed else "theorem-undirected",
        "applicability": applicability,
        "poly_part": _exact(comps.load_bound * comps.ell_bound),
        "log_part": nstr(comps.log_part(args.eps)),
        "value": nstr(comps.product_bound(args.eps)),
        "components": {
            "ell_bound": _exact(comps.ell_bound),
            "one_over_Q": comps.one_over_Q,
            "encoding_ratio_bound": _exact(comps.encoding_ratio_bound),
            "load_bound": _exact(comps.load_bound),
        },
    }, args.out


def _cmd_repair_encoding(args):
    from .encoding import RepairStuckError, load_encoding, repair
    from .graph import read_digraph, read_graph, write_edge_list

    L = load_encoding(args.encoding, args.sidecar)
    flags = {"valid": L.is_valid(), "good": L.is_good()}
    if args.z is not None:
        Z = read_digraph(args.z) if L.directed else read_graph(args.z)
        flags["consistent"] = L.is_consistent_with(Z)
    head = {"profile": L.defect_counts(), "flags": flags}
    try:
        res = repair(L)
    except RepairStuckError as exc:
        return {**head, "repaired": False, "stuck_profile": exc.profile, "switch_log": exc.log}, None
    if args.out:
        write_edge_list(res.result, args.out)
    return {
        **head,
        "repaired": True,
        "switches": len(res.switch_log),
        "switch_log": res.switch_log,
        "result_edges": res.result.edges,
    }, None


# -- argument wiring ----------------------------------------------------------


def _at_least(low):
    """argparse type: an integer no smaller than ``low`` (else a usage error)."""

    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def _open_unit(text):
    """argparse type: a float strictly between 0 and 1 (else a usage error)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="switchmix", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=False, chain=False, variant=False, eps=False, cap=False):
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
        if variant:
            p.add_argument("--variant", choices=["exact", "all-pairs"], default="exact")
        if eps:
            p.add_argument("--eps", type=_open_unit, default=0.01)
        if cap:
            p.add_argument("--cap", type=_at_least(1), default=None)

    p = sub.add_parser("validate", help="graphicality and applicability flags")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("realize", help="deterministic greedy realization")
    common(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("sample", help="run switch chains and emit states")
    common(p, seed=True, chain=True, variant=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("analyze", help="exact transition-matrix diagnostics")
    common(p, variant=True, eps=True, cap=True)
    p.add_argument("--horizon", type=_at_least(0), default=200)
    p.add_argument(
        "--mixing-cap",
        type=_at_least(0),
        default=16,
        help="compute worst-start mixing time only up to this many states",
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
        from .chain import VARIANT_ALL_PAIRS, VARIANT_EXACT

        args.variant = VARIANT_EXACT if args.variant == "exact" else VARIANT_ALL_PAIRS
    try:
        try:
            result, path = args.func(args)
            block, code = "result", EXIT_OK
        except ValidationFailure as exc:
            result, code = {"reason": exc.reason, **exc.payload}, EXIT_VALIDATION
        except NotRealizableError as exc:
            result, code = {"reason": str(exc)}, EXIT_VALIDATION
        except CapExceededError as exc:
            result, code = {"reason": str(exc)}, EXIT_CAP
        if code != EXIT_OK:
            block, path = "error", _document_path(args)
        _emit({"manifest": _manifest(args), block: result}, path)
        return code
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
