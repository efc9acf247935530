"""Benchmark for switchmix: four workloads, end to end and per layer.

    python3 bench/run.py [--workload sample|exact|encode-repair|degrees|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs the program in child processes, from the root of a
checkout whose ``src/`` holds switchmix.  A run first repeats the
workload's zero-work set-up calls, then runs whole rounds of the same calls
until ``--seconds`` have passed, checking every output against the
benchmark's own oracles.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` interleaves traced rounds with untraced ones and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; a fuller record goes to
bench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_REPEATS = 5
CALL_LIMIT_S = 150  # a program call running longer is killed and counts as failed
ROUND_BUDGET_S = 120  # no round starts that would likely end past this point of a run

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("cli.files_written", "count"),
    ("degseq.is_graphical_s", "s"),
    ("degseq.is_digraphical_s", "s"),
    ("degseq.self_s", "s"),
    ("construct.realize_s", "s"),
    ("construct.realize_directed_s", "s"),
    ("construct.edges_per_s", "edges/s"),
    ("construct.self_s", "s"),
    ("graph.write_edge_list_s", "s"),
    ("graph.canonical_s", "s"),
    ("graph.self_s", "s"),
    ("chain.undirected_steps_per_s", "steps/s"),
    ("chain.directed_steps_per_s", "steps/s"),
    ("chain.sample_s", "s"),
    ("chain.accept_ratio", "ratio"),
    ("chain.self_s", "s"),
    ("statespace.enum_s", "s"),
    ("statespace.build_s", "s"),
    ("statespace.states", "count"),
    ("statespace.nnz", "count"),
    ("statespace.dense_cells", "count"),
    ("statespace.tv_curve_s", "s"),
    ("statespace.mixing_time_s", "s"),
    ("statespace.spectral_gap_s", "s"),
    ("statespace.alloc_peak_mb", "MB"),
    ("statespace.self_s", "s"),
    ("irreducibility.connectivity_s", "s"),
    ("irreducibility.witness_s", "s"),
    ("irreducibility.triangles", "count"),
    ("irreducibility.self_s", "s"),
    ("encoding.make_test_encoding_s", "s"),
    ("encoding.repair_s", "s"),
    ("encoding.choice_count_s", "s"),
    ("encoding.identities_s", "s"),
    ("encoding.switches", "count"),
    ("encoding.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


@dataclass
class Outcome:
    rc: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: str
    bytes_out: int
    files_written: int
    trace: str | None = None
    worker_result: dict | None = None
    spawn_ns: int = 0


def _clear(path):
    if path is None:
        return
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _out_size(path):
    if path is None or not path.exists():
        return 0, 0
    files = [path] if path.is_file() else [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def run_program(call, work, mode, tag, trace_dir):
    """Run one call in a child process; time it and read its peak RSS."""
    _clear(call.out)
    if call.worker:
        argv = [sys.executable, str(BENCH / "launch.py"), *call.args]
    elif mode == "plain":
        argv = [sys.executable, "-m", "switchmix.cli", *call.args]
    else:
        argv = [sys.executable, str(BENCH / "launch.py"), "cli", *call.args]
    env = {k: v for k, v in os.environ.items() if not k.startswith("BENCH_")}
    env["PYTHONPATH"] = str(SRC)
    prefix = None
    if mode != "plain":
        prefix = trace_dir / f"{tag}-{call.key}"
        env["BENCH_TRACE"] = str(prefix)
        if mode == "alloc":
            env["BENCH_ALLOC"] = "1"
    stdout_path, stderr_path = work / "stdout", work / "stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn_ns = time.perf_counter_ns()
        env["BENCH_SPAWN_NS"] = str(spawn_ns)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CALL_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = stdout_path.read_bytes()
    size, files = _out_size(call.out)
    return Outcome(
        rc=proc.returncode,
        wall=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        bytes_out=len(stdout) + size,
        files_written=files,
        trace=str(prefix) if prefix else None,
        spawn_ns=spawn_ns,
    )


def _signature(call, outcome):
    """Digest of everything a call produced, less the manifest timestamp."""
    try:
        doc = json.loads(outcome.stdout)
        doc.get("manifest", {}).pop("timestamp_utc", None)
    except ValueError:
        doc = outcome.stdout.decode("utf-8", errors="replace")
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    if call.out is not None and call.out.exists():
        files = [call.out] if call.out.is_file() else sorted(p for p in call.out.rglob("*") if p.is_file())
        for p in files:
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def evaluate(call, outcome, memo):
    """Check one output; an output identical to an already checked one reuses its verdict."""
    if outcome.rc != 0:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return workloads.Verdict([f"{call.key}: exit code {outcome.rc}: {tail[0]}"])
    if call.worker:
        return call.check(outcome)
    sig = _signature(call, outcome)
    if memo.get(call.key, (None,))[0] == sig:
        return memo[call.key][1]
    try:
        verdict = call.check(outcome)
    except (ValueError, KeyError, TypeError) as exc:
        verdict = workloads.Verdict([f"{call.key}: unreadable output: {exc!r}"])
    verdict.errors = [e if e.startswith(call.key) else f"{call.key}: {e}" for e in verdict.errors]
    memo.setdefault(call.key, (sig, verdict))
    return verdict


def run_round(wl, mode, tag, memo, work, trace_dir):
    calls = []
    for call in wl.calls:
        outcome = run_program(call, work, mode, tag, trace_dir)
        verdict = evaluate(call, outcome, memo)
        if outcome.worker_result:
            # the worker checks its own results after the program work is done
            outcome.wall = (outcome.worker_result["done_ns"] - outcome.spawn_ns) / 1e9
        calls.append(
            {
                "key": call.key,
                "kind": call.kind,
                "wall": outcome.wall,
                "rss_mb": outcome.rss_mb,
                "bytes_out": outcome.bytes_out,
                "files_written": outcome.files_written,
                "worker": call.worker,
                "worker_result": outcome.worker_result,
                "trace": outcome.trace,
                "errors": verdict.errors,
                "known_failed": verdict.known_failed,
                "attempted": 1 + verdict.extra_ops,
            }
        )
    return {
        "mode": mode,
        "wall": sum(c["wall"] for c in calls),
        "rss_mb": max(c["rss_mb"] for c in calls),
        "calls": calls,
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(bool(c["errors"]) + len(c["known_failed"]) for c in calls),
    }


def layer_metrics(round_, wl):
    s = tracing.summarize([c["trace"] for c in round_["calls"] if c["trace"]])
    total, calls, own, counters = s["total"], s["calls"], s["self"], s["counters"]

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    steps_u = calls.get("chain.step_undirected", 0)
    steps_d = calls.get("chain.step_directed", 0)
    cli_calls = [c for c in round_["calls"] if not c["worker"]]
    m = {
        "cli.startup_s": s["startup_s"],
        "cli.self_s": own.get("cli", 0.0),
        "cli.bytes_out": sum(c["bytes_out"] for c in cli_calls),
        "cli.files_written": sum(c["files_written"] for c in cli_calls),
        "degseq.is_graphical_s": t("degseq.is_graphical"),
        "degseq.is_digraphical_s": t("degseq.is_digraphical"),
        "construct.realize_s": t("construct.realize"),
        "construct.realize_directed_s": t("construct.realize_directed"),
        "construct.edges_per_s": rate(counters.get("construct.edges", 0), t("construct.realize", "construct.realize_directed")),
        "graph.write_edge_list_s": t("graph.write_edge_list"),
        "graph.canonical_s": t("graph.canonical"),
        "chain.undirected_steps_per_s": rate(steps_u, t("chain.step_undirected")),
        "chain.directed_steps_per_s": rate(steps_d, t("chain.step_directed")),
        "chain.sample_s": t("chain.sample"),
        "chain.accept_ratio": rate(counters.get("chain.accepted", 0), steps_u + steps_d),
        "statespace.enum_s": t("statespace.enum_states"),
        "statespace.build_s": t("statespace.StateSpaceAnalysis"),
        "statespace.tv_curve_s": t("statespace.tv_curve"),
        "statespace.mixing_time_s": t("statespace.exact_mixing_time"),
        "statespace.spectral_gap_s": t("statespace.spectral_gap"),
        "irreducibility.connectivity_s": t("irreducibility.switch_connectivity"),
        "irreducibility.witness_s": t("irreducibility.find_useful", "irreducibility.induced_triangles"),
        "irreducibility.triangles": counters.get("irreducibility.triangles", 0),
        "encoding.make_test_encoding_s": t("encoding.make_test_encoding"),
        "encoding.repair_s": t("encoding.repair"),
        "encoding.choice_count_s": t("encoding.choice_count_and_bound"),
        "encoding.identities_s": t("encoding.verify_counting_identities"),
        "encoding.switches": counters.get("encoding.switches", 0),
    }
    for module in tracing.MODULES[1:]:
        m[f"{module}.self_s"] = own.get(module, 0.0)
    for name in ("statespace.states", "statespace.nnz", "statespace.dense_cells"):
        m[name] = wl.layer_counts.get(name, 0)
    return m


def measure(wl, seconds, trace, work, trace_dir):
    """Set-up probes, then whole rounds until ``seconds`` have passed."""
    errors = []
    run_program(wl.probes[0], work, "plain", "warmup", trace_dir)  # byte-compiles the sources
    start = time.perf_counter()
    probe_times = {}
    for _ in range(PROBE_REPEATS):
        for call in wl.probes:
            outcome = run_program(call, work, "plain", "probe", trace_dir)
            if outcome.rc != 0:
                errors.append(f"set-up call {call.key} exited with {outcome.rc}")
            probe_times.setdefault(call.key, []).append(outcome.wall)
    memo = {}
    plain, traced = [], []
    while True:
        began = time.perf_counter()
        plain.append(run_round(wl, "plain", f"p{len(plain)}", memo, work, trace_dir))
        if trace:
            traced.append(run_round(wl, "trace", f"t{len(traced)}", memo, work, trace_dir))
        now = time.perf_counter()
        if now - start >= seconds or (now - start) + (now - began) > ROUND_BUDGET_S:
            break
    alloc_mb = 0.0
    if trace and wl.alloc_call is not None:
        # tracemalloc slows allocation, so the allocation peak comes from one
        # more run of the largest analyze, without spans and outside the rounds
        outcome = run_program(wl.alloc_call, work, "alloc", "alloc", trace_dir)
        if outcome.rc != 0:
            errors.append(f"allocation run of {wl.alloc_call.key} exited with {outcome.rc}")
        else:
            header = json.loads(Path(outcome.trace).with_suffix(".json").read_text(encoding="utf-8"))
            alloc_mb = header["alloc_peak_b"] / 2**20
    return {
        "probe_times": probe_times,
        "probe_medians": {k: median(v) for k, v in probe_times.items()},
        "plain": plain,
        "traced": traced,
        "alloc_mb": alloc_mb,
        "setup_errors": errors,
        "measured_s": time.perf_counter() - start,
    }


def machine_info():
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            info["git_sha"] = sha.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def run_workload(name, seed, seconds, trace):
    results = BENCH / "results"
    work = BENCH / "work" / f"{name}-{seed}-{os.getpid()}"
    trace_dir = results / "spans" / f"{name}-seed{seed}"
    _clear(work)
    _clear(trace_dir)
    work.mkdir(parents=True)
    trace_dir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](seed, work)
        data = measure(wl, seconds, trace, work, trace_dir)
        rounds = data["plain"] + data["traced"]
        errors = data["setup_errors"] + [e for r in rounds for c in r["calls"] for e in c["errors"]]
        known = sorted({k for r in rounds for c in r["calls"] for k in c["known_failed"]})
        report = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "correct": not errors,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "errors": errors[:50],
            "known_failures": known,
            "rounds": len(data["plain"]),
            "measured_s": data["measured_s"],
            "probe_times": data["probe_times"],
            "round_walls": [r["wall"] for r in data["plain"]],
        }
        if not trace:
            plain = data["plain"]
            metrics = {
                "setup_s": sum(data["probe_medians"].values()),
                "wall_s": median([r["wall"] for r in plain]),
                "peak_rss_mb": median([r["rss_mb"] for r in plain]),
            }
            report["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
            report["workload_metrics"] = {
                k: {"value": v, "unit": u} for k, (v, u) in wl.details(plain, data["probe_medians"]).items()
            }
        else:
            per_round = [layer_metrics(r, wl) for r in data["traced"]]
            metrics = {k: median([m[k] for m in per_round]) for k in per_round[0]}
            plain_wall = median([r["wall"] for r in data["plain"]])
            metrics["trace.overhead_pct"] = 100.0 * (median([r["wall"] for r in data["traced"]]) / plain_wall - 1.0)
            metrics["statespace.alloc_peak_mb"] = data["alloc_mb"]
            report["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER}
            report["traced_walls"] = [r["wall"] for r in data["traced"]]
            report["spans"] = str(trace_dir.relative_to(ROOT))
        report["machine"] = machine_info()
        results.mkdir(exist_ok=True)
        (results / f"BENCH_{name}_seed{seed}_trace{trace}.json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        return report
    finally:
        _clear(work)
        if not trace:
            _clear(trace_dir)


def print_report(report):
    print(
        f"{report['workload']}: attempted {report['attempted']}, failed {report['failed']}, "
        f"rounds {report['rounds']}, correct {report['correct']}"
    )
    for name, m in {**report["metrics"], **report.get("workload_metrics", {})}.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for msg in report["known_failures"]:
        print(f"  known failure: {msg}")
    for msg in report["errors"][:10]:
        print(f"  ERROR: {msg}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "switchmix" / "cli.py").is_file():
        print(f"switchmix sources not found under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in {**r["metrics"], **r.get("workload_metrics", {})}.items()}
    summary = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
