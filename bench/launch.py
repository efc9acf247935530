"""Process entry point for the program runs the benchmark traces or drives.

    python3 bench/launch.py cli <switchmix arguments...>
    python3 bench/launch.py encode <job.json> <result.json>

``cli`` runs ``switchmix.cli.main`` under the span recorder (untraced CLI
runs go straight to ``python3 -m switchmix.cli`` instead).  ``encode`` calls
the encoding pipeline in-process on the cases in a job file and checks every
result; it is the encode-repair workload's program run, traced or not.

Environment: BENCH_SPAWN_NS is the parent's perf_counter_ns() at spawn (the
clock is CLOCK_MONOTONIC, shared by all processes), BENCH_TRACE a path
prefix for the span dump (unset: no tracing), BENCH_ALLOC=1 records the
tracemalloc peak of the whole call instead of spans.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _start(module):
    """Import ``module`` and, when asked, install the recorder; return it and the startup time."""
    importlib.import_module(module)
    imported = time.perf_counter_ns()
    spawn = int(os.environ.get("BENCH_SPAWN_NS", imported))
    recorder = None
    if os.environ.get("BENCH_TRACE") and not os.environ.get("BENCH_ALLOC"):
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    if os.environ.get("BENCH_ALLOC"):
        import tracemalloc

        tracemalloc.start()
    return recorder, (imported - spawn) / 1e9


def _finish(recorder, startup_s):
    prefix = os.environ.get("BENCH_TRACE")
    if not prefix:
        return
    meta = {"startup_s": startup_s, "pid": os.getpid()}
    if os.environ.get("BENCH_ALLOC"):
        import tracemalloc

        meta["alloc_peak_b"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if recorder is None:
        import tracing

        recorder = tracing.Recorder()
    recorder.dump(prefix, meta)


def run_cli(argv):
    recorder, startup_s = _start("switchmix.cli")
    import switchmix.cli as cli  # main is wrapped by install() when tracing

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse --help
        code = exc.code or 0
    sys.stdout.flush()
    _finish(recorder, startup_s)
    return code


# ---------------------------------------------------------------------------
# encode-repair


def _anchor_pairs(L, rng):
    """(a1, b1) on a non-zero entry and (a2, b2) on a 1-entry, all distinct."""
    mat, n = L.matrix, L.n
    nonzero = [(u, v) for u in range(n) for v in range(n) if u != v and mat[u][v] != 0]
    a1, b1 = nonzero[rng.randrange(len(nonzero))]
    ones = [(u, v) for u in range(n) for v in range(n) if u != v and mat[u][v] == 1 and len({a1, b1, u, v}) == 4]
    return (a1, b1), ones[rng.randrange(len(ones))]


def run_encode(job_path, result_path):
    recorder, startup_s = _start("switchmix")
    import switchmix as sm

    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    starts = []
    for seq in job["sequences"]:
        if seq["directed"]:
            starts.append(sm.realize_directed(sm.DirectedDegreeSequence(seq["degrees"])))
        else:
            starts.append(sm.realize(sm.DegreeSequence(seq["degrees"])))
    timings = {"make_test_encoding": 0.0, "repair": 0.0, "choice_count": 0.0, "identities": 0.0}
    kept = []
    clock = time.perf_counter
    for seq_idx, p, q, seed, anchor_seed in job["cases"]:
        Z = starts[seq_idx]
        t0 = clock()
        L = sm.make_test_encoding(Z, random.Random(seed), profile=(p, q))
        t1 = clock()
        res = sm.repair(L)
        t2 = clock()
        first, second = _anchor_pairs(L, random.Random(anchor_seed))
        t3 = clock()
        choices = (
            sm.choice_count_and_bound(L, first, "second_pair"),
            sm.choice_count_and_bound(L, first + second, "third_pair"),
        )
        t4 = clock()
        sm.verify_counting_identities(L)
        t5 = clock()
        timings["make_test_encoding"] += t1 - t0
        timings["repair"] += t2 - t1
        timings["choice_count"] += t4 - t3
        timings["identities"] += t5 - t4
        kept.append((seq_idx, (p, q), L, res, first, second, choices))
    _finish(recorder, startup_s)
    done_ns = time.perf_counter_ns()

    # Checks run after the program work, outside any span and outside the
    # wall time the parent reports (it ends at done_ns).
    import checks

    errors, digest, switches = checks.check_encodings(job, starts, kept)
    result = {
        "cases": len(kept),
        "timings": timings,
        "errors": errors,
        "digest": digest,
        "switches": switches,
        "done_ns": done_ns,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(args))
    if mode == "encode":
        sys.exit(run_encode(*args))
    sys.exit(f"unknown mode {mode!r}")
