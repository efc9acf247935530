"""The four workloads: inputs made from the seed, one round of program calls,
and the checks each call's output must pass.

Every call is checked against bench/oracles.py or bench/checks.py, never
against a stored copy of earlier output.  A round is always the same list
of calls, so the share of failed operations does not depend on how many
rounds a run makes.
"""

from __future__ import annotations

import json
import random
from statistics import median
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

GAP_TOLERANCE = 1e-12  # what the statespace module docstring claims for the spectral gap
TV_TOLERANCE = 1e-9


@dataclass
class Call:
    """One program run: switchmix CLI arguments, or a launch.py worker job."""

    key: str
    args: list
    kind: str
    check: Callable = None  # (Outcome) -> Verdict
    out: Path | None = None
    steps: int = 0
    worker: bool = False


@dataclass
class Verdict:
    errors: list = field(default_factory=list)
    extra_ops: int = 0  # further operations this output carries (spectral-gap checks)
    known_failed: list = field(default_factory=list)  # those of them that fail


def _ok_check(outcome):
    return Verdict()


def _json(outcome):
    return json.loads(outcome.stdout.decode("utf-8"))["result"]


def _write(path, rows):
    path.write_text("".join(f"{r}\n" for r in rows), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Degree sequences


def uniform_degrees(rng, n, lo, hi):
    while True:
        d = [rng.randint(lo, hi) for _ in range(n)]
        if sum(d) % 2:
            i = rng.randrange(n)
            d[i] += 1 if d[i] < hi else -1
        if oracles.graphical(d):
            return d


def balanced_pairs(rng, n, lo, hi):
    while True:
        pairs = [[rng.randint(lo, hi), rng.randint(lo, hi)] for _ in range(n)]
        diff = sum(a for a, _ in pairs) - sum(b for _, b in pairs)
        while diff:
            i = rng.randrange(n)
            if diff > 0 and pairs[i][1] < hi:
                pairs[i][1] += 1
                diff -= 1
            elif diff < 0 and pairs[i][0] < hi:
                pairs[i][0] += 1
                diff += 1
        pairs = [tuple(p) for p in pairs]
        if oracles.digraphical(pairs):
            return pairs


def heavy_tail(rng, n, cap, d_min=2, gamma=2.5):
    """Pareto quantiles (exponent gamma) capped at ``cap``, jittered by +-1 and shuffled.

    The multiset is nearly fixed by n, so the cost of a run hardly depends
    on the seed; the seed moves the labels and the jitter.
    """
    base = [min(cap, int(d_min * ((i + 0.5) / n) ** (-1.0 / (gamma - 1.0)))) for i in range(n)]
    while True:
        d = [min(cap, max(1, x + rng.choice((-1, 0, 0, 1)))) for x in base]
        rng.shuffle(d)
        if sum(d) % 2:
            d[d.index(max(d))] -= 1
        if oracles.graphical(d):
            return d


def heavy_tail_pairs(rng, n, cap):
    while True:
        outs = heavy_tail(rng, n, cap)
        ins = heavy_tail(rng, n, cap)
        diff = sum(ins) - sum(outs)
        while diff:
            i = rng.randrange(n)
            if diff > 0 and ins[i] > 1:
                ins[i] -= 1
                diff -= 1
            elif diff < 0 and outs[i] > 1:
                outs[i] -= 1
                diff += 1
        pairs = list(zip(ins, outs))
        if oracles.digraphical(pairs):
            return pairs


# ---------------------------------------------------------------------------


class Workload:
    """``calls``: one round; ``probes``: zero-work runs whose time is the set-up."""

    name = ""
    calls: list
    probes: list
    layer_counts: dict = {}
    alloc_call = None  # run once more under tracemalloc in a traced run

    def details(self, rounds, probe_medians):
        """The workload's own end-to-end figures: {name: (value, unit)}."""
        raise NotImplementedError


def _kind_median(rounds, kind):
    return median([sum(c["wall"] for c in r["calls"] if c["kind"] == kind) for r in rounds])


# ---------------------------------------------------------------------------
# sample


class Sample(Workload):
    """switchmix sample in both modes: step-bound, emit-bound and desk-scale."""

    name = "sample"
    DESK = [2] * 6

    def __init__(self, seed, work):
        rng = random.Random(seed)
        seqs = {
            "step-u": (uniform_degrees(rng, 1000, 2, 5), False),
            "step-d": (balanced_pairs(rng, 600, 1, 4), True),
            "emit-u": (uniform_degrees(rng, 300, 2, 4), False),
            "emit-d": (balanced_pairs(rng, 200, 1, 3), True),
        }
        # key: (steps, thin, count, replicas)
        plan = {
            "step-u": (40000, 2000, 5, 2),
            "step-d": (40000, 2000, 5, 1),
            "emit-u": (2000, 2, 800, 1),
            "emit-d": (2000, 2, 500, 1),
            "desk": (200, 25, 4200, 1),
        }
        self.desk_states = set(oracles.enumerate_graphs(self.DESK))
        self.calls, self.probes = [], []
        for key, (steps, thin, count, replicas) in plan.items():
            if key == "desk":
                degrees, directed, spec = self.DESK, False, ",".join(map(str, self.DESK))
            else:
                degrees, directed = seqs[key]
                rows = [f"{a} {b}" for a, b in degrees] if directed else degrees
                spec = _write(work / f"{key}.txt", rows)
            out = work / f"out-{key}" if key.startswith("emit") else None
            base = ["sample", "--degrees", spec, "--seed", str(rng.randrange(2**31))]
            base += ["--directed"] if directed else []
            base += ["--out", str(out)] if out else []
            chain = ["--steps", str(steps), "--thin", str(thin), "--replicas", str(replicas)]
            check = self._desk_check(count) if key == "desk" else self._state_check(degrees, directed, count, replicas, out)
            self.calls.append(
                Call(key, base + chain + ["--count", str(count)], "sample", check, out, replicas * (steps + thin * count))
            )
            self.probes.append(Call(key, base + chain + ["--count", "0"], "setup", _ok_check, out))

    @staticmethod
    def _state_check(degrees, directed, count, replicas, out):
        def check(outcome):
            res = _json(outcome)
            errors = []
            if out is None:
                groups = res["states"]
                if len(groups) != replicas or any(len(g) != count for g in groups):
                    return Verdict([f"expected {replicas} x {count} states"])
                states = [(len(degrees), s) for g in groups for s in g]
            else:
                names = res["files"]
                if len(names) != replicas * count or not (out / "manifest.json").is_file():
                    return Verdict([f"expected {replicas * count} state files and a manifest"])
                states = [oracles.parse_edge_list((out / name).read_text(encoding="utf-8"), directed) for name in names]
            for n, pairs in states:
                try:
                    oracles.check_degrees(n, [tuple(p) for p in pairs], degrees, directed)
                except ValueError as exc:
                    errors.append(f"emitted state: {exc}")
                    break
            return Verdict(errors)

        return check

    def _desk_check(self, count):
        def check(outcome):
            states = [tuple(tuple(e) for e in s) for s in _json(outcome)["states"][0]]
            if len(states) != count:
                return Verdict([f"expected {count} states"])
            tally = dict.fromkeys(self.desk_states, 0)
            for s in states:
                if s not in tally:
                    return Verdict([f"state {s} is not a realization of {self.DESK}"])
                tally[s] += 1
            z = oracles.chi_square_z(list(tally.values()), count / len(tally))
            # z = 5 is a one-sided p of about 3e-7 for a uniform sampler.
            return Verdict([] if z < 5 else [f"desk-scale counts fail uniformity, chi-square z = {z:.2f}"])

        return check

    def details(self, rounds, probe_medians):
        steps = sum(c.steps for c in self.calls)
        net = median([r["wall"] for r in rounds]) - sum(probe_medians.values())
        return {"chain_steps_per_s": (steps / net, "steps/s")}


# ---------------------------------------------------------------------------
# exact


class Exact(Workload):
    """switchmix analyze and irreducible --directed on desk-scale spaces.

    The analysed spaces are fixed: their spectral-gap checks fail by a known
    fault on every seed, so they may not depend on it.  The seed relabels
    the vertices of the irreducibility inputs.
    """

    name = "exact"
    EPS = 0.01
    # key: (degrees, directed, horizon, worst-start mixing time, gap checked)
    ANALYZE = {
        "path4": ([1, 2, 2, 1], False, 20, True, True),
        "mixed6": ([1, 1, 2, 2, 3, 3], False, 50, True, True),
        "two6": ([2] * 6, False, 50, True, True),
        "three6": ([3] * 6, False, 50, True, True),
        "mixed7": ([1, 1, 1, 2, 2, 2, 3], False, 50, True, True),
        "dir6": ([(1, 1)] * 5 + [(2, 2)], True, 30, False, True),
        "two7": ([2] * 7, False, 100, False, True),
        # eigvalsh on 3507 states costs more than the run, so no gap check here
        "two8": ([2] * 8, False, 1, False, False),
    }
    IRREDUCIBLE = {
        "irr-a": [(1, 1)] * 5 + [(2, 2)],
        "irr-b": [(2, 1), (1, 2), (1, 1), (1, 1), (1, 1), (1, 1)],
        "irr-c": [(1, 1)] * 3,
    }
    WITNESS_STATES = 20

    def __init__(self, seed, work):
        rng = random.Random(seed)
        self.calls = []
        analysed = []
        for key, (degrees, directed, horizon, mixing, gap) in self.ANALYZE.items():
            space = oracles.Space(degrees, directed)
            analysed.append(space)
            args = ["analyze", "--degrees", _spec(degrees, directed), "--horizon", str(horizon)]
            args += ["--eps", str(self.EPS), "--mixing-cap", str(10**6 if mixing else 0)]
            args += ["--directed"] if directed else []
            kind = "mixing" if mixing else "tv"
            self.calls.append(Call(key, args, kind, self._analyze_check(key, space, horizon, mixing, gap)))
        for key, pairs in self.IRREDUCIBLE.items():
            pairs = list(pairs)
            rng.shuffle(pairs)
            space = oracles.Space(pairs, True)
            args = ["irreducible", "--directed", "--degrees", _spec(pairs, True)]
            args += ["--witness-states", str(self.WITNESS_STATES)]
            self.calls.append(Call(key, args, "irreducible", self._irreducible_check(pairs, space)))
        self.alloc_call = next(c for c in self.calls if c.key == "two8")
        self.layer_counts = {
            "statespace.states": sum(s.size for s in analysed),
            "statespace.nnz": sum(s.nnz for s in analysed),
            "statespace.dense_cells": sum(s.size**2 for s in analysed),
        }
        self.probes = [
            Call(f"{c.key}-setup", _with(c.args, {"--horizon": "0", "--mixing-cap": "0"}), "setup", _ok_check)
            for c in self.calls
            if c.key in ("two7", "dir6")
        ]

    def _analyze_check(self, key, space, horizon, mixing, gap):
        N = space.size

        def check(outcome):
            res = _json(outcome)
            errors = []
            if res["states"] != N:
                return Verdict([f"{res['states']} states, brute force finds {N}"])
            for flag in ("symmetric", "rows_sum_to_one", "uniform_stationary"):
                if res[flag] is not True:
                    errors.append(f"{flag} is {res[flag]}")
            hold = min(1 - Fraction(len(nb), space.denom) for nb in space.neighbours)
            if Fraction(res["min_diagonal"]) != hold:
                errors.append(f"min_diagonal {res['min_diagonal']}, expected {hold}")
            curve = res["tv_curve"]
            final = Fraction(res["tv_final_exact"])
            if len(curve) != horizon + 1 or curve[0] != float(Fraction(N - 1, N)):
                errors.append("TV curve does not start at 1 - 1/|states| or has the wrong length")
            if any(b > a for a, b in zip(curve, curve[1:])):
                errors.append("TV curve increases")
            if float(final) != curve[-1]:
                errors.append("exact final TV disagrees with the curve")
            if key == "path4":
                if final != Fraction(1, 2 * 3**horizon) or any(
                    v != float(Fraction(1, 2 * 3**t)) for t, v in enumerate(curve)
                ):
                    errors.append("TV(t) on [1,2,2,1] is not 1/2 * 3^-t")
                if res["exact_mixing_time"] != 4:
                    errors.append(f"mixing time {res['exact_mixing_time']} on [1,2,2,1], expected 4")
            if N <= 500:
                starts = None
                for t in (1, 2, 3, 5, 10, 20, 50, 100):
                    if t > horizon:
                        break
                    near = {i for i, v in enumerate(space.tv_from_all_starts(t)) if abs(v - curve[t]) <= TV_TOLERANCE}
                    starts = near if starts is None else starts & near
                if starts == set():
                    errors.append("TV curve matches the curve from no start state")
            elif final not in set(space.tv_one_step_exact()):
                errors.append("exact TV(1) matches no start state")
            if mixing:
                t_mix = res["exact_mixing_time"]
                lower, upper = oracles.relaxation_sandwich(space.spectral_gap(), self.EPS, N)
                if not isinstance(t_mix, int) or not lower <= t_mix <= upper:
                    errors.append(f"mixing time {t_mix} outside the relaxation sandwich [{lower:.3f}, {upper:.3f}]")
            elif res["exact_mixing_time"] is not None:
                errors.append("mixing time computed above --mixing-cap")
            verdict = Verdict(errors)
            if gap:
                verdict.extra_ops = 1
                err = abs(res["spectral_gap"] - space.spectral_gap())
                if err > GAP_TOLERANCE:
                    verdict.known_failed.append(f"{key}: spectral gap off by {err:.2e} (> {GAP_TOLERANCE})")
            return verdict

        return check

    def _irreducible_check(self, pairs, space):
        n = len(pairs)

        def check(outcome):
            res = _json(outcome)
            sizes = space.components()
            errors = []
            if res["state_count"] != space.size or res["component_sizes"] != sizes:
                errors.append(f"components {res['component_sizes']} of {res['state_count']}, expected {sizes}")
            if res["irreducible"] != (len(sizes) == 1) or res["component_count"] != len(sizes):
                errors.append("irreducible flag or component count disagrees with the components")
            first = space.states[: self.WITNESS_STATES]
            want = {(s, tri) for s in first for tri in oracles.induced_directed_triangles(s, n)}
            got = set()
            for item in res["witness_samples"]:
                state = tuple(tuple(a) for a in item["state"])
                tri = tuple(item["triangle"])
                got.add((state, tri))
                w = item["witness"]
                if w is None:
                    continue
                present = set(state)
                ok = (
                    (w["kind"] == "neighbour" and w["value"] not in tri)
                    or (w["kind"] == "arc" and w["condition"] == "i" and tuple(w["value"]) in present)
                    or (w["kind"] == "arc" and w["condition"] == "ii" and tuple(w["value"]) not in present)
                )
                if not ok:
                    errors.append(f"witness {w} does not hold in its state")
            if got != want:
                errors.append(f"{len(got)} induced 3-cycles reported, brute force finds {len(want)}")
            return Verdict(errors)

        return check

    def details(self, rounds, probe_medians):
        return {
            "tv_curve_s": (_kind_median(rounds, "tv"), "s"),
            "mixing_time_s": (_kind_median(rounds, "mixing"), "s"),
        }


def _spec(degrees, directed):
    return ",".join(f"{a}:{b}" for a, b in degrees) if directed else ",".join(map(str, degrees))


def _with(args, replace):
    out = list(args)
    for flag, value in replace.items():
        out[out.index(flag) + 1] = value
    return out


# ---------------------------------------------------------------------------
# encode-repair


class EncodeRepair(Workload):
    """The encoding pipeline in-process: generate, repair, count, verify.

    Sequences are shaped like acceptance criteria 8/9: undirected with
    d_max <= 3, directed with r_max <= 4; every defect profile a valid
    layout allows is requested once per sequence.  make_test_encoding's cost
    per case is heavy-tailed (its restarts take 1 to 400 ms), so a corpus
    drawn from the seed moves a round by +-25%: the sequences and generator
    seeds are a fixed corpus, and the seed draws the choice-count anchors
    and the order of the cases.
    """

    name = "encode-repair"
    CORPUS_SEED = 1701_07101
    UNDIRECTED_PROFILES = [(p, q) for p in range(3) for q in range(4) if p + q <= 4]
    DIRECTED_PROFILES = [(p, q) for p in range(4) for q in range(4) if p + q <= 5]

    def __init__(self, seed, work):
        corpus = random.Random(self.CORPUS_SEED)
        sequences = [
            {"directed": False, "degrees": [3] * 28},
            {"directed": False, "degrees": [3] * 34},
            {"directed": False, "degrees": self._theorem1(corpus, 44)},
            {"directed": False, "degrees": self._theorem1(corpus, 60)},
            {"directed": True, "degrees": [(4, 4)] * 64},
            {"directed": True, "degrees": [(4, 4)] * 66},
            {"directed": True, "degrees": self._theorem2(corpus, 110)},
            {"directed": True, "degrees": self._theorem2(corpus, 130)},
        ]
        rng = random.Random(seed)
        cases = []
        for idx, seq in enumerate(sequences):
            for p, q in self.DIRECTED_PROFILES if seq["directed"] else self.UNDIRECTED_PROFILES:
                cases.append([idx, p, q, corpus.randrange(2**31), rng.randrange(2**31)])
        rng.shuffle(cases)
        self.cases = len(cases)
        job = work / "encode-job.json"
        job.write_text(json.dumps({"sequences": sequences, "cases": cases}), encoding="utf-8")
        empty = work / "encode-setup.json"
        empty.write_text(json.dumps({"sequences": sequences, "cases": []}), encoding="utf-8")
        self.result = work / "encode-result.json"
        self.calls = [
            Call("encode", ["encode", str(job), str(self.result)], "encode", self._check, self.result, worker=True)
        ]
        self.probes = [
            Call("encode-setup", ["encode", str(empty), str(self.result)], "setup", _ok_check, self.result, worker=True)
        ]

    @staticmethod
    def _theorem1(rng, n):
        """d in {1,2,3}, d_max = 3, 9 * d_max^2 <= M."""
        while True:
            d = [rng.choice((1, 2, 3)) for _ in range(n)]
            d[0] = 3
            if sum(d) % 2:
                d[1] = 2 if d[1] != 2 else 1
            if sum(d) >= 81 and oracles.graphical(d):
                return d

    @staticmethod
    def _theorem2(rng, n):
        """Semi-degrees in 1..4 with r_max = 4 and 16 * r_max^2 <= m."""
        while True:
            pairs = balanced_pairs(rng, n, 1, 4)
            if max(max(p) for p in pairs) == 4 and sum(b for _, b in pairs) >= 256:
                return [list(p) for p in pairs]

    def _check(self, outcome):
        res = json.loads(self.result.read_text(encoding="utf-8"))
        outcome.worker_result = res
        errors = list(res["errors"])
        if res["cases"] != self.cases:
            errors.append(f"{res['cases']} cases done of {self.cases}")
        return Verdict(errors)

    def details(self, rounds, probe_medians):
        rates = [self.cases / sum(c["worker_result"]["timings"].values()) for r in rounds for c in r["calls"]]
        return {"encodings_per_s": (median(rates), "1/s")}


# ---------------------------------------------------------------------------
# degrees


class Degrees(Workload):
    """switchmix validate and realize --out on large heavy-tailed sequences."""

    name = "degrees"

    def __init__(self, seed, work):
        rng = random.Random(seed)
        degrees = heavy_tail(rng, 2000, cap=120)
        pairs = heavy_tail_pairs(rng, 1200, cap=80)
        u_file = _write(work / "heavy-u.txt", degrees)
        d_file = _write(work / "heavy-d.txt", [f"{a} {b}" for a, b in pairs])
        u_out, d_out = work / "realized-u.txt", work / "realized-d.txt"
        stats = oracles.sequence_stats(degrees)
        self.calls = [
            Call("validate-u", ["validate", "--degrees", u_file], "validate", self._validate_check(stats, None)),
            Call("realize-u", ["realize", "--degrees", u_file, "--out", str(u_out)], "realize",
                 self._realize_check(degrees, False, u_out), u_out),
            Call("validate-d", ["validate", "--directed", "--degrees", d_file], "validate",
                 self._validate_check(None, pairs)),
            Call("realize-d", ["realize", "--directed", "--degrees", d_file, "--out", str(d_out)], "realize",
                 self._realize_check(pairs, True, d_out), d_out),
        ]
        self.probes = [Call("startup", ["validate", "--degrees", "1,1"], "setup", _ok_check)]

    @staticmethod
    def _validate_check(stats, pairs):
        def check(outcome):
            res = _json(outcome)
            if pairs is not None:
                semis = [x for p in pairs for x in p]
                want = {"digraphical": True, "m": sum(b for _, b in pairs), "r_min": min(semis), "r_max": max(semis)}
            else:
                want = {"graphical": True, **stats}
            bad = {k: res.get(k) for k, v in want.items() if res.get(k) != v}
            return Verdict([f"validate reports {bad}, expected {want}"] if bad else [])

        return check

    @staticmethod
    def _realize_check(degrees, directed, out):
        def check(outcome):
            res = _json(outcome)
            try:
                n, pairs = oracles.parse_edge_list(out.read_text(encoding="utf-8"), directed)
                oracles.check_degrees(n, pairs, degrees, directed)
            except ValueError as exc:
                return Verdict([f"realized file: {exc}"])
            listed = [tuple(e) for e in res["arcs" if directed else "edges"]]
            return Verdict([] if listed == pairs else ["printed edges differ from the written file"])

        return check

    def details(self, rounds, probe_medians):
        return {
            "validate_s": (_kind_median(rounds, "validate"), "s"),
            "realize_s": (_kind_median(rounds, "realize"), "s"),
        }


WORKLOADS = {w.name: w for w in (Sample, Exact, EncodeRepair, Degrees)}
