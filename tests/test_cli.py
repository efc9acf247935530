import json
import os
import pathlib
import random
import subprocess
import sys
from decimal import Decimal

from switchmix import (
    DegreeSequence,
    DirectedDegreeSequence,
    Graph,
    flow_components,
    make_test_encoding,
    realize,
    save_encoding,
    write_edge_list,
)
from switchmix.bounds import nstr
from switchmix.cli import main

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def strip_timestamp(doc):
    doc = json.loads(json.dumps(doc))
    doc["manifest"].pop("timestamp_utc", None)
    return doc


def test_validate_not_graphical(tmp_path, capsys):
    f = tmp_path / "seq.txt"
    f.write_text("3\n3\n1\n1\n")
    code, doc = run_cli(capsys, "validate", "--degrees", str(f))
    assert code == 2
    assert doc["error"]["reason"] == "not graphical"
    assert str(f) in doc["manifest"]["input_digests"]


def test_validate_ok_inline(capsys):
    code, doc = run_cli(capsys, "validate", "--degrees", "2,2,2,2,2,2")
    assert code == 0
    assert doc["result"]["a"] == 9 and doc["result"]["graphical"]


def test_validate_directed(capsys):
    code, doc = run_cli(capsys, "validate", "--degrees", "1:1,1:1,1:1", "--directed")
    assert code == 0 and doc["result"]["digraphical"]
    code, doc = run_cli(capsys, "validate", "--degrees", "1:0,0:0", "--directed")
    assert code == 2
    assert doc["error"]["reason"] == "not digraphical"
    assert "differs" in doc["error"]["detail"]


def test_sample_count_zero(capsys):
    code, doc = run_cli(capsys, "sample", "--degrees", "2,2,1,1", "--count", "0")
    assert code == 0 and doc["result"]["states"] == [[]]


def test_sample_frozen_chain(capsys):
    code, doc = run_cli(capsys, "sample", "--degrees", "2,2,2", "--count", "3")
    assert code == 2 and "no pair" in doc["error"]["reason"]
    # fewer than two edges: frozen in every variant and in directed mode
    for extra in (["--degrees", "1,1"], ["--degrees", "1,1", "--variant", "all-pairs"],
                  ["--directed", "--degrees", "1:0,0:1"]):
        code, doc = run_cli(capsys, "sample", "--count", "3", *extra)
        assert code == 2 and "no pair" in doc["error"]["reason"]


def test_bad_counts_are_usage_errors(capsys):
    for argv in (
        ["analyze", "--degrees", "1,2,2,1", "--horizon", "-1"],
        ["analyze", "--degrees", "1,2,2,1", "--mixing-cap", "-1"],
        ["irreducible", "--directed", "--degrees", "1:1,1:1,1:1", "--witness-states", "-1"],
        ["sample", "--degrees", "2,2,1,1", "--replicas", "0"],
        ["sample", "--degrees", "2,2,1,1", "--replicas", "-1"],
        ["sample", "--degrees", "2,2,1,1", "--count", "-1"],
    ):
        assert run_cli(capsys, *argv) == (1, None), argv


def test_eps_outside_the_open_unit_interval_is_a_usage_error(capsys):
    # a 70-state space skips the mixing time under the default --mixing-cap,
    # so eps is checked by the parser, not by the computation that reads it
    for command, degrees in (("analyze", "2,2,2,2,2,2"), ("analyze", "1,2,2,1"),
                             ("bound", "3,3,3,3")):
        for eps in ("5", "1", "0", "-0.5", "nan", "inf", "tiny"):
            assert main([command, "--degrees", degrees, "--eps", eps]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage error: argument --eps"), (command, eps, err)
        assert run_cli(capsys, command, "--degrees", degrees, "--eps", "0.5")[0] == 0


def test_sample_determinism_and_files(tmp_path, capsys):
    args = [
        "sample", "--degrees", "2,2,2,2,2,2", "--count", "4", "--steps", "10",
        "--seed", "7", "--replicas", "2",
    ]
    code1, doc1 = run_cli(capsys, *args)
    code2, doc2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert strip_timestamp(doc1) == strip_timestamp(doc2)
    assert len(doc1["result"]["states"]) == 2
    assert doc1["result"]["states"][0] != doc1["result"]["states"][1]

    outdir = tmp_path / "runs"
    code, doc = run_cli(capsys, *args, "--out", str(outdir))
    assert code == 0
    assert (outdir / "manifest.json").exists()
    assert sorted(p.name for p in outdir.glob("sample_*.txt")) == sorted(
        doc["result"]["files"]
    )
    # each file is what write_edge_list writes for the store of its state
    for r, states in enumerate(doc1["result"]["states"]):
        for i, state in enumerate(states):
            write_edge_list(Graph(6, state), tmp_path / "ref.txt")
            emitted = outdir / f"sample_r{r:02d}_{i:05d}.txt"
            assert emitted.read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_analyze_report(capsys):
    code, doc = run_cli(
        capsys, "analyze", "--degrees", "1,2,2,1", "--eps", "0.01", "--horizon", "8"
    )
    assert code == 0
    res = doc["result"]
    assert res["states"] == 2
    assert res["exact_mixing_time"] == 4
    assert res["symmetric"] and res["uniform_stationary"]
    assert len(res["tv_curve"]) == 9
    assert res["tv_curve"][0] == 0.5


def test_analyze_reports_sizes(capsys):
    code, doc = run_cli(capsys, "analyze", "--degrees", "2,2,2,2,2,2", "--horizon", "3")
    assert code == 0
    res = doc["result"]
    assert res["states"] == 70 and res["nnz"] == 970 and res["orbits"] == 2
    assert res["irreducible"] is True


def test_analyze_reducible_space_has_null_mixing_time(capsys):
    code, doc = run_cli(
        capsys, "analyze", "--directed", "--degrees", "1:1,1:1,1:1", "--mixing-cap", "100"
    )
    assert code == 0
    res = doc["result"]
    assert res["irreducible"] is False and res["exact_mixing_time"] is None
    assert res["spectral_gap"] == 0.0 and res["tv_final_exact"] == "1/2"


def test_analyze_periodic_space_has_null_mixing_time(capsys):
    # two sources and two sinks: every state moves, so the chain has period 2
    code, doc = run_cli(
        capsys, "analyze", "--directed", "--degrees", "0:1,1:0,0:1,1:0", "--horizon", "4"
    )
    assert code == 0
    res = doc["result"]
    assert res["irreducible"] is True and res["exact_mixing_time"] is None
    assert res["min_diagonal"] == "0" and res["tv_curve"] == [0.5] * 5
    assert abs(res["spectral_gap"]) < 1e-12  # eigenvalue -1


def test_analyze_cap_exit(capsys):
    code, doc = run_cli(capsys, "analyze", "--degrees", "2,2,2,2,2,2", "--cap", "5")
    assert code == 3 and doc["manifest"]["flags"]["cap"] == 5
    code, _ = run_cli(capsys, "analyze", "--degrees", "2,2,2,2,2,2", "--cap", "100")
    assert code == 0


def test_cap_below_one_is_a_usage_error(capsys):
    for command in ("analyze", "irreducible"):
        for cap in ("0", "-5"):
            assert main([command, "--degrees", "2,2,2,2", "--cap", cap]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage error: argument --cap"), (command, err)
        # a cap of 3 holds the 3 states
        assert run_cli(capsys, command, "--degrees", "2,2,2,2", "--cap", "3")[0] == 0


def test_irreducible_report(capsys):
    code, doc = run_cli(capsys, "irreducible", "--degrees", "1:1,1:1,1:1", "--directed")
    assert code == 0
    res = doc["result"]
    assert res["component_count"] == 2 and not res["irreducible"]
    assert all(w["witness"] is None for w in res["witness_samples"])


def test_no_realization_is_a_validation_failure(capsys):
    # analyze on non-graphical, odd-sum and non-digraphical sequences, and
    # irreducible on a non-graphical and an unbalanced one: exit 2 with an
    # error document, never a bare error line or a report on an empty space;
    # a degree past a machine word (2**63) is rejected before any search
    # sized by it
    huge = "99999999999999999999"
    cases = [
        ("analyze", "--degrees", "3,1"),
        ("analyze", "--degrees", "1,1,1"),
        ("analyze", "--directed", "--degrees", "2:0,0:2"),
        ("irreducible", "--degrees", "3,1"),
        ("irreducible", "--directed", "--degrees", "1:0,1:1"),
        ("analyze", "--degrees", f"{huge},1"),
        ("irreducible", "--degrees", f"{huge},1"),
        ("analyze", "--directed", "--degrees", f"{huge}:0,0:{huge}"),
        ("irreducible", "--directed", "--degrees", f"{huge}:0,0:{huge}"),
    ]
    for argv in cases:
        code, doc = run_cli(capsys, *argv)
        assert code == 2, argv
        assert doc["error"] == {"reason": "degree sequence has no realizations"}, argv
        assert "result" not in doc


def test_seeded_degree_specs_exit_with_documented_codes(capsys):
    # every subcommand that reads degrees, in both modes, on malformed,
    # negative, fractional, empty and huge specs and on seeded mixes of them:
    # each call returns exit 0, 1, 2 or 3 and raises nothing
    huge = "99999999999999999999"
    specs = [
        "", ",", " ", "x", "1,,1", ":", "0", "0:0", "-1,1", "1.5,1", "1:1:1", "0:1,1:0",
        "3,1", "2,2,2", "1:1,1:1,1:1", f"{huge},1", f"{huge}:0,0:{huge}",
    ]
    tokens = ["0", "1", "2", "3", "-1", "1.5", huge, "", "a", "1:1", "2:0", "0:2", f"{huge}:1", "1:1:1"]
    rng = random.Random(0)
    specs += [",".join(rng.choice(tokens) for _ in range(rng.randint(1, 4))) for _ in range(20)]
    codes = set()
    for spec in specs:
        for sub in ("validate", "realize", "sample", "analyze", "irreducible", "bound"):
            for mode in ((), ("--directed",)):
                argv = [sub, *mode, "--degrees", spec]
                try:
                    code = main(argv)
                except Exception as exc:
                    raise AssertionError(f"{argv} raised {exc!r}") from exc
                assert code in (0, 1, 2, 3), argv
                assert "Traceback" not in capsys.readouterr().err, argv
                codes.add(code)
    assert codes == {0, 1, 2}


def test_bound_directed_unbalanced_is_a_validation_failure(capsys):
    # like validate, realize, analyze and irreducible: exit 2 with an error
    # document, not a bare error line
    code, doc = run_cli(capsys, "bound", "--directed", "--degrees", "1:0,0:0")
    assert code == 2
    assert doc["error"] == {"reason": "in-degree sum 1 differs from out-degree sum 0"}
    assert "result" not in doc


def test_bound_report(capsys):
    code, doc = run_cli(capsys, "bound", "--degrees", "3,3,3,3", "--eps", "0.01")
    assert code == 0
    assert not doc["result"]["applicability"]["applicable"]


def test_bound_document_is_built_from_its_sources(capsys):
    from switchmix.cli import _exact

    cases = [
        (DegreeSequence([3] * 28), ["--degrees", ",".join(["3"] * 28)]),
        (DegreeSequence([3, 3, 1, 1]), ["--degrees", "3,3,1,1"]),
        (DirectedDegreeSequence([(2, 2)] * 32), ["--directed", "--degrees", ",".join(["2:2"] * 32)]),
        (DirectedDegreeSequence([(1, 1)] * 3), ["--directed", "--degrees", "1:1,1:1,1:1"]),
    ]
    for seq, spec in cases:
        comps = flow_components(seq)
        applicability = seq.hypotheses()
        if seq.directed:
            applicability["note"] = "switch-irreducibility is reported by the irreducible command"
        for eps in (0.01, 0.25):
            code, doc = run_cli(capsys, "bound", *spec, "--eps", str(eps))
            assert code == 0
            assert doc["result"] == {
                "eps": eps,
                "formula": "theorem-directed" if seq.directed else "theorem-undirected",
                "applicability": applicability,
                "poly_part": _exact(comps.load_bound * comps.ell_bound),
                "log_part": nstr(comps.log_part(eps)),
                "value": nstr(comps.product_bound(eps)),
                "components": {
                    "ell_bound": _exact(comps.ell_bound),
                    "one_over_Q": comps.one_over_Q,
                    "encoding_ratio_bound": _exact(comps.encoding_ratio_bound),
                    "load_bound": _exact(comps.load_bound),
                },
            }


def test_bound_at_theorem_scale(tmp_path, capsys):
    # the theorems need many edges; the document carries only the factors
    # the bound multiplies, so it stays small and fast at n = 20000
    degrees = tmp_path / "tens.txt"
    degrees.write_text("10\n" * 20000)
    code = main(["bound", "--degrees", str(degrees)])
    text = capsys.readouterr().out
    assert code == 0
    assert len(text.encode()) < 4096
    doc = json.loads(text)
    assert doc["result"]["value"] == nstr(flow_components(DegreeSequence([10] * 20000)).product_bound(0.01))


def test_exact_values_past_the_int_str_limit(capsys):
    # CPython refuses int-to-str conversions past 4300 digits; this exact
    # value is longer and is still written out in full
    code, doc = run_cli(capsys, "analyze", "--degrees", "1,2,2,1", "--horizon", "10000")
    assert code == 0
    assert doc["result"]["tv_final_exact"] == f"1/{Decimal(2 * 3**10000)}"


def test_realize_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, doc = run_cli(capsys, "realize", "--degrees", "2,2,1,1", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("n 4\n")
    code, _ = run_cli(capsys, "realize", "--degrees", "3,3,1,1")
    assert code == 2


def test_out_holds_the_printed_document(tmp_path, capsys):
    from switchmix import encode

    # on a 4-vertex path no phase of the repair completes, so it is stuck
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    save_encoding(encode(path4, path4, Graph(4, [(0, 2), (1, 2), (1, 3)])), tmp_path / "stuck.csv")
    cases = (
        (["validate", "--degrees", "2,2,1,1"], 0, "v.json", "v.json"),
        (["sample", "--degrees", "2,2,2", "--count", "1"], 2, "frozen", "frozen/manifest.json"),
        (["sample", "--degrees", "2,2,2,2,2,2", "--count", "2"], 0, "s", "s/manifest.json"),
        # realize and repair-encoding put only an edge list in --out, so a
        # failed realize and a stuck repair print their document and write nothing
        (["realize", "--degrees", "3,3,1,1"], 2, "bad.txt", None),
        (["repair-encoding", "--encoding", str(tmp_path / "stuck.csv")], 0, "stuck.txt", None),
    )
    for argv, expected, out, document in cases:
        code = main([*argv, "--out", str(tmp_path / out)])
        assert code == expected, argv
        printed = capsys.readouterr().out
        if document is None:
            assert printed and not (tmp_path / out).exists(), argv
        else:
            assert (tmp_path / document).read_text() == printed, argv


def test_inline_specs_take_only_commas_and_colons(capsys):
    # ';' between entries and '/' inside pairs are not degree syntax, and a
    # pair with two colons is an error line, not an unpacking failure
    for argv, err in (
        (["--degrees", "1;1"], "error: invalid literal for int() with base 10: '1;1'\n"),
        (["--directed", "--degrees", "1/1,1/1"], "error: directed degrees need in:out pairs, got '1/1'\n"),
        (["--directed", "--degrees", "1:1:1"], "error: directed degrees need in:out pairs, got '1:1:1'\n"),
    ):
        code = main(["validate", *argv])
        assert (code, capsys.readouterr()) == (1, ("", err)), argv


def test_unwritable_out_is_an_error_line(tmp_path, capsys):
    # an error document that cannot be written ends like a result document
    # that cannot: one error line and exit 1, no traceback
    code = main(["analyze", "--degrees", "3,1", "--out", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "No such file" in captured.err
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    code = main(["sample", "--degrees", "2,2,2", "--count", "1", "--out", str(occupied)])
    assert code == 1 and capsys.readouterr().err.startswith("error: ")


def test_sample_keeps_every_document_in_its_directory(tmp_path, capsys):
    frozen = ["sample", "--degrees", "2,2,2", "--count", "1", "--out"]
    runs = tmp_path / "runs"
    runs.mkdir()
    assert main([*frozen, str(runs)]) == 2
    doc = json.loads((runs / "manifest.json").read_text())
    assert doc["error"]["reason"] == json.loads(capsys.readouterr().out)["error"]["reason"]
    fresh = tmp_path / "fresh"
    assert main([*frozen, str(fresh)]) == 2
    assert (fresh / "manifest.json").read_text() == capsys.readouterr().out
    # the directory a failed run made takes the next successful run
    assert main(["sample", "--degrees", "2,2,2,2,2,2", "--count", "1", "--out", str(fresh)]) == 0
    assert (fresh / "manifest.json").read_text() == capsys.readouterr().out
    assert sorted(p.name for p in fresh.iterdir()) == ["manifest.json", "sample_r00_00000.txt"]


SAMPLE_SIX = ["sample", "--degrees", "2,2,2,2,2,2", "--steps", "10", "--out"]


def test_a_smaller_count_leaves_no_stale_samples(tmp_path, capsys):
    out = tmp_path / "samples"
    assert main([*SAMPLE_SIX, str(out), "--count", "3"]) == 0
    (out / "notes.txt").write_text("kept\n")  # only sample_r*_*.txt names are deleted
    assert main([*SAMPLE_SIX, str(out), "--count", "1"]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["result"]["files"] == ["sample_r00_00000.txt"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.txt", "sample_r00_00000.txt"]
    capsys.readouterr()


def test_an_error_document_leaves_no_stale_samples(tmp_path, capsys):
    out = tmp_path / "samples"
    assert main([*SAMPLE_SIX, str(out), "--count", "3"]) == 0
    assert main(["sample", "--degrees", "2,2,2", "--count", "3", "--out", str(out)]) == 2
    assert "error" in json.loads((out / "manifest.json").read_text())
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    capsys.readouterr()


def test_repair_encoding_cli(tmp_path, capsys):
    rng = random.Random(5)
    Z = realize(DegreeSequence([3] * 12))
    L = make_test_encoding(Z, rng, profile=(1, 1))
    csv_path = tmp_path / "enc.csv"
    save_encoding(L, csv_path)
    zpath = tmp_path / "z.txt"
    write_edge_list(Z, zpath)
    code, doc = run_cli(
        capsys, "repair-encoding", "--encoding", str(csv_path), "--z", str(zpath)
    )
    assert code == 0
    res = doc["result"]
    assert res["repaired"] and res["switches"] <= 3
    assert res["flags"]["valid"] and res["flags"]["consistent"]
    # one edge fewer keeps L + Z in range but realizes other degrees
    assert (0, 1) in Z.edges and L.defects.get((0, 1)) != -1
    write_edge_list(Graph(Z.n, [e for e in Z.edges if e != (0, 1)]), zpath)
    code, doc = run_cli(
        capsys, "repair-encoding", "--encoding", str(csv_path), "--z", str(zpath)
    )
    assert code == 0
    assert doc["result"]["repaired"] and not doc["result"]["flags"]["consistent"]


def test_manifest_digests_the_sidecar_read_beside_the_encoding(tmp_path, capsys):
    # without --sidecar, repair-encoding reads <encoding>.json: two runs on
    # different implicit sidecars give different results, so their
    # manifests must name different inputs
    from switchmix import encode

    cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    csv_path = tmp_path / "enc.csv"
    sidecar = tmp_path / "enc.csv.json"
    save_encoding(encode(cycle, cycle, cycle), csv_path)
    code, undirected = run_cli(capsys, "repair-encoding", "--encoding", str(csv_path))
    doc = json.loads(sidecar.read_text())
    degrees = doc.pop("degrees")
    sidecar.write_text(json.dumps({**doc, "mode": "directed", "in_degrees": degrees, "out_degrees": degrees}))
    code2, directed = run_cli(capsys, "repair-encoding", "--encoding", str(csv_path))
    assert code == code2 == 0
    assert (len(undirected["result"]["result_edges"]), len(directed["result"]["result_edges"])) == (4, 8)
    digests = [d["manifest"]["input_digests"] for d in (undirected, directed)]
    assert [sorted(d) for d in digests] == [sorted([str(csv_path), str(sidecar)])] * 2
    assert digests[0][str(csv_path)] == digests[1][str(csv_path)]
    assert digests[0][str(sidecar)] != digests[1][str(sidecar)]
    # a named sidecar is the one digested, and the implicit one is not read
    code, named = run_cli(capsys, "repair-encoding", "--encoding", str(csv_path), "--sidecar", str(sidecar))
    assert named["manifest"]["input_digests"] == digests[1]
    other = tmp_path / "other.json"
    other.write_text(sidecar.read_text())
    code, named = run_cli(capsys, "repair-encoding", "--encoding", str(csv_path), "--sidecar", str(other))
    assert sorted(named["manifest"]["input_digests"]) == sorted([str(csv_path), str(other)])


def test_seeded_encoding_files_exit_with_documented_codes(tmp_path, capsys):
    # repair-encoding on seeded mutations of saved encodings in both modes:
    # CSV cells and rows, sidecar fields and --z edge lists; each call
    # returns exit 0, 1 or 2, raises nothing and prints no traceback
    from switchmix import realize_directed

    huge = "99999999999999999999"
    cells = ["-2", "3", "-1", "0", "1", "2", "x", "", " 1", "1.5", huge, "-" + huge]
    values = [None, 0, -1, 1, 8, 9, int(huge), 1.5, "8", "directed", "undirected", [], [3] * 8,
              [-1] * 8, [int(huge)] * 8, {"p": 1, "q": 1}, {}]
    edge_lines = ["", "0 0", "0 1", "1 0", "7 8", "-1 2", "a b", "1", "1 2 3", f"0 {huge}", "n 8", "n", f"n {huge}"]
    saved = []
    for name, Z, profile in (
        ("u", realize(DegreeSequence([3] * 8)), (1, 1)),
        ("d", realize_directed(DirectedDegreeSequence([(2, 2)] * 8)), (2, 1)),
    ):
        csv_path, z_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.z"
        save_encoding(make_test_encoding(Z, random.Random(5), profile=profile), csv_path)
        write_edge_list(Z, z_path)
        rows = [row.split(",") for row in csv_path.read_text().splitlines()]
        saved.append((rows, json.loads((tmp_path / f"{name}.csv.json").read_text()), z_path.read_text().splitlines()))

    def mutate_rows(rows):
        rows = [list(row) for row in rows]
        r = rng.randrange(len(rows))
        kind = rng.randrange(4)
        if kind == 0:
            rows[r][rng.randrange(len(rows[r]))] = rng.choice(cells)
        elif kind == 1:
            del rows[r]
        elif kind == 2:
            rows.insert(r, list(rows[rng.randrange(len(rows))]))
        else:
            rows[r].pop()
        return "\n".join(",".join(row) for row in rows) + "\n"

    def mutate_sidecar(doc):
        doc = json.loads(json.dumps(doc))
        target = doc["profile"] if rng.random() < 0.25 else doc
        key = rng.choice(sorted(target) + ["in_degrees", "degrees"])
        if rng.random() < 0.2:
            target.pop(key, None)
        else:
            target[key] = rng.choice(values)
        return json.dumps(doc)

    def mutate_lines(lines):
        lines = list(lines)
        r = rng.randrange(len(lines))
        if rng.random() < 0.3:
            del lines[r]
        else:
            lines[r] = rng.choice(edge_lines)
        return "\n".join(lines) + "\n"

    rng = random.Random(0)
    enc, side, zfile = tmp_path / "m.csv", tmp_path / "m.csv.json", tmp_path / "m.z"
    codes = set()
    for i in range(180):
        rows, doc, lines = saved[i % 2]
        part = rng.randrange(3)
        enc.write_text(mutate_rows(rows) if part == 0 else "\n".join(",".join(row) for row in rows) + "\n")
        side.write_text(mutate_sidecar(doc) if part == 1 else json.dumps(doc))
        zfile.write_text(mutate_lines(lines) if part == 2 else "\n".join(lines) + "\n")
        argv = ["repair-encoding", "--encoding", str(enc), "--z", str(zfile)]
        if rng.random() < 0.3:
            argv += ["--sidecar", str(side)]
        try:
            code = main(argv)
        except Exception as exc:
            raise AssertionError(f"case {i} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (i, code, err)
        codes.add(code)
    assert codes == {0, 1}


def test_usage_error_exit_code(capsys):
    assert main(["bogus-subcommand"]) == 1
    assert main([]) == 1


def test_schema_golden(capsys):
    # pin the top-level output schema
    code, doc = run_cli(capsys, "validate", "--degrees", "2,2,1,1")
    assert code == 0
    assert sorted(doc) == ["manifest", "result"]
    assert sorted(doc["manifest"]) == [
        "artifact", "flags", "input_digests", "schema_version", "seed",
        "subcommand", "timestamp_utc", "version",
    ]
    assert doc["manifest"]["schema_version"] == 1
    assert doc["manifest"]["artifact"] == "switchmix"


def test_bound_output_matches_golden_file(capsys):
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "bound_3333.json").read_text()
    )
    code, doc = run_cli(capsys, "bound", "--degrees", "3,3,3,3", "--eps", "0.01")
    assert code == 0
    assert strip_timestamp(doc) == golden


def test_huge_degrees_exit_2_without_traceback():
    # no list may be sized by a degree value: each call answers at once
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    for argv in (
        ["validate", "--directed", "--degrees", "100000000000000:1,1:100000000000000"],
        ["realize", "--directed", "--degrees", "100000000000000:1,1:100000000000000"],
        ["realize", "--degrees", "100000000000001,1"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "switchmix.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert json.loads(proc.stdout)["error"]["reason"], argv


def test_a_search_past_the_recursion_limit_exits_3(capsys):
    # the state search recurses once per vertex that still sends: about n/2
    # levels for a perfect matching, n for a directed 2-factor or K_n
    for argv in (
        ["analyze", "--degrees", ",".join(["1"] * 1990)],
        ["irreducible", "--directed", "--degrees", ",".join(["1:1"] * 1000)],
        ["analyze", "--degrees", ",".join(["999"] * 1000)],
    ):
        code, doc = run_cli(capsys, *argv)
        assert code == 3, argv[:2]
        reason = doc["error"]["reason"]
        assert "recursion limit" in reason and "states" not in reason, reason
    # a star is one level deep, however many leaves it has
    code, doc = run_cli(capsys, "irreducible", "--degrees", ",".join(["600"] + ["1"] * 600))
    assert code == 0 and doc["result"]["state_count"] == 1


def test_manifest_flags_hold_no_private_attributes(tmp_path, capsys):
    enc = tmp_path / "enc.csv"
    save_encoding(make_test_encoding(realize(DegreeSequence([3] * 12)), random.Random(5), profile=(1, 1)), enc)
    for argv in (
        ["realize", "--degrees", "2,2,1,1", "--out", str(tmp_path / "g.txt")],
        ["sample", "--degrees", "2,2,2,2,2,2", "--out", str(tmp_path / "s")],
        ["repair-encoding", "--encoding", str(enc), "--out", str(tmp_path / "r.txt")],
    ):
        code, doc = run_cli(capsys, *argv)
        assert code == 0, argv
        assert not [k for k in doc["manifest"]["flags"] if k.startswith("_")], argv
        assert doc["manifest"]["flags"]["out"], argv


def test_malformed_sidecars_exit_1_without_traceback(tmp_path, capsys):
    from switchmix import Digraph, encode

    enc = tmp_path / "enc.csv"
    save_encoding(make_test_encoding(realize(DegreeSequence([3] * 12)), random.Random(5), profile=(1, 1)), enc)
    good = json.loads((tmp_path / "enc.csv.json").read_text())
    denc = tmp_path / "d.csv"
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    save_encoding(encode(two_cycle, two_cycle, two_cycle), denc)
    dgood = json.loads((tmp_path / "d.csv.json").read_text())

    def without(doc, key):
        return {k: v for k, v in doc.items() if k != key}

    cases = {
        "no mode": (enc, without(good, "mode")),
        "no profile": (enc, without(good, "profile")),
        "a list": (enc, [good]),
        "degrees not a list": (enc, {**good, "degrees": 5}),
        "unknown mode": (enc, {**good, "mode": "x"}),
        "n against the matrix": (enc, {**good, "n": 11, "degrees": good["degrees"][:11]}),
        "profile not an object": (enc, {**good, "profile": [1, 1]}),
        "in/out lengths differ": (denc, {**dgood, "in_degrees": [1, 1, 0]}),
    }
    for i, (name, (csv_path, sidecar)) in enumerate(cases.items()):
        side = tmp_path / f"sidecar{i}.json"
        side.write_text(json.dumps(sidecar))
        code = main(["repair-encoding", "--encoding", str(csv_path), "--sidecar", str(side)])
        out, err = capsys.readouterr()
        assert code == 1, name
        assert out == "" and err.startswith("error: sidecar"), (name, err)
    # the untouched sidecars still load
    for csv_path in (enc, denc):
        assert run_cli(capsys, "repair-encoding", "--encoding", str(csv_path))[0] == 0
