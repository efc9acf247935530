import json
import random

from switchmix import DegreeSequence, make_test_encoding, realize, save_encoding
from switchmix.cli import main


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
        ["irreducible", "--directed", "--degrees", "1:1,1:1,1:1", "--witness-states", "-1"],
        ["sample", "--degrees", "2,2,1,1", "--replicas", "0"],
        ["sample", "--degrees", "2,2,1,1", "--replicas", "-1"],
        ["sample", "--degrees", "2,2,1,1", "--count", "-1"],
    ):
        assert run_cli(capsys, *argv) == (1, None), argv


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


def test_analyze_cap_exit(capsys, monkeypatch):
    monkeypatch.setenv("SWITCHMIX_CAP", "5")
    code, doc = run_cli(capsys, "analyze", "--degrees", "2,2,2,2,2,2")
    assert code == 3
    monkeypatch.delenv("SWITCHMIX_CAP")
    code, _ = run_cli(capsys, "analyze", "--degrees", "2,2,2,2,2,2", "--cap", "100")
    assert code == 0


def test_irreducible_report(capsys):
    code, doc = run_cli(capsys, "irreducible", "--degrees", "1:1,1:1,1:1", "--directed")
    assert code == 0
    res = doc["result"]
    assert res["component_count"] == 2 and not res["irreducible"]
    assert all(w["witness"] is None for w in res["witness_samples"])


def test_bound_report(capsys):
    code, doc = run_cli(capsys, "bound", "--degrees", "3,3,3,3", "--eps", "0.01")
    assert code == 0
    res = doc["result"]
    assert res["components"]["product_equals_bound"]
    assert not res["applicability"]["applicable"]


def test_realize_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, doc = run_cli(capsys, "realize", "--degrees", "2,2,1,1", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("n 4\n")
    code, _ = run_cli(capsys, "realize", "--degrees", "3,3,1,1")
    assert code == 2


def test_repair_encoding_cli(tmp_path, capsys):
    rng = random.Random(5)
    Z = realize(DegreeSequence([3] * 12))
    L = make_test_encoding(Z, rng, profile=(1, 1))
    csv_path = tmp_path / "enc.csv"
    save_encoding(L, csv_path)
    from switchmix.graph import write_edge_list

    zpath = tmp_path / "z.txt"
    write_edge_list(Z, zpath)
    code, doc = run_cli(
        capsys, "repair-encoding", "--encoding", str(csv_path), "--z", str(zpath)
    )
    assert code == 0
    res = doc["result"]
    assert res["repaired"] and res["switches"] <= 3
    assert res["flags"]["valid"] and res["flags"]["consistent"]


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
