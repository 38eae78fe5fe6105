import json
import resource
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from fomc import render_structure
from fomc.cli import main
from fomc.gadgets import GadgetSpec, clique, make_gadget


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload: str, schema_name: str):
    schema = json.loads(
        resources.files("fomc.schemas").joinpath(schema_name).read_text())
    document = json.loads(payload)
    jsonschema.validate(document, schema)
    return document


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.fms"
    path.write_text(render_structure(clique(2)))
    return str(path)


@pytest.fixture
def sentence_file(tmp_path):
    path = tmp_path / "phi.fml"
    path.write_text("forall x. exists y. E(x,y)\n")
    return str(path)


class TestEval:
    def test_true_sentence(self, capsys, k2_file, sentence_file):
        code, out, _ = run_cli(capsys, "eval", "--structure", k2_file,
                               "--sentence", sentence_file)
        assert code == 0 and out.strip() == "true"

    def test_false_sentence(self, capsys, tmp_path, k2_file):
        path = tmp_path / "psi.fml"
        path.write_text("exists x. E(x,x)")
        code, out, _ = run_cli(capsys, "eval", "--structure", k2_file,
                               "--sentence", str(path))
        assert code == 1 and out.strip() == "false"

    def test_json_schema(self, capsys, k2_file, sentence_file):
        code, out, _ = run_cli(capsys, "eval", "--structure", k2_file,
                               "--sentence", sentence_file, "--json")
        assert code == 0
        assert validate(out, "eval.schema.json")["value"] is True

    def test_relativize_flag(self, capsys, tmp_path, k2_file):
        path = tmp_path / "phi.fml"
        path.write_text("forall x. exists y. E(x,y)")
        code, out, _ = run_cli(capsys, "eval", "--structure", k2_file,
                               "--sentence", str(path),
                               "--relativize", "U=0", "X=1")
        assert code == 0 and out.strip() == "true"

    def test_check_relativisation_needs_seed(self, capsys, k2_file, sentence_file):
        code, _, err = run_cli(capsys, "eval", "--structure", k2_file,
                               "--sentence", sentence_file,
                               "--check-relativisation", "U=0,1", "X=0,1")
        assert code == 2 and "seed" in err

    def test_check_relativisation_json(self, capsys, k2_file, sentence_file):
        code, out, _ = run_cli(capsys, "eval", "--structure", k2_file,
                               "--sentence", sentence_file,
                               "--check-relativisation", "U=0,1", "X=0,1",
                               "--seed", "5", "--samples", "40", "--json")
        assert code == 0
        doc = validate(out, "relativisation.schema.json")
        assert doc["counterexamples"] == []

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_check_relativisation_without_samples_exits_2(self, capsys, k2_file,
                                                          sentence_file, samples):
        code, out, err = run_cli(capsys, "eval", "--structure", k2_file,
                                 "--sentence", sentence_file,
                                 "--check-relativisation", "U=0", "X=1",
                                 "--seed", "1", f"--samples={samples}")
        assert code == 2 and out == ""
        assert err == f"error: need at least one sample, got {samples}\n"

    def test_check_relativisation_over_empty_signature_exits_2(self, tmp_path):
        structure = tmp_path / "bare.fms"
        structure.write_text("structure bare\ndomain 2\nend\n")
        sentence = tmp_path / "top.fml"
        sentence.write_text("true\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fomc.cli", "eval", "--structure", str(structure),
             "--sentence", str(sentence), "--check-relativisation", "U=0", "X=1",
             "--seed", "1"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: cannot sample sentences over an empty signature\n"

    def test_missing_file(self, capsys, sentence_file):
        code, _, err = run_cli(capsys, "eval", "--structure", "/nope.fms",
                               "--sentence", sentence_file)
        assert code == 2 and "error" in err

    def test_unreadable_encoding_exits_2(self, capsys, tmp_path, k2_file):
        path = tmp_path / "utf16.fml"
        path.write_bytes(b"\xff\xfeexists x. E(x,x)")
        code, out, err = run_cli(capsys, "eval", "--structure", k2_file,
                                 "--sentence", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("carrier", ["sentence", "structure", "stdin"])
    def test_byte_order_mark_is_dropped(self, tmp_path, k2_file, sentence_file, carrier):
        # some editors save UTF-8 text with a leading U+FEFF
        bom = b"\xef\xbb\xbf"
        paths = {"structure": k2_file, "sentence": sentence_file}
        stdin = None
        if carrier == "stdin":
            stdin = bom + Path(sentence_file).read_bytes()
            paths["sentence"] = "-"
        else:
            path = tmp_path / f"bom-{carrier}"
            path.write_bytes(bom + Path(paths[carrier]).read_bytes())
            paths[carrier] = str(path)
        proc = subprocess.run(
            [sys.executable, "-m", "fomc.cli", "eval", "--structure",
             paths["structure"], "--sentence", paths["sentence"]],
            input=stdin, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"true\n", b"")

    def test_huge_element_exits_2(self, capsys, tmp_path, k2_file):
        path = tmp_path / "huge.fml"
        path.write_text("exists x in {" + "9" * 5000 + "}. E(x,x)")
        code, out, err = run_cli(capsys, "eval", "--structure", k2_file,
                                 "--sentence", str(path))
        assert code == 2 and out == ""
        assert err == ("error: element with 5000 digits is too large"
                       " (line 1, column 14)\n")

    def test_budget_exit_code(self, capsys, tmp_path):
        gadget = make_gadget(GadgetSpec("Kn", (3,)))
        spath = tmp_path / "k3.fms"
        spath.write_text(render_structure(gadget))
        fpath = tmp_path / "phi.fml"
        fpath.write_text("forall x. forall y. exists z. E(x,z) | E(y,z)")
        code, _, err = run_cli(capsys, "eval", "--structure", str(spath),
                               "--sentence", str(fpath), "--budget", "4")
        assert code == 3

    def test_deep_nesting_exits_3_without_traceback(self, tmp_path, k2_file):
        # exit 1 means "false"; a crash must never be read as a verdict
        path = tmp_path / "deep.fml"
        path.write_text("exists x. exists y. " + "~" * 3000 + "E(x,y)")
        proc = subprocess.run(
            [sys.executable, "-m", "fomc.cli", "eval", "--structure", k2_file,
             "--sentence", str(path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


class TestClassify:
    def test_np_complete_verdict(self, capsys, tmp_path):
        from fomc.structures import disjoint_union
        s = disjoint_union(clique(2), clique(1))
        path = tmp_path / "k2k1.fms"
        path.write_text(render_structure(s))
        code, out, _ = run_cli(capsys, "classify", "--structure", str(path),
                               "--fragment", "pos-eqfree")
        assert code == 0 and out.strip() == "NP-complete"
        code, out, _ = run_cli(capsys, "classify", "--structure", str(path),
                               "--fragment", "pos-eqfree", "--json")
        doc = validate(out, "verdict.schema.json")
        assert doc["class"] == "NP-complete"

    def test_open_verdict_json(self, capsys, tmp_path):
        path = tmp_path / "k3.fms"
        path.write_text(render_structure(clique(3)))
        code, out, _ = run_cli(capsys, "classify", "--structure", str(path),
                               "--fragment", "pp", "--json")
        doc = validate(out, "verdict.schema.json")
        assert doc["class"].startswith("open(")


    def test_forty_elements_one_edge(self, tmp_path):
        # listing all 2^40 - 1 image masks of an A-shop element exhausts
        # memory; only the masks that cover the domain can succeed
        path = tmp_path / "big.fms"
        path.write_text("structure big\ndomain 40\nrelation E/2\n0 1\nend\n")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fomc.cli", "classify", "--structure", str(path),
             "--fragment", "pos-eqfree", "--json"],
            capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert validate(proc.stdout, "verdict.schema.json")["class"] == "NP-complete"
        assert elapsed < 5.0

    def test_flat_domain_above_complement_cap_exits_3(self, tmp_path):
        # the engine's depth is not bounded by the recursion limit; a flat
        # 1,200-element binary structure stops at the complement cap of the
        # E-shop search instead
        path = tmp_path / "wide.fms"
        path.write_text("structure wide\ndomain 1200\nrelation E/2\n0 1\nend\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fomc.cli", "classify", "--structure", str(path),
             "--fragment", "pos-eqfree"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == ("error: complement would need up to 1440000 tuples "
                               "(limit 1000000)\n")

    def test_dual_on_huge_domain_exits_3(self, tmp_path):
        # the complement of a 2e9-element ternary relation cannot be built;
        # the address-space cap makes a missing guard fail fast
        path = tmp_path / "huge.fms"
        path.write_text("structure huge\ndomain 2000000000\nrelation R/3\nend\n")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "fomc.cli", "classify", "--structure", str(path),
             "--fragment", "dual:pos-eqfree"],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: complement would need")
        assert proc.stderr.count("\n") == 1


class TestCensus:
    def test_count_output(self, capsys):
        code, out, _ = run_cli(capsys, "dsm-census", "--n", "2")
        assert code == 0 and out.strip() == "5"

    def test_json_and_export(self, capsys, tmp_path):
        export = tmp_path / "lattice.txt"
        code, out, _ = run_cli(capsys, "dsm-census", "--n", "2", "--json",
                               "--export", str(export))
        doc = validate(out, "census.schema.json")
        assert doc["count"] == 5
        assert "covers" in export.read_text()

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_non_positive_domain_exits_2_with_one_line(self, capsys, n):
        code, out, err = run_cli(capsys, "dsm-census", "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: domain size must be positive, got {n}\n"

    @pytest.mark.parametrize("target", ["missing/lattice.txt", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_export_exits_2_with_one_line(self, tmp_path, target):
        # exit 1 means "false"; a failed write must not read as a verdict
        path = tmp_path / target
        proc = subprocess.run(
            [sys.executable, "-m", "fomc.cli", "dsm-census", "--n", "1",
             "--export", str(path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot write {path}: ")
        assert proc.stderr.count("\n") == 1


class TestOtherCommands:
    def test_core_json(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "core", "--structure", k2_file, "--json")
        doc = validate(out, "core.schema.json")
        assert doc["kind"] == "ux" and doc["size"] == 2

    def test_shops_json(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "shops", "--structure", k2_file, "--json")
        doc = validate(out, "shops.schema.json")
        assert doc["count"] == 2

    def test_gadget_round_trips_through_parser(self, capsys):
        code, out, _ = run_cli(capsys, "gadget", "--name", "G",
                               "--params", "2,2,0,2")
        from fomc import parse_structure
        assert parse_structure(out).size == 4
        code, out, _ = run_cli(capsys, "gadget", "--name", "BNAE", "--json")
        validate(out, "gadget.schema.json")

    def test_reduce_k2(self, capsys, tmp_path):
        path = tmp_path / "nae.fml"
        path.write_text("exists x. NAE(x,x,x)")
        code, out, _ = run_cli(capsys, "reduce", "--target", "k2",
                               "--sentence", str(path), "--json")
        doc = validate(out, "reduce.schema.json")
        assert "E(" in doc["formula"]

    def test_reduce_meta_pipeline(self, capsys, tmp_path):
        from fomc import parse_structure
        graph = tmp_path / "k3.fms"
        graph.write_text(render_structure(clique(3)))
        code, out, _ = run_cli(capsys, "reduce", "--target", "meta",
                               "--structure", str(graph))
        produced = tmp_path / "sg.fms"
        produced.write_text(out if out.endswith("\n") else out + "\n")
        code, out, _ = run_cli(capsys, "classify", "--structure", str(produced),
                               "--fragment", "pos-eqfree")
        assert out.strip() == "NP-complete"

    def test_canonical_sentence(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "canonical", "--structure", k2_file,
                               "--fragment", "pp", "--json")
        doc = validate(out, "canonical.schema.json")
        assert doc["formula"].startswith("exists v0.")

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_canonical_sentence_budget_is_a_limit(self, capsys, k2_file, budget):
        code, out, err = run_cli(capsys, "canonical", "--structure", k2_file,
                                 "--fragment", "pos-eqfree", "--m", "1",
                                 "--budget", budget)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fragment", ["pp", "pp-neq", "eqfree-neg"])
    def test_canonical_budget_binds_every_fragment(self, capsys, k2_file, fragment):
        argv = ("canonical", "--structure", k2_file, "--fragment", fragment)
        code, out, err = run_cli(capsys, *argv, "--budget", "0")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # K2's scan is 4 index tuples, read twice for eqfree-neg
        code, _, _ = run_cli(capsys, *argv, "--budget", "8")
        assert code == 0

    def test_canonical_shop_takes_no_budget(self, capsys, k2_file):
        code, out, err = run_cli(capsys, "canonical", "--structure", k2_file,
                                 "--U", "0,1", "--X", "0,1", "--budget", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_canonical_shop(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "canonical", "--structure", k2_file,
                               "--U", "0,1", "--X", "0,1")
        assert code == 0 and out.strip() == "0->{0};1->{1}"

    def test_usage_error(self, capsys, k2_file):
        code, _, err = run_cli(capsys, "canonical", "--structure", k2_file)
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (("reduce", "--target", "dhat", "--params", "1"), "gadget Dhat takes 2 parameters, got 1"),
        (("reduce", "--target", "dhat", "--params", "a,b"), "bad --params 'a,b'"),
        (("gadget", "--name", "G", "--params", "x"), "bad --params 'x'"),
        (("gadget", "--name", "G", "--params", "2,2,0"), "gadget G takes 4 parameters, got 3"),
        (("gadget", "--name", "KompleteBipartite", "--params=-1,2"),
         "block sizes must be positive"),
        (("gadget", "--name", "OneElement", "--params=-3"),
         "OneElement takes 0 (point) or 1 (loop), got -3"),
        (("reduce", "--target", "dhat", "--params", "0,2"), "block sizes must be positive"),
    ], ids=["dhat-one-param", "dhat-not-integers", "gadget-not-integers",
            "gadget-param-count", "bipartite-negative-block", "one-element-bad-flag",
            "dhat-empty-block"])
    def test_bad_params_exit_2_with_one_line(self, capsys, tmp_path, argv, message):
        path = tmp_path / "nae.fml"
        path.write_text("exists x. NAE(x,x,x)")
        extra = ("--sentence", str(path)) if argv[0] == "reduce" else ()
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv", [
        ("gadget", "--name", "Kn", "--params", "1001"),
        ("reduce", "--target", "dhat", "--params", "16,16"),
    ], ids=["gadget-clique", "reduce-dhat"])
    def test_oversized_gadget_exits_3_with_one_line(self, capsys, tmp_path, argv):
        path = tmp_path / "nae.fml"
        path.write_text("exists x. NAE(x,x,x)")
        extra = ("--sentence", str(path)) if argv[0] == "reduce" else ()
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 3 and out == ""
        assert err.startswith("error: gadget would need up to") and err.count("\n") == 1


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "fomc.cli", "dsm-census",
                               "--n", "1"], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "1"

    def test_closed_stdout_exits_2_with_one_line(self, tmp_path):
        # every shop of an empty 4-element structure: 1.5 MB, far more
        # than a pipe holds, so the reader closes it mid-write
        path = tmp_path / "empty4.fms"
        path.write_text("structure empty4\ndomain 4\nrelation E/2\nend\n")
        with subprocess.Popen(
                [sys.executable, "-m", "fomc.cli", "shops", "--structure", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(20)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert head == b"0->{0};1->{0};2->{0}"
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_outputs_are_deterministic(self, tmp_path):
        path = tmp_path / "k2.fms"
        path.write_text(render_structure(clique(2)))
        runs = [subprocess.run(
            [sys.executable, "-m", "fomc.cli", "shops", "--structure",
             str(path), "--json"], capture_output=True, text=True).stdout
            for _ in range(2)]
        assert runs[0] == runs[1]
