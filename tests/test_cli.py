import csv
import json
import pathlib

import pytest

from evencycles import cli, oracle
from evencycles.codecs import decode_graph6, encode_edge_list, encode_graph6
from evencycles.generators import complete_graph, cycle_graph, gen_k5_block_tree


def write_graph(tmp_path, g, name="g.txt", fmt="edges"):
    p = tmp_path / name
    p.write_text(encode_graph6(g) + "\n" if fmt == "graph6" else encode_edge_list(g))
    return str(p)


class TestFind:
    def test_k6_json(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(6))
        assert cli.main(["find", f, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "cycle-pair"
        assert doc["lengths"] == [4, 6]
        # emitted documents re-validate on ingestion
        g = complete_graph(6)
        cert = cli.doc_to_certificate(doc, g)
        assert oracle.validate(cert, g)[0]

    def test_text_and_json_output(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(7))
        assert cli.main(["find", f]) == 0
        assert capsys.readouterr().out == (
            "certificate: lengths 4 and 6\n  cycle 1: 0 1 4 3\n  cycle 2: 0 1 4 5 6 3\n"
        )
        f = write_graph(tmp_path, complete_graph(8))
        assert cli.main(["find", f, "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"cycles": [[0, 1, 4, 3], [0, 1, 4, 5, 6, 3]], "graph": {"format": "auto", '
            '"n": 8}, "kind": "cycle-pair", "lengths": [4, 6]}\n'
        )

    def test_no_guard_option(self, tmp_path, capsys):
        # the finder has no size guard to set; argparse rejects the flag
        f = write_graph(tmp_path, complete_graph(6))
        with pytest.raises(SystemExit) as exc:
            cli.main(["find", f, "--guard", "5"])
        assert exc.value.code == 2

    def test_k5_witness(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(5), fmt="graph6")
        assert cli.main(["find", f]) == 0
        assert "k5-witness" in capsys.readouterr().out

    def test_sparse_hypothesis_failure(self, tmp_path, capsys):
        f = write_graph(tmp_path, cycle_graph(8))
        assert cli.main(["find", f]) == 1

    def test_missing_file(self, capsys):
        assert cli.main(["find", "/nonexistent/g.txt"]) == 2

    def test_malformed_input(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 0\n")
        assert cli.main(["find", str(p)]) == 2

    def test_crash_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.finder, "main_theorem", crash)
        f = write_graph(tmp_path, complete_graph(6))
        assert cli.main(["find", f]) == 3
        assert "RuntimeError: boom" in capsys.readouterr().err


class TestPaths:
    def test_k5_pair(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(5))
        assert cli.main(["paths", f, "--x", "0", "--y", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "path-pair"
        assert doc["lengths"][1] == doc["lengths"][0] + 2
        h = complete_graph(5).without_edge(0, 1)
        cert = cli.doc_to_certificate(doc, h)
        assert oracle.validate(cert, h)[0]

    def test_hypothesis_failure_exit(self, tmp_path, capsys):
        f = write_graph(tmp_path, cycle_graph(6))
        assert cli.main(["paths", f, "--x", "0", "--y", "3"]) == 1


class TestSpectrumModcheck:
    def test_spectrum(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(5))
        assert cli.main(["spectrum", f]) == 0
        out = capsys.readouterr().out
        assert "length 3" in out and "length 5" in out

    def test_spectrum_guard(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(6))
        assert cli.main(["spectrum", f, "--guard", "5"]) == 2

    def test_modcheck_found(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(6))
        assert cli.main(["modcheck", f, "--residue", "2", "--modulus", "4"]) == 0
        assert "length 6" in capsys.readouterr().out

    def test_modcheck_absent(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(5))
        assert cli.main(["modcheck", f, "--residue", "2", "--modulus", "4"]) == 1

    def test_modcheck_bad_residue(self, tmp_path):
        f = write_graph(tmp_path, complete_graph(5))
        assert cli.main(["modcheck", f, "--residue", "7", "--modulus", "4"]) == 2


class TestGen:
    def test_gen_stdout(self, capsys):
        assert cli.main(["gen", "complete", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n 5")

    def test_gen_to_file(self, tmp_path, capsys):
        out = tmp_path / "bt.g6"
        assert cli.main(["gen", "k5-block-tree", "2", "--out", str(out)]) == 0
        g = decode_graph6(out.read_text().strip())
        assert g.n == 9 and g.e == 20
        assert g.edges == gen_k5_block_tree(2).edges

    def test_gen_bad_params(self, capsys):
        assert cli.main(["gen", "complete"]) == 2


class TestSweep:
    def _read(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_sweep_enum_with_oracle(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "enum:5:density", "--check-oracle", "--csv", str(out)])
        assert rc == 0
        assert "disagreements: 0" in capsys.readouterr().out
        rows = self._read(out)
        assert rows[0] == cli.SWEEP_COLUMNS
        outcomes = {r[rows[0].index("outcome")] for r in rows[1:]}
        assert "k5-witness" in outcomes  # K5 is in the n=5 density corpus

    def test_sweep_sparse_graphs_with_oracle(self, tmp_path, capsys):
        # K_{3,3} is below the density bound but has a 4- and a 6-cycle
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "enum:6:connected", "--check-oracle", "--csv", str(out)])
        assert rc == 0
        assert "disagreements: 0" in capsys.readouterr().out
        rows = self._read(out)
        col = {name: i for i, name in enumerate(rows[0])}
        for r in rows[1:]:
            sparse = r[col["outcome"]] == "hypothesis-failure"
            assert (r[col["oracle_agrees"]] == "") == sparse
            assert sparse or r[col["oracle_agrees"]] == "true"

    def test_sweep_matches_golden_csv(self, tmp_path, capsys):
        # tests/data/sweep_enum7_density.csv: the sweep without its wall-time column
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "enum:7:density", "--check-oracle", "--csv", str(out)]) == 0
        golden = pathlib.Path(__file__).parent / "data" / "sweep_enum7_density.csv"
        assert [r[:-1] for r in self._read(out)] == self._read(golden)

    def test_sweep_deterministic_and_parallel(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "enum:5:density", "--csv", str(a)]) == 0
        assert cli.main(["sweep", "enum:5:density", "--jobs", "2", "--csv", str(b)]) == 0
        strip = lambda rows: [r[:-1] for r in rows]  # drop the wall-time column
        assert strip(self._read(a)) == strip(self._read(b))

    def test_sweep_file_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(
            "\n".join(encode_graph6(complete_graph(n)) for n in (5, 6, 7)) + "\n"
        )
        assert cli.main(["sweep", str(corpus), "--check-oracle"]) == 0
        out = capsys.readouterr().out
        assert "swept 3 graphs" in out and "disagreements: 0" in out

    def test_sweep_bad_spec(self, capsys):
        assert cli.main(["sweep", "enum:not-a-number"]) == 2
        assert cli.main(["sweep", "/nonexistent.g6"]) == 2


class TestDocParsing:
    def test_rejects_tampered_document(self):
        g = complete_graph(6)
        doc = {
            "kind": "cycle-pair",
            "cycles": [[0, 1, 2], [0, 1, 2, 3, 4]],
            "lengths": [3, 5],
            "graph": {"n": 6, "format": "edges"},
        }
        with pytest.raises(Exception):
            cli.doc_to_certificate(doc, g)
