import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

from evencycles import cli, generators, graphs, oracle
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
            "certificate: lengths 4 and 6\n  cycle 1: 0 2 1 3\n  cycle 2: 0 3 2 5 1 4\n"
        )
        f = write_graph(tmp_path, complete_graph(8))
        assert cli.main(["find", f, "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"cycles": [[0, 2, 1, 3], [0, 3, 2, 5, 1, 4]], "graph": {"format": "auto", '
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

    def test_non_ascii_input_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("# K₄, the complete graph\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
        assert cli.main(["find", str(p)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_crash_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.finder, "main_theorem", crash)
        f = write_graph(tmp_path, complete_graph(6))
        assert cli.main(["find", f]) == 3
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_graph_layer_bug_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # a shortest odd closed walk that is not simple is a bug in the
        # graph layer, not bad input: it exits 3, not 2
        assert cli.finder.InternalInvariantError is graphs.InternalInvariantError
        real = graphs._double_cover_walk

        def detour(g, s, t, parity):  # odd and closed, but through s twice
            return (s, g.adj[s][0]) + real(g, s, t, parity)

        monkeypatch.setattr(graphs, "_double_cover_walk", detour)
        f = write_graph(tmp_path, complete_graph(7))
        assert cli.main(["find", f]) == 3
        assert "internal invariant error: shortest odd closed walk is not simple" in (
            capsys.readouterr().err
        )


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

    def test_terminal_out_of_range_is_input_error(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(5))
        assert cli.main(["paths", f, "--x", "0", "--y", "99"]) == 2
        assert cli.main(["paths", f, "--x", "-1", "--y", "2"]) == 2
        assert "--y 99 is not a vertex" in capsys.readouterr().err

    def test_equal_terminals_are_input_error(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(5))
        assert cli.main(["paths", f, "--x", "2", "--y", "2"]) == 2
        assert "both 2" in capsys.readouterr().err


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

    def test_modcheck_bad_residue(self, tmp_path, capsys):
        f = write_graph(tmp_path, complete_graph(5))
        assert cli.main(["modcheck", f, "--residue", "7", "--modulus", "4"]) == 2
        assert capsys.readouterr().err == "input error: residue 7 out of range for modulus 4\n"


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

    def test_gen_rejects_a_wrong_parameter_count(self, capsys):
        # extra parameters were once dropped without a word
        for argv in (["complete", "4", "9"], ["prism", "4"], ["complete-bipartite", "3"],
                     ["theta", "2", "3"], ["petersen", "1"]):
            assert cli.main(["gen", *argv]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and f"input error: {argv[0]} takes " in err, argv
        assert cli.main(["gen", "prism"]) == 0
        assert capsys.readouterr().out.startswith("n 6")

    def test_gen_rejects_a_negative_side(self, capsys):
        # K_{-1,3} was once an edgeless graph on two vertices, with exit 0
        for sides in (["--", "-1", "3"], ["--", "3", "-1"]):
            assert cli.main(["gen", "complete-bipartite", *sides]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "input error" in err and "sides >= 0" in err
        assert cli.main(["gen", "complete-bipartite", "0", "3"]) == 0
        assert capsys.readouterr().out.startswith("n 3")


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

    def test_sweep_caps_the_class_of_small_complete_graphs(self, tmp_path, capsys):
        # K1, K2 and K3 have no cut, yet none of them is 3-connected
        classes = {}
        for n in (1, 2, 3):
            out = tmp_path / f"sweep{n}.csv"
            assert cli.main(["sweep", f"enum:{n}", "--csv", str(out)]) == 0
            rows = self._read(out)
            col = {name: i for i, name in enumerate(rows[0])}
            classes.update((r[col["graph6"]], r[col["connectivity"]]) for r in rows[1:])
        assert {g6: classes[g6] for g6 in ("@", "A_", "Bw")} == {
            "@": "connected",
            "A_": "connected",
            "Bw": "2-connected",
        }
        assert "3-connected" not in classes.values()

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

    def test_sweep_streams_rows(self, tmp_path, capsys, monkeypatch):
        # rows already done are on disk when a later graph crashes the sweep
        sweep_one = cli._sweep_one

        def crash_on_third(task):
            if task[0] == 2:
                raise RuntimeError("boom")
            return sweep_one(task)

        monkeypatch.setattr(cli, "_sweep_one", crash_on_third)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "enum:6:density", "--csv", str(out)]) == 3
        rows = self._read(out)
        assert rows[0] == cli.SWEEP_COLUMNS and [r[0] for r in rows[1:]] == ["0", "1"]

    def test_import_leaves_multiprocessing_out(self):
        code = "import sys, evencycles.cli; print('multiprocessing' in sys.modules)"
        src = pathlib.Path(__file__).parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert run.stdout.strip() == "False", run.stderr

    def test_sweep_file_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(
            "\n".join(encode_graph6(complete_graph(n)) for n in (5, 6, 7)) + "\n"
        )
        assert cli.main(["sweep", str(corpus), "--check-oracle"]) == 0
        out = capsys.readouterr().out
        assert "swept 3 graphs" in out and "disagreements: 0" in out

    def test_sweep_non_ascii_corpus_is_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        corpus.write_bytes(encode_graph6(complete_graph(5)).encode() + b"\n\xff\n")
        assert cli.main(["sweep", str(corpus)]) == 2
        assert "cannot read corpus" in capsys.readouterr().err

    def test_sweep_bad_spec(self, capsys):
        assert cli.main(["sweep", "enum:not-a-number"]) == 2
        assert cli.main(["sweep", "/nonexistent.g6"]) == 2

    def test_sweep_bad_enumeration_fails_before_the_header(self, capsys):
        # the order and the tag of a streamed enumeration are checked up front
        for spec in ("enum:9", "enum:6:bogus", "enum:6:min-degree-x"):
            assert cli.main(["sweep", spec]) == 2, spec
            out, err = capsys.readouterr()
            assert out == "" and "input error" in err, spec

    def test_sweep_rejects_a_job_count_below_one(self, capsys):
        # 0 or a negative count is bad input, not a serial run
        for jobs in ("0", "-1"):
            assert cli.main(["sweep", "enum:5", "--jobs", jobs]) == 2, jobs
            out, err = capsys.readouterr()
            assert out == "" and "input error" in err and "--jobs" in err, jobs

    def test_connected_filter_keeps_no_disconnected_graph(self, capsys):
        # the filter and the sweep's class agree on K0: it is disconnected
        for n in range(7):
            for g in generators.enumerate_small(n, "connected"):
                assert cli._connectivity_class(g) != "disconnected", (n, g.sorted_edges())
        assert cli.main(["sweep", "enum:0:connected"]) == 0
        assert "swept 0 graphs" in capsys.readouterr().out

    def test_sweep_counts_the_rows_it_writes(self, tmp_path, capsys):
        # a streamed enumeration has no length: the summary counts the rows
        assert cli.main(["sweep", "enum:6:density"]) == 0
        out = capsys.readouterr().out
        assert "swept 4 graphs" in out and len(out.splitlines()) == 1 + 4 + 1
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("".join(encode_graph6(complete_graph(n)) + "\n" for n in (5, 6)))
        assert cli.main(["sweep", str(corpus)]) == 0
        assert "swept 2 graphs" in capsys.readouterr().out

    def test_connectivity_class_is_that_of_the_smallest_cut(self):
        # the sweep and the "3-connected" filter read the class off the cut
        # connectivity_cut(g, 3) returns: the smallest cut vertex, else the
        # first separation pair the path search meets
        graphs_ = [g for n in range(1, 8) for g in generators.enumerate_small(n)]
        graphs_ += [generators.generalized_petersen(n, k) for n in (5, 8, 12) for k in (1, 2)]
        graphs_ += [gen_k5_block_tree(b, b) for b in (1, 2, 5)]
        classes = set()
        for g in graphs_:
            try:
                cut = graphs.connectivity_cut(g, 3)
                # capped at n - 1, as K1-K3 have no cut, with K1 connected
                kappa = min(3 if cut is None else len(cut), max(g.n - 1, 1))
                want = ("connected", "2-connected", "3-connected")[kappa - 1]
            except graphs.GraphError:
                want = "disconnected"
            classes.add(want)
            assert cli._connectivity_class(g) == want
            assert generators._filter("3-connected")(g) == (g.n > 3 and want == "3-connected")
        assert cli._connectivity_class(graphs.Graph(0, frozenset())) == "disconnected"
        assert classes == {"disconnected", "connected", "2-connected", "3-connected"}


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
