from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lossbell import oracle
from lossbell.cli import MAX_GRID_POINTS, main, parse_distribution
from lossbell.errors import DistributionError
from lossbell.families import KINDS
from lossbell.graphs import STATE_BYTE_BUDGET, Graph, random_connected_graph


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code: int, out: str, err: str) -> None:
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestFamily:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "family", "list")
        assert code == 0
        assert out.splitlines() == [
            "ring",
            "star",
            "two-centered-ghz",
            "dense-center",
        ]

    def test_emit_json_parses_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "emit", "--family", "ring", "--n", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 6 and len(doc["edges"]) == 6

    def test_emit_edge_list(self, capsys):
        code, out, _ = run(
            capsys, "family", "emit", "--family", "star", "--n", "4",
            "--emit-format", "edges",
        )
        assert code == 0
        assert out.splitlines()[0] == "n=4"


class TestAnalyze:
    def test_star_leaf_loss_table(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--family", "star", "--n", "6", "--lose", "1"
        )
        assert code == 0
        assert "5.65685424949" in out
        assert "original=False survivor=False" in out
        assert "|W|=4 |T|=0" in out

    def test_two_centered_leaves_of_hub(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--family", "two-centered-ghz", "--n", "12",
            "--lose-leaves-of-root", "0", "--count", "5", "--format", "jsonl",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["loss"] == [2, 3, 4, 5, 6]
        rec = next(r for r in doc["roots"] if r["root"] == 1)
        assert rec["violates_induced"] is True
        assert rec["violates_full"] is False
        assert rec["expectation"] == {"a": "0", "b": "11", "approx": pytest.approx(15.5563, abs=1e-3)}

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("n=4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--lose", "3")
        assert code == 0
        assert "root" in out

    def test_two_hub_file_reports_counting_sets(self, capsys, tmp_path, two_hub8):
        path = tmp_path / "hubs.graph"
        path.write_text(two_hub8.dumps())
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--lose", "2,5")
        assert code == 0
        # one pendant of each hub lost: two neighbors and two outsiders survive
        assert "|W|=2 |T|=2" in out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("0 1\n")
        code, _, err = run(capsys, "analyze", "--file", str(path))
        assert code == 1
        assert "n=<N>" in err

    @pytest.mark.parametrize(
        "text", ["n=100000000\n", '{"n": 100000000, "edges": []}']
    )
    def test_vertex_count_over_the_cap(self, capsys, tmp_path, text):
        path = tmp_path / "huge.graph"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert_usage_error(code, out, err)
        assert "exceeds the vertex cap" in err

    @pytest.mark.parametrize("doc, message", [
        ('{"n": 3, "edges": [[0, 1.7]]}', "non-integer vertex in edge [0, 1.7]"),
        ('{"n": 3.9, "edges": [[0, 1]]}', "non-integer n 3.9"),
        ('{"n": 3, "edges": [[true, 2]]}', "non-integer vertex in edge [true, 2]"),
        ('{"n": 3, "edges": [["0", 1]]}', 'non-integer vertex in edge ["0", 1]'),
    ], ids=["float-vertex", "float-n", "bool-vertex", "string-vertex"])
    def test_json_non_integer_refused(self, capsys, tmp_path, doc, message):
        # a JSON graph takes integers only: none of these is cut down to one
        path = tmp_path / "g.json"
        path.write_text(doc)
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert_usage_error(code, out, err)
        assert err == f"error: bad graph document: {message}\n"

    def test_out_of_range_hub(self, capsys):
        assert_usage_error(*run(
            capsys, "analyze", "--family", "star", "--n", "6",
            "--lose-leaves-of-root", "99",
        ))

    def test_negative_count(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--family", "star", "--n", "6",
            "--lose-leaves-of-root", "0", "--count", "-1",
        )
        assert_usage_error(code, out, err)
        assert "--count must be at least 0, got -1" in err

    @pytest.mark.parametrize("count", ["-5", "0", "2"])
    def test_count_needs_leaves_of_root(self, capsys, count):
        code, out, err = run(
            capsys, "analyze", "--family", "star", "--n", "6", "--lose", "1",
            "--count", count,
        )
        assert_usage_error(code, out, err)
        assert err == "error: --count needs --lose-leaves-of-root\n"

    def test_table_matches_structured_decimals(self, capsys):
        args = ("analyze", "--family", "dense-center", "--n", "12", "--lose", "7,8")
        _, table, _ = run(capsys, *args)
        _, jsonl, _ = run(capsys, *args, "--format", "jsonl")
        doc = json.loads(jsonl)
        for rec in doc["roots"]:
            assert format(rec["expectation"]["approx"], ".12g") in table


class TestSweep:
    def test_dense_center_flip_points(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "dense-center", "--n", "12",
            "--leaves-only", "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        verdicts = {row["size"]: row["any_violates"] for row in rows}
        assert verdicts[3] and not verdicts[4]

        code, out, _ = run(
            capsys, "sweep", "--family", "dense-center", "--n", "12",
            "--leaves-only", "--bound", "full", "--format", "jsonl",
        )
        rows = [json.loads(line) for line in out.splitlines()]
        verdicts = {row["size"]: row["any_violates"] for row in rows}
        assert verdicts[2] and not verdicts[3]

    def test_ring_fails_from_size_one(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "ring", "--n", "6", "--format", "jsonl"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["any_violates"] is True
        assert all(not row["any_violates"] for row in rows[1:])

    def test_star_singletons(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "star", "--n", "8", "--max-size", "1",
            "--format", "jsonl",
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[1]["n_violating"] == 0

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--family", "dense-center", "--n", "12",
            "--budget", "5",
        )
        assert code == 2
        assert "budget" in err

    def test_negative_max_size(self, capsys):
        assert_usage_error(*run(
            capsys, "sweep", "--family", "star", "--n", "6", "--max-size", "-1"
        ))

    def test_byte_identical_reruns(self, capsys):
        args = (
            "sweep", "--family", "two-centered-ghz", "--n", "8",
            "--leaves-only", "--format", "jsonl",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestVerify:
    def test_random_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "5", "--n", "7", "--max-loss", "2"
        )
        assert code == 0
        assert "PASS" in out

    def test_family_verification(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "dense-center", "--n", "10",
            "--loss-size", "2",
        )
        assert code == 0
        assert "PASS" in out

    def test_replacement_invariance(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--replacement-invariance", "--n", "6",
            "--random", "5", "--max-loss", "2",
        )
        assert code == 0
        assert "agree: True" in out

    def test_replacement_invariance_on_a_family(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--replacement-invariance", "--family", "ring",
            "--n", "5", "--max-loss", "1",
        )
        assert code == 0
        # every root of the 5-ring on each of its 5 single losses
        first, second = out.splitlines()[:2]
        assert first.startswith(
            "replacement invariance: 25 checks, all conventions agree: True; max spread "
        )
        assert second == "checked 6 of 6 loss sets"

    def test_bare_replacement_invariance(self, capsys):
        assert_usage_error(*run(capsys, "verify", "--replacement-invariance"))

    def test_reports_capped_loss_sets(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "ring", "--n", "6", "--max-loss", "2",
            "--max-sets", "10",
        )
        assert code == 0
        assert out.splitlines()[1] == "checked 10 of 22 loss sets"

    def test_planted_fault_is_located(self, capsys, monkeypatch):
        import lossbell.verify as verify_mod

        true_value = verify_mod.generator_expectation

        def planted(g, i, hypothesis, actual):
            value = true_value(g, i, hypothesis, actual)
            if i == 2 and not hypothesis and actual == {1}:
                return 1 - value
            return value

        monkeypatch.setattr(verify_mod, "generator_expectation", planted)
        code, out, _ = run(
            capsys, "verify", "--family", "star", "--n", "5", "--max-loss", "1"
        )
        assert code == 3
        assert "FAIL" in out
        assert "worst at generator/full:" in out
        assert "loss [1], vertex 2" in out

    def test_cap_raises_the_statevector_cap(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "ring", "--n", "15", "--cap", "16",
            "--max-loss", "0",
        )
        assert code == 0
        assert "PASS" in out
        assert out.splitlines()[1] == "checked 1 of 1 loss sets"

    @pytest.mark.parametrize("max_sets", ["0", "-3"])
    def test_max_sets_below_one(self, capsys, max_sets):
        code, out, err = run(
            capsys, "verify", "--family", "star", "--n", "6", "--max-loss", "3",
            "--max-sets", max_sets,
        )
        assert_usage_error(code, out, err)
        assert "--max-sets must be at least 1" in err

    @pytest.mark.parametrize("flag,value", [("--max-loss", "-1"), ("--loss-size", "-2")])
    def test_negative_loss_size(self, capsys, flag, value):
        code, out, err = run(
            capsys, "verify", "--family", "star", "--n", "6", flag, value
        )
        assert_usage_error(code, out, err)
        assert f"{flag} must be at least 0, got {value}" in err

    def test_random_size_is_checked_before_drawing(self, capsys, monkeypatch):
        import lossbell.cli as cli_mod

        def refuse(n, rng):
            raise AssertionError("random graph drawn before the size check")

        monkeypatch.setattr(cli_mod, "random_connected_graph", refuse)
        code, out, err = run(capsys, "verify", "--random", "1", "--n", "1500")
        assert code == 2
        assert out == ""
        assert err == "error: n=1500 exceeds statevector cap 14\n"

    @pytest.mark.parametrize("extra,code,message", [
        ((), 2, "n=4000 exceeds statevector cap 14"),
        (("--max-sets", "0"), 1, "--max-sets must be at least 1, got 0"),
    ], ids=["refused", "flags-first"])
    def test_family_size_is_checked_before_generating(
            self, capsys, monkeypatch, extra, code, message):
        import lossbell.cli as cli_mod

        def refuse(spec):
            raise AssertionError("family graph generated before the size check")

        monkeypatch.setattr(cli_mod, "generate", refuse)
        argv = ("verify", "--family", "dense-center", "--n", "4000", *extra)
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    def test_file_size_is_checked_before_drawing(self, capsys, monkeypatch, tmp_path):
        import lossbell.cli as cli_mod

        def refuse(n, rng):
            raise AssertionError("random graph drawn before the file's size check")

        monkeypatch.setattr(cli_mod, "random_connected_graph", refuse)
        path = tmp_path / "ring15.graph"
        path.write_text("n=15\n" + "".join(f"{i} {(i + 1) % 15}\n" for i in range(15)))
        argv = ("verify", "--random", "2", "--n", "6", "--file", str(path))
        assert run(capsys, *argv) == (2, "", "error: n=15 exceeds statevector cap 14\n")

    def test_missing_file_draws_no_graph(self, capsys, monkeypatch, tmp_path):
        import lossbell.cli as cli_mod

        def refuse(n, rng):
            raise AssertionError("random graph drawn before the file was read")

        monkeypatch.setattr(cli_mod, "random_connected_graph", refuse)
        missing = str(tmp_path / "missing.json")
        code, out, err = run(
            capsys, "verify", "--random", "50000", "--n", "14", "--file", missing
        )
        assert_usage_error(code, out, err)
        assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"

    def test_each_random_graph_is_drawn_when_it_is_checked(
            self, capsys, monkeypatch, tmp_path):
        import lossbell.cli as cli_mod
        import lossbell.verify as verify_mod

        true_draw, true_check = random_connected_graph, verify_mod.check_graph
        draws, checks = [], []

        def draw(n, rng):
            draws.append(true_draw(n, rng))
            return draws[-1]

        def check(g, *args, **kwargs):
            checks.append((g, len(draws)))
            return true_check(g, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "random_connected_graph", draw)
        monkeypatch.setattr(verify_mod, "check_graph", check)
        path = tmp_path / "path4.graph"
        path.write_text("n=4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(
            capsys, "verify", "--random", "3", "--n", "6", "--max-loss", "1",
            "--seed", "7", "--file", str(path),
        )
        assert code == 0
        # the k-th check comes after exactly k draws, the named graph's after all
        assert [k for _, k in checks] == [1, 2, 3, 3]
        rng = random.Random(7)
        assert [g for g, _ in checks] == [
            *(true_draw(6, rng) for _ in range(3)), Graph.parse(path.read_text())]
        assert " over 4 graph(s); " in out.splitlines()[0]
        assert out.splitlines()[1] == "checked 26 of 26 loss sets"

    def test_negative_random(self, capsys):
        code, out, err = run(
            capsys, "verify", "--random", "-3", "--n", "8", "--family", "star"
        )
        assert_usage_error(code, out, err)
        assert err == "error: --random must be at least 0, got -3\n"

    def test_zero_random_draws_none(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "0", "--n", "6", "--family", "star",
            "--max-loss", "1",
        )
        assert code == 0
        assert " over 1 graph(s); " in out.splitlines()[0]

    def test_one_statevector_is_kept(self, capsys):
        code, _, _ = run(capsys, "verify", "--random", "3", "--n", "8")
        assert code == 0
        assert oracle.graph_state.cache_info().currsize == 1

    def test_random_graph_under_a_raised_cap(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "1", "--n", "15", "--cap", "16",
            "--max-loss", "0",
        )
        assert code == 0
        assert "PASS" in out
        assert out.splitlines()[1] == "checked 1 of 1 loss sets"

    @pytest.mark.parametrize("argv", [
        ("--family", "ring", "--n", "30", "--cap", "30", "--max-loss", "0"),
        ("--random", "1", "--n", "6", "--cap", "24"),
        ("--family", "star", "--n", "6", "--cap", str(10**9)),
    ])
    def test_cap_over_the_byte_budget(self, capsys, monkeypatch, argv):
        import lossbell.cli as cli_mod
        import lossbell.oracle as oracle_mod

        def refuse(*args, **kwargs):
            raise AssertionError("graph drawn or state built before the cap check")

        monkeypatch.setattr(oracle_mod, "graph_state", refuse)
        monkeypatch.setattr(cli_mod, "random_connected_graph", refuse)
        monkeypatch.setattr(cli_mod, "generate", refuse)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        cap = argv[argv.index("--cap") + 1]
        assert err == (f"error: --cap {cap} exceeds 23: a statevector of more qubits "
                       f"and its index vector take over 256 MiB\n")

    def test_cap_at_the_byte_budget(self, capsys):
        assert oracle.MAX_STATE_CAP == 23
        assert (16 + 8) << 23 <= STATE_BYTE_BUDGET < (16 + 8) << 24
        code, out, _ = run(
            capsys, "verify", "--family", "star", "--n", "6", "--cap", "23",
            "--max-loss", "1",
        )
        assert code == 0
        assert "PASS" in out

    def test_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "verify", "--family", "ring", "--n", "16", "--cap", "14"
        )
        assert code == 2
        assert "cap" in err

    def test_takes_no_format(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "star", "--n", "6", "--format", "jsonl"
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --format jsonl" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        # an impossible tolerance turns harmless float noise into a failure
        import lossbell.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "EXPECTATION_TOL", 0.0)
        code, out, _ = run(
            capsys, "verify", "--random", "2", "--n", "5", "--max-loss", "1"
        )
        assert code == 3
        assert "FAIL" in out


class TestReadme:
    def test_command_line_examples_run(self, capsys, monkeypatch, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        commands = [line.split()[1:] for line in block.splitlines()
                    if line.startswith("lossbell ")]
        assert commands
        # the files the examples name: a 7-vertex graph (`--lose 2,5`) and the
        # README's own distribution example
        (tmp_path / "g.graph").write_text("n=7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n1 5\n")
        dist = readme.split("### Distribution files", 1)[1].split("```")[1]
        (tmp_path / "dist.txt").write_text(dist.lstrip("\n"))
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out, argv


class TestMixture:
    def test_distribution_file(self, capsys, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("9/10 :\n1/20 : 6\n1/20 : 7\n")
        code, out, _ = run(
            capsys, "mixture", "--family", "dense-center", "--n", "12",
            "--dist", str(path), "--format", "jsonl",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["expectation"]["a"] == "99/20"
        assert doc["expectation"]["b"] == "58/5"

    def test_bad_distribution_exit_code(self, capsys, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("1/2 : 0\n")
        code, _, err = run(
            capsys, "mixture", "--family", "dense-center", "--n", "12",
            "--dist", str(path),
        )
        assert code == 1
        assert "sum" in err

    def test_single_loss_grid(self, capsys):
        code, out, _ = run(
            capsys, "mixture", "--family", "dense-center", "--n", "12",
            "--leaves-only", "--format", "jsonl",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        points = [l for l in lines if l["kind"] == "mixture_point"]
        summary = [l for l in lines if l["kind"] == "mixture_summary"][0]
        assert len(points) == 20
        assert all(p["full_margin"]["approx"] > 0 for p in points)
        assert summary["crossover_in_unit_interval"] is False
        assert summary["crossover"]["a"] == "6"

    def test_out_of_range_root(self, capsys):
        assert_usage_error(*run(
            capsys, "mixture", "--family", "star", "--n", "6", "--root", "99"
        ))

    def test_out_of_range_survivor_anchor(self, capsys, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("1 :\n")
        assert_usage_error(*run(
            capsys, "mixture", "--family", "dense-center", "--n", "12",
            "--dist", str(path), "--hypothesis", "6", "--root", "99",
        ))

    def test_non_root_anchor(self, capsys):
        code, out, err = run(
            capsys, "mixture", "--family", "star", "--n", "6", "--root", "3"
        )
        assert_usage_error(code, out, err)
        assert "vertex 3 has degree 1, not the maximum 5" in err

    def test_empty_grid(self, capsys):
        assert_usage_error(*run(
            capsys, "mixture", "--family", "dense-center", "--n", "12",
            "--leaves-only", "--grid-points", "0",
        ))

    @pytest.mark.parametrize("p_max", ["1/0", "abc"])
    def test_bad_p_max(self, capsys, p_max):
        assert_usage_error(*run(
            capsys, "mixture", "--family", "star", "--n", "6", "--p-max", p_max
        ))

    def test_grid_points_over_the_cap(self, capsys):
        code, out, err = run(
            capsys, "mixture", "--family", "star", "--n", "6",
            "--grid-points", str(MAX_GRID_POINTS + 1),
        )
        assert code == 2
        assert out == ""
        assert err == (f"error: --grid-points {MAX_GRID_POINTS + 1} "
                       f"exceeds the cap {MAX_GRID_POINTS}\n")

    @pytest.mark.parametrize("grid_options", [
        ("--grid-points", "0", "--p-max", "abc", "--leaves-only"),
        ("--grid-points", "20"),
        ("--p-max", "1/4"),
        ("--candidates", "6,7"),
    ])
    def test_distribution_takes_no_grid_options(self, capsys, tmp_path,
                                                grid_options):
        path = tmp_path / "dist.txt"
        path.write_text("9/10 :\n1/20 : 6\n1/20 : 7\n")
        code, out, err = run(
            capsys, "mixture", "--family", "dense-center", "--n", "12",
            "--dist", str(path), *grid_options,
        )
        assert_usage_error(code, out, err)
        flags = [arg for arg in grid_options if arg.startswith("--")]
        assert err == f"error: --dist takes no grid options: {', '.join(flags)}\n"


class TestDistributionParser:
    def test_comments_and_empty_set(self):
        dist = parse_distribution("# c\n3/4 : 1,2\n1/4 :\n")
        assert dist.entries[0][1] == {1, 2}
        assert dist.entries[1][1] == frozenset()

    def test_missing_colon(self):
        with pytest.raises(DistributionError, match="line 1"):
            parse_distribution("3/4 1,2\n")

    def test_bad_probability(self):
        with pytest.raises(DistributionError, match="probability"):
            parse_distribution("x : 1\n")

    def test_empty_file(self):
        with pytest.raises(DistributionError):
            parse_distribution("\n")


STARTUP_PROBE = """
import contextlib, io, sys
import lossbell
assert "numpy" not in sys.modules, "numpy loaded by import lossbell"
from lossbell import cli

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv

for argv in (
    ["analyze", "--family", "star", "--n", "6", "--lose", "1"],
    ["sweep", "--family", "dense-center", "--n", "8"],
    ["mixture", "--family", "dense-center", "--n", "8", "--leaves-only"],
    ["family", "list"],
):
    quiet(argv)
try:
    lossbell.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute served")
assert "numpy" not in sys.modules, "numpy loaded without verify"
quiet(["verify", "--family", "star", "--n", "5", "--max-loss", "1"])
assert "numpy" in sys.modules
from lossbell import LossyState, basis_block_weights, graph_state
from lossbell import oracle
assert (LossyState, basis_block_weights, graph_state) == (
    oracle.LossyState, oracle.basis_block_weights, oracle.graph_state)
namespace = {}
exec("from lossbell import *", namespace)
assert set(lossbell.__all__) <= set(namespace)
"""


class TestStartup:
    def test_only_verify_loads_numpy(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


# -- argv fuzzing: small graphs and small counts, so that every run is cheap --

_vertex = st.integers(-1, 9)
_vertex_lists = st.one_of(
    st.lists(_vertex, max_size=4).map(lambda vs: ",".join(map(str, vs))),
    st.sampled_from(["a", "1,,2", " "]),
)
_small = st.integers(-1, 8).map(str)
_OPTIONS = {
    "analyze": {
        "--lose": _vertex_lists,
        "--lose-leaves-of-root": _vertex.map(str),
        "--count": st.integers(-2, 8).map(str),
    },
    "sweep": {
        "--candidates": _vertex_lists,
        "--leaves-only": st.none(),
        "--bound": st.sampled_from(["full", "induced", "other"]),
        "--max-size": _small,
        "--budget": st.integers(0, 300).map(str),
    },
    "verify": {
        "--random": st.integers(0, 2).map(str),
        "--max-loss": st.integers(-1, 3).map(str),
        "--loss-size": st.integers(-1, 3).map(str),
        "--seed": st.integers(0, 5).map(str),
        "--cap": st.integers(0, 30).map(str),
        "--replacement-invariance": st.none(),
    },
    "mixture": {
        "--root": _vertex.map(str),
        "--hypothesis": _vertex_lists,
        "--candidates": _vertex_lists,
        "--leaves-only": st.none(),
        "--grid-points": st.integers(-1, 50).map(str),
        "--p-max": st.sampled_from(["1/4", "2", "0", "-1/3", "1/0", "abc"]),
    },
    "family": {
        "--emit-format": st.sampled_from(["json", "edges"]),
    },
}


@st.composite
def _argvs(draw, dist_path: str) -> list[str]:
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command == "family":
        argv.append(draw(st.sampled_from(["list", "emit"])))
    if draw(st.integers(0, 3)):  # mostly a valid graph
        argv += ["--family", draw(st.sampled_from(KINDS)),
                 "--n", str(draw(st.integers(3, 8)))]
    else:
        argv += draw(st.sampled_from([[], ["--family", "star"], ["--n", "5"]]))
        argv += draw(st.sampled_from([[], ["--n", "-1"], ["--n", "1"]]))
    options = dict(_OPTIONS[command])
    if command != "family":
        options["--format"] = st.sampled_from(["table", "jsonl"])
    if command == "mixture":
        options["--dist"] = st.sampled_from([dist_path, dist_path + ".missing"])
    flags = st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True)
    for flag in draw(flags):
        value = draw(options[flag])
        argv += [flag] if value is None else [flag, value]
    if command == "verify":
        argv += ["--max-sets", draw(st.integers(0, 20).map(str))]
    return argv


class TestArgvFuzz:
    def test_every_argv_ends_in_a_documented_exit_code(self, tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text("1/2 :\n1/4 : 1\n1/4 : 2,3\n")

        @given(_argvs(str(dist)))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err.getvalue()

        check()
