from __future__ import annotations

import json

import pytest

from lossbell.cli import main, parse_distribution
from lossbell.errors import DistributionError


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

    def test_out_of_range_hub(self, capsys):
        assert_usage_error(*run(
            capsys, "analyze", "--family", "star", "--n", "6",
            "--lose-leaves-of-root", "99",
        ))

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

    def test_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "verify", "--family", "ring", "--n", "16", "--cap", "14"
        )
        assert code == 2
        assert "cap" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        # an impossible tolerance turns harmless float noise into a failure
        import lossbell.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "EXPECTATION_TOL", 0.0)
        code, out, _ = run(
            capsys, "verify", "--random", "2", "--n", "5", "--max-loss", "1"
        )
        assert code == 3
        assert "FAIL" in out


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

    def test_empty_grid(self, capsys):
        assert_usage_error(*run(
            capsys, "mixture", "--family", "dense-center", "--n", "12",
            "--leaves-only", "--grid-points", "0",
        ))


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
