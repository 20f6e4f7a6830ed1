"""CLI surface: CSV schemas, exit codes, profile definition."""

from __future__ import annotations

import csv

import pytest

from bcshatter import cli, graph
from bcshatter.bench import BenchRecord, bench_graph, performance_profile, write_bench_csv
from bcshatter.cli import EXIT_IO, EXIT_NON_FINITE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from bcshatter.graph import Graph

from conftest import layered_graph


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCompute:
    def test_scores_csv(self, p4_file, tmp_path):
        out = tmp_path / "scores.csv"
        assert main(["compute", str(p4_file), "--combo", "o", "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out)
        assert rows[0] == ["vertex_id", "bc"]
        assert [r[1] for r in rows[1:]] == ["0", "4", "4", "0"]

    def test_all_techniques_identical_rows(self, p4_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["compute", str(p4_file), "--combo", "o", "--out", str(out_a)])
        main(["compute", str(p4_file), "--combo", "odbasi", "--out", str(out_b)])
        assert _read_csv(out_a) == _read_csv(out_b)

    def test_unordered_halves(self, p4_file, tmp_path):
        out = tmp_path / "half.csv"
        main(["compute", str(p4_file), "--unordered", "--out", str(out)])
        assert [r[1] for r in _read_csv(out)[1:]] == ["0", "2", "2", "0"]

    def test_empty_graph_file(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "scores.csv"
        assert main(["compute", str(empty), "--out", str(out)]) == EXIT_OK
        assert _read_csv(out) == [["vertex_id", "bc"]]

    def test_bad_combo_is_usage_error(self, p4_file):
        assert main(["compute", str(p4_file), "--combo", "ozz"]) == EXIT_USAGE

    def test_unreadable_file_is_io_error(self, tmp_path):
        assert main(["compute", str(tmp_path / "missing.txt")]) == EXIT_IO

    def test_malformed_file_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2 3\n")
        assert main(["compute", str(bad)]) == EXIT_IO
        undecodable = tmp_path / "undecodable.txt"
        undecodable.write_bytes(b"0 1\n\xff 2\n")
        assert main(["compute", str(undecodable)]) == EXIT_IO
        assert main(["verify", "--graph", str(undecodable), "--combos", "o"]) == EXIT_IO

    def test_id_beyond_int32_is_io_error(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("0 2147483648\n")
        assert main(["compute", str(big)]) == EXIT_IO

    def test_id_at_vertex_ceiling_is_io_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(graph, "MAX_VERTICES", 4)
        path = tmp_path / "wide.txt"
        path.write_text("0 1\n1 4\n")
        assert main(["compute", str(path)]) == EXIT_IO
        assert "line 2" in capsys.readouterr().err

    def test_metis_input(self, tmp_path):
        path = tmp_path / "p3.graph"
        path.write_text("3 2\n2\n1 3\n2\n")
        out = tmp_path / "scores.csv"
        assert main(["compute", str(path), "--format", "metis", "--out", str(out)]) == EXIT_OK
        assert [r[1] for r in _read_csv(out)[1:]] == ["0", "2", "0"]

    def test_negative_metis_header_is_io_error(self, tmp_path):
        path = tmp_path / "neg.graph"
        path.write_text("-5 0\n")
        assert main(["compute", str(path), "--format", "metis"]) == EXIT_IO

    def test_side_degree_cap_below_one_is_usage_error(self, p4_file, tmp_path):
        out = tmp_path / "scores.csv"
        args = ["compute", str(p4_file), "--combo", "od", "--max-side-degree", "0", "--out", str(out)]
        assert main(args) == EXIT_USAGE
        assert not out.exists()

    def test_stats_sidecar(self, p4_file, tmp_path):
        out = tmp_path / "scores.csv"
        stats = tmp_path / "stats.csv"
        main(["compute", str(p4_file), "--combo", "od", "--out", str(out), "--stats", str(stats)])
        rows = _read_csv(stats)
        assert rows[0][:3] == ["pass", "iteration", "removals"]
        assert any(r[0] == "d" for r in rows[1:])


class TestVerify:
    def test_generated_graph_passes(self, capsys):
        assert main(["verify", "--gen", "gnp:n=30,p=0.2,seed=7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 8  # 7 combinations + summary

    def test_tree_reduces_and_passes(self, capsys):
        assert main(["verify", "--gen", "random-tree:n=100,seed=3", "--combos", "od"]) == EXIT_OK

    def test_corruption_hook_fails_with_vertex(self, capsys, monkeypatch):
        real = cli.compute_scores

        def corrupted(*args, **kwargs):
            result = real(*args, **kwargs)
            result.scores[0] += 1.0
            return result

        monkeypatch.setattr(cli, "compute_scores", corrupted)
        code = main(["verify", "--gen", "gnp:n=12,p=0.4,seed=1", "--combos", "o"])
        assert code == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL" in out and "vertex 0" in out

    def test_cap_refusal(self, capsys):
        assert main(["verify", "--gen", "gnp:n=40,p=0.2,seed=1", "--cap", "10"]) == EXIT_USAGE

    def test_cap_refusal_comes_before_generation(self, capsys, monkeypatch):
        def never(spec):
            raise AssertionError(f"generated {spec} past the oracle cap")

        monkeypatch.setattr(cli, "generate", never)
        assert main(["verify", "--gen", "gnp:n=6000,p=0.001", "--cap", "50"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "6000 vertices" in err and "cap is 50" in err

    def test_side_degree_cap_below_one_is_refused_before_any_pass(self, capsys):
        args = ["verify", "--gen", "gnp:n=12,p=0.4,seed=1", "--combos", "o,od,odbas", "--max-side-degree", "0"]
        assert main(args) == EXIT_USAGE
        assert "PASS" not in capsys.readouterr().out

    def test_file_input(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n2 3\n")
        assert main(["verify", "--graph", str(path), "--combos", "o,odbasi"]) == EXIT_OK


class TestBench:
    def test_records_and_sidecars(self, tmp_path, p4_file):
        other = tmp_path / "star.txt"
        other.write_text("0 1\n0 2\n0 3\n")
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", str(p4_file), str(other), "--combos", "o,od", "--reps", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = _read_csv(out)
        assert rows[0][:2] == ["graph", "combination"]
        assert len(rows) == 1 + 2 * 2
        norm = _read_csv(tmp_path / "bench.normalized.csv")
        baseline_rows = [r for r in norm[1:] if r[1] == "o"]
        assert all(float(r[2]) == 1.0 for r in baseline_rows)
        comp = _read_csv(tmp_path / "bench.components.csv")
        assert comp[0] == ["graph", "combination", "component", "edges"]

    def test_missing_file_reported_but_run_continues(self, tmp_path, p4_file, capsys):
        out = tmp_path / "bench.csv"
        undecodable = tmp_path / "undecodable.txt"
        undecodable.write_bytes(b"0 1\n\xff 2\n")
        code = main(["bench", str(p4_file), str(tmp_path / "nope.txt"), str(undecodable), "--combos", "o",
                     "--reps", "1", "--out", str(out)])
        assert code == EXIT_IO
        assert out.exists()
        err = capsys.readouterr().err
        assert "skipping" in err and f"skipping {undecodable}" in err
        assert {r[0] for r in _read_csv(out)[1:]} == {p4_file.name}

    def test_natural_baseline(self, tmp_path, p4_file):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", str(p4_file), "--combos", "o,od", "--reps", "1", "--natural-baseline", "--out", str(out)]
        )
        assert code == EXIT_OK
        norm = _read_csv(tmp_path / "bench.normalized.csv")
        empties = [r for r in norm[1:] if r[1] == ""]
        assert empties and all(float(r[2]) == 1.0 for r in empties)

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_reps_below_one_is_usage_error(self, tmp_path, p4_file, capsys, reps):
        out = tmp_path / "bench.csv"
        missing = tmp_path / "nope.txt"
        code = main(["bench", str(p4_file), str(missing), "--combos", "o", "--reps", reps, "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--reps" in err and "skipping" not in err  # refused before any graph is read

    def test_combos_without_baseline_is_usage_error(self, tmp_path, p4_file, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", str(p4_file), "--combos", "od,odb", "--reps", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert "baseline" in capsys.readouterr().err

    def test_inputs_sharing_a_file_name_are_usage_error(self, tmp_path, capsys):
        for sub, text in (("a", "0 1\n1 2\n"), ("b", "0 1\n0 2\n0 3\n")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "g.txt").write_text(text)
        out = tmp_path / "bench.csv"
        code = main(["bench", str(tmp_path / "a" / "g.txt"), str(tmp_path / "b" / "g.txt"),
                     "--combos", "o,od", "--reps", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()  # refused before any graph is timed or any file written
        assert "g.txt" in capsys.readouterr().err

    def test_bench_graph_refuses_reps_below_one(self):
        with pytest.raises(ValueError):
            bench_graph(Graph.from_edges(2, [(0, 1)]), "edge", ("o",), reps=0)


class TestProfile:
    def test_two_combo_definition(self, tmp_path):
        records = [
            BenchRecord("g1", "fast", 0, 0, 0, 1.0, 0, 1),
            BenchRecord("g1", "slow", 0, 0, 0, 2.0, 0, 1),
        ]
        points = performance_profile(records)
        by_combo = {}
        for pt in points:
            by_combo.setdefault(pt.combination, []).append((pt.r, pt.p))
        assert by_combo["fast"] == [(1.0, 1.0)]
        assert by_combo["slow"] == [(2.0, 1.0)]

    def test_best_on_sixty_percent(self):
        records = []
        for i in range(5):
            best_time = 1.0 if i < 3 else 2.0  # combo a best on 3 of 5 graphs
            records.append(BenchRecord(f"g{i}", "a", 0, 0, 0, best_time, 0, 1))
            records.append(BenchRecord(f"g{i}", "b", 0, 0, 0, 2.0 if i < 3 else 1.0, 0, 1))
        points = [pt for pt in performance_profile(records) if pt.combination == "a"]
        assert points[0] == pytest.approx((points[0].combination, 1.0, 0.6)[1:]) or (
            points[0].r == 1.0 and points[0].p == 0.6
        )

    def test_identical_times(self):
        records = [
            BenchRecord("g", "a", 0, 0, 0, 1.5, 0, 1),
            BenchRecord("g", "b", 0, 0, 0, 1.5, 0, 1),
        ]
        points = performance_profile(records)
        assert all(pt.r == 1.0 and pt.p == 1.0 for pt in points)

    def test_monotone_and_reaches_one(self):
        records = []
        import random

        rng = random.Random(0)
        for i in range(6):
            for combo in ("a", "b", "c"):
                records.append(BenchRecord(f"g{i}", combo, 0, 0, 0, rng.uniform(1, 3), 0, 1))
        for combo in ("a", "b", "c"):
            pts = [pt for pt in performance_profile(records) if pt.combination == combo]
            rs = [pt.r for pt in pts]
            ps = [pt.p for pt in pts]
            assert rs == sorted(rs)
            assert ps == sorted(ps)
            assert ps[-1] == 1.0
            assert all(0.0 <= p <= 1.0 for p in ps)

    def test_holes_rejected(self, tmp_path):
        records = [
            BenchRecord("g1", "a", 0, 0, 0, 1.0, 0, 1),
            BenchRecord("g1", "b", 0, 0, 0, 2.0, 0, 1),
            BenchRecord("g2", "a", 0, 0, 0, 1.0, 0, 1),
        ]
        with pytest.raises(ValueError, match="holes"):
            performance_profile(records)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, records)
        assert main(["profile", str(path)]) == EXIT_USAGE

    def test_cli_round_trip(self, tmp_path):
        records = [
            BenchRecord("g1", "fast", 0, 0, 0, 1.0, 0, 1),
            BenchRecord("g1", "slow", 0, 0, 0, 2.0, 0, 1),
        ]
        path = tmp_path / "bench.csv"
        write_bench_csv(path, records)
        out = tmp_path / "profile.csv"
        assert main(["profile", str(path), "--out", str(out)]) == EXIT_OK
        rows = _read_csv(out)
        assert rows[0] == ["combination", "r", "p"]
        assert len(rows) == 3

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        records = [
            BenchRecord("g1", "fast", 0, 0, 0, 1.0, 0, 1),
            BenchRecord("g1", "slow", 0, 0, 0, 2.0, 0, 1),
            BenchRecord("g2", "fast", 0, 0, 0, 3.0, 0, 1),
            BenchRecord("g2", "slow", 0, 0, 0, 1.5, 0, 1),
        ]
        path = tmp_path / "bench.csv"
        write_bench_csv(path, records)
        out = tmp_path / "profile.csv"
        capsys.readouterr()
        assert main(["profile", str(path)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert main(["profile", str(path), "--out", str(out)]) == EXIT_OK
        assert printed.count("\n") == 5
        assert out.read_bytes().decode() == printed


def test_usage_without_command():
    assert main([]) == EXIT_USAGE


class TestNonFiniteScores:
    """A graph whose shortest-path counts overflow float64 exits 4 and writes
    no scores, under every command that computes them."""

    @pytest.fixture
    def layered_file(self, tmp_path):
        path = tmp_path / "layered.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in layered_graph(1100).edges()))
        return path

    @pytest.mark.parametrize("combo", ["o", "odbasi"])
    def test_compute(self, layered_file, tmp_path, capsys, combo):
        out = tmp_path / "scores.csv"
        assert main(["compute", str(layered_file), "--combo", combo, "--out", str(out)]) == EXIT_NON_FINITE
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bench(self, layered_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", str(layered_file), "--combos", "o", "--reps", "1", "--out", str(out)]) == EXIT_NON_FINITE
        assert not out.exists()

    def test_verify_refuses_before_the_oracle(self, layered_file, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the oracle ran on a refused result")

        monkeypatch.setattr(cli, "bc_brute", never)
        args = ["verify", "--graph", str(layered_file), "--combos", "odbasi", "--cap", "4000"]
        assert main(args) == EXIT_NON_FINITE
