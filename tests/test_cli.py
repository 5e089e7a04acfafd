"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_rho_range(self, capsys):
        assert main(["--rho", "4..8"]) == 0
        out = capsys.readouterr().out
        assert "ρ(n)" in out
        for n, r in [(4, 3), (5, 3), (6, 5), (7, 6), (8, 9)]:
            assert f"{n}" in out and f"{r}" in out

    def test_rho_commas(self, capsys):
        assert main(["--rho", "5,9"]) == 0
        out = capsys.readouterr().out
        assert "10" in out  # ρ(9)

    def test_single_experiment(self, capsys):
        assert main(["E3"]) == 0
        out = capsys.readouterr().out
        assert "paper example" in out
        assert "(1, 3, 4, 2)" in out

    def test_unknown_experiment(self, capsys):
        assert main(["E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_multiple_experiments(self, capsys):
        assert main(["E1", "E10"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "exact solver" in out


@pytest.mark.slow
class TestCliFull:
    def test_default_runs_everything(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for key in ("E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10"):
            assert f"# {key}" in out


class TestApiSubcommands:
    def test_solve_table(self, capsys):
        assert main(["solve", "--n", "7", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "closed_form" in out
        assert "blocks:" in out  # single-job spelling prints the covering

    def test_solve_json_is_one_envelope(self, capsys):
        import json

        assert main(["solve", "--n", "6", "--backend", "exact", "--no-cache",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, dict)
        assert doc["status"] == "proven_optimal"
        assert len(doc["covering"]["blocks"]) == 5  # ρ(6)

    def test_sweep_json_is_always_an_array(self, capsys):
        import json

        assert main(["sweep", "--ns", "5..5", "--no-cache", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, list) and len(doc) == 1

    def test_sweep_table_rows(self, capsys):
        assert main(["sweep", "--ns", "5..7", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.count("closed_form") >= 3
        assert "blocks:" not in out

    def test_sweep_uses_cache_on_rerun(self, capsys, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        assert main(["sweep", "--ns", "5..6", "--cache", cache, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--ns", "5..6", "--cache", cache, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first  # byte-identical envelopes
        assert "[cache] hit" in captured.err

    def test_invalid_spec_prints_friendly_error(self, capsys):
        assert main(["solve", "--n", "2", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_unroutable_spec_prints_friendly_error(self, capsys):
        # n = 18 clears every certifying ceiling, SAT tier included.
        assert main(["solve", "--n", "18", "--lam", "2", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "require_optimal" in err

    def test_rho_subcommand(self, capsys):
        assert main(["rho", "4..6"]) == 0
        assert "ρ(n)" in capsys.readouterr().out

    def test_experiments_list_subcommand(self, capsys):
        assert main(["experiments", "--list"]) == 0
        assert "E10" in capsys.readouterr().out


class TestObjectiveCli:
    def test_objectives_listing(self, capsys):
        assert main(["objectives"]) == 0
        out = capsys.readouterr().out
        assert "min_blocks" in out and "min_total_size" in out
        assert "slot_counting+end_parity" in out
        assert "closed_form" in out and "heuristic" in out

    def test_solve_min_total_size_json(self, capsys):
        assert main([
            "solve", "--n", "7", "--objective", "min_total_size",
            "--no-cache", "--json",
        ]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert payload["version"] == "1.1"
        assert payload["spec"]["objective"] == "min_total_size"
        assert payload["objective_value"] == 21
        assert payload["lower_bound"] == 21

    def test_solve_allowed_sizes_table(self, capsys):
        assert main([
            "solve", "--n", "6", "--allowed-sizes", "3", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "proven_optimal" in out
        assert "value" in out  # the objective-axis column appears

    def test_bad_allowed_sizes_is_friendly(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--n", "6", "--allowed-sizes", "three"])
        err = capsys.readouterr().err
        assert "comma-separated integers" in err

    def test_min_blocks_table_shape_unchanged(self, capsys):
        assert main(["solve", "--n", "7", "--no-cache"]) == 0
        header = [
            line for line in capsys.readouterr().out.splitlines() if "backend" in line
        ][0]
        assert "value" not in header


class TestRangeArguments:
    """``sweep --ns``, ``rho RANGE`` and legacy ``--rho`` share one
    argparse type: a malformed or empty range is a usage error (exit 2),
    never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "a..b"],
            ["rho", "5,,7"],
            ["sweep", "--ns", "4..x", "--no-cache"],
            ["--rho", "x"],
            ["sweep", "--ns", "8..4", "--no-cache"],
            ["rho", "9..5"],
        ],
    )
    def test_malformed_range_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "Traceback" not in err

    def test_rho_below_three_is_a_one_line_error(self, capsys):
        assert main(["rho", "0..3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_sweep_below_three_keeps_the_friendly_error(self, capsys):
        assert main(["sweep", "--ns", "2..5", "--no-cache"]) == 1
        assert capsys.readouterr().err.startswith("error:")
