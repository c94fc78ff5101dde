"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def _command_paths(parser, path=()):
    """Every command of the tree as an argv prefix, groups included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*path, name)
                yield from _command_paths(sub, (*path, name))


COMMAND_PATHS = list(_command_paths(build_parser()))


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.what == "table1"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_nodes_override(self):
        args = build_parser().parse_args(["table3", "--nodes", "2", "4"])
        assert args.nodes == [2, 4]


class TestGrammar:
    """The one command tree: help everywhere, shared options anywhere."""

    def test_tree_has_every_command(self):
        assert {p[0] for p in COMMAND_PATHS} == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "fig1", "fig2", "all", "predict", "memory",
            "profile", "faults", "fuzz", "sweep", "flight", "history",
            "version",
        }
        assert {p for p in COMMAND_PATHS if len(p) == 2} == {
            ("faults", "run"), ("faults", "sweep"), ("faults", "attack"),
            ("fuzz", "run"), ("fuzz", "replay"), ("sweep", "profile"),
            ("flight", "list"), ("flight", "show"),
        }

    @pytest.mark.parametrize("path", [(), *COMMAND_PATHS], ids=" ".join)
    def test_help_exits_zero_and_names_sub_commands(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(" ".join(("usage: repro", *path)))
        children = [p[-1] for p in COMMAND_PATHS
                    if len(p) == len(path) + 1 and p[:-1] == path]
        for name in children:
            assert f"\n    {name} " in out, name

    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "a command is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table2", "--network", "bogus"],
        ["--network", "bogus", "table2"],
        ["faults", "sweep", "--network", "fat-tree:x"],
    ])
    def test_bad_network_spec_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --network" in err
        if "bogus" in argv:
            for kind in ("bus", "switch", "fat-tree", "torus", "tiered"):
                assert repr(kind) in err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_fig2_needs_two_samples(self, samples, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--nodes", "2", "--samples", samples])
        assert exc.value.code == 2
        assert f"must be >= 2, got {samples}" in capsys.readouterr().err

    def test_options_before_the_command_name(self, capsys):
        argv = ["--nodes", "2", "4", "--quick", "--ledger", "L", "table3"]
        args = build_parser().parse_args(argv)
        assert (args.nodes, args.quick, args.ledger) == ([2, 4], True, "L")
        # A sub-command default never overwrites a pre-command value ...
        args = build_parser().parse_args(["--size", "50", "faults", "attack"])
        assert args.size == 50
        # ... but still applies when the option is left out.
        assert build_parser().parse_args(["faults", "attack"]).size is None


class TestErrorBoundary:
    """Typed library errors end in one `error:` line (exit 1), not a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["table3", "--nodes", "0"],
        ["faults", "run", "--nodes", "0", "--slowdown", "0.1"],
        ["profile", "--size", "0", "--nodes", "2"],
        ["memory", "--size", "-1", "--nodes", "2"],
        ["sweep", "profile", "--sizes", "0", "--no-serial", "--jobs", "1"],
        ["predict", "--target", "1.5", "--nodes", "2", "4"],
    ], ids=" ".join)
    def test_typed_error_exits_with_error_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith("error: ")


class TestCommands:
    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "sunblade-500" in out

    def test_table2_output(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        assert "speed-efficiency" in out
        assert "310" in out

    def test_table3_quick_nodes(self, capsys):
        main(["table3", "--nodes", "2"])
        out = capsys.readouterr().out
        assert "required rank" in out

    @pytest.mark.parametrize("command, title, row", [
        ("table4", "Table 3", ["2", "3", "344", "2.732e+07", "175", "0.3007"]),
        ("table5", "Table 5 (inputs)", ["2", "2", "48", "180", "0.2008"]),
    ])
    def test_one_node_count_prints_rank_rows_without_psi(
        self, command, title, row, capsys
    ):
        assert main([command, "--nodes", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert title in out
        assert row in [line.split() for line in out.splitlines()]
        assert "->" not in out  # one configuration has no transition

    def test_table7_one_node_count_prints_table6_rows_only(self, capsys):
        assert main(["table7", "--nodes", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out
        assert ["2", "3", "410"] in [line.split() for line in out.splitlines()]
        assert "Table 7" not in out  # no transition, so no psi table

    def test_table5_prints_rank_rows_then_psi(self, capsys):
        assert main(["table5", "--nodes", "2", "4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.index("Table 5 (inputs)") < out.index("sunwulf-mm-2 ->")
        assert ["4", "4", "100", "355", "0.2001"] in [
            line.split() for line in out.splitlines()
        ]

    def test_table6_and_7(self, capsys):
        main(["table7", "--nodes", "2", "4"])
        out = capsys.readouterr().out
        assert "Table 6" in out and "Table 7" in out
        assert "->" in out

    def test_fig1(self, capsys):
        main(["fig1"])
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "verification run" in out

    def test_fig2_custom_sampling(self, capsys):
        main(["fig2", "--nodes", "2", "--samples", "4"])
        out = capsys.readouterr().out
        assert "Figure 2 (2 nodes)" in out
        assert "trend read-offs" in out

    def test_all_runs_every_table(self, capsys):
        """The `all` command touches every regenerator (scaled down to
        2/4 nodes to stay fast)."""
        assert main(["all", "--nodes", "2", "4", "--samples", "4"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4",
                       "Table 5", "Table 6", "Table 7", "Figure 1",
                       "Figure 2"):
            assert marker in out
        assert "[fig2 done in" in out


class TestRunCacheFlags:
    def test_fig1_warm_cache_reports_hits(self, capsys):
        assert main(["fig1"]) == 0
        cold = capsys.readouterr().out
        assert "hit(s)" in cold and "0 hit(s)" in cold
        assert main(["fig1"]) == 0
        warm = capsys.readouterr().out
        assert "0 miss(es)" in warm and "0 hit(s)" not in warm

    def test_no_cache_flag_silences_cache_stats(self, capsys):
        assert main(["fig1", "--no-cache"]) == 0
        assert "run cache:" not in capsys.readouterr().out

    def test_parallel_jobs_accepted(self, capsys):
        assert main(["fig1", "--jobs", "2"]) == 0
        assert "hit(s)" in capsys.readouterr().out
