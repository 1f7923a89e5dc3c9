"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.config import SCALES


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_figure_commands_exist(self):
        parser = build_parser()
        for figure_id in [f"fig{i}" for i in range(3, 12)]:
            args = parser.parse_args([figure_id, "--scale", "smoke", "--seed", "1"])
            assert args.command == figure_id
            assert args.scale == "smoke"
            assert args.seed == 1

    def test_compare_command_options(self):
        args = build_parser().parse_args(
            ["compare", "--workload", "poisson_small", "--comm-cost", "3.5", "--tasks", "40"]
        )
        assert args.workload == "poisson_small"
        assert args.comm_cost == 3.5
        assert args.tasks == 40

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--scale", "enormous"])

    def test_sim_backend_option_parses(self):
        args = build_parser().parse_args(["fig5", "--sim-backend", "event"])
        assert args.sim_backend == "event"
        args = build_parser().parse_args(["compare", "--sim-backend", "fast"])
        assert args.sim_backend == "fast"

    def test_invalid_sim_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--sim-backend", "warp"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--ga-backend", "loop"],
            ["fig5", "--policy-backend", "loop"],
            ["compare", "--sim-backend", "batch"],
            ["campaigns", "run", "--store", "s", "--figures", "fig6", "--ga-backend", "loop"],
            ["scenarios", "run", "steady-state", "--policy-backend", "vectorized"],
        ],
    )
    def test_removed_backend_options_rejected(self, argv, capsys):
        # The GA/policy kernel flags and the batch sim backend are gone:
        # argparse must refuse them rather than run the default path.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice: 'batch'" in err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        for scale in SCALES:
            assert scale in out

    def test_compare_smoke(self, capsys):
        code = main(
            [
                "compare",
                "--scale",
                "smoke",
                "--seed",
                "1",
                "--workload",
                "uniform_narrow",
                "--comm-cost",
                "2.0",
                "--tasks",
                "25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PN" in out and "makespan_mean" in out

    def test_compare_backends_print_identical_tables(self, capsys):
        outputs = {}
        for backend in ("event", "fast"):
            code = main(
                [
                    "compare",
                    "--scale",
                    "smoke",
                    "--seed",
                    "1",
                    "--workload",
                    "uniform_narrow",
                    "--comm-cost",
                    "2.0",
                    "--tasks",
                    "20",
                    "--sim-backend",
                    backend,
                ]
            )
            assert code == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["event"] == outputs["fast"]

    def test_figure4_smoke(self, capsys):
        assert main(["fig4", "--scale", "smoke", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "rebalances_per_generation" in out


class TestScenariosCLI:
    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_scenarios_run_parses_options(self):
        args = build_parser().parse_args(
            [
                "scenarios",
                "run",
                "failure-storm",
                "elastic-scale-out",
                "--scale",
                "smoke",
                "--seed",
                "3",
                "--jobs",
                "2",
                "--repeats",
                "4",
                "--schedulers",
                "EF",
                "LL",
            ]
        )
        assert args.command == "scenarios"
        assert args.scenario_command == "run"
        assert args.names == ["failure-storm", "elastic-scale-out"]
        assert args.repeats == 4
        assert args.schedulers == ["EF", "LL"]

    def test_scenarios_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenarios", "run", "failure-storm", "--schedulers", "nope"]
            )

    def test_scenarios_list_smoke(self, capsys):
        assert main(["scenarios", "list", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "failure-storm" in out
        assert "elastic-scale-out" in out
        assert "load spike" in out

    def test_scenarios_run_smoke_with_output(self, capsys, tmp_path):
        output = tmp_path / "matrix.json"
        code = main(
            [
                "scenarios",
                "run",
                "failure-storm",
                "--scale",
                "smoke",
                "--seed",
                "7",
                "--repeats",
                "1",
                "--schedulers",
                "EF",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failure-storm" in out and "conserved" in out
        assert output.exists()

    def test_scenarios_run_unknown_scenario_fails_cleanly(self, capsys):
        code = main(["scenarios", "run", "no-such-thing", "--scale", "smoke"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestExecutorOption:
    def test_executor_option_parses(self):
        args = build_parser().parse_args(["fig5", "--executor", "async"])
        assert args.executor == "async"

    def test_invalid_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--executor", "cluster"])

    def test_compare_runs_with_async_executor(self, capsys):
        code = main(
            [
                "compare",
                "--scale",
                "smoke",
                "--seed",
                "1",
                "--tasks",
                "20",
                "--comm-cost",
                "2.0",
                "--jobs",
                "2",
                "--executor",
                "async",
            ]
        )
        assert code == 0
        assert "async[2]" in capsys.readouterr().out


class TestCampaignsCLI:
    def _run_args(self, store, extra=()):
        return [
            "campaigns",
            "run",
            "--store",
            str(store),
            "--name",
            "cli-test",
            "--scenarios",
            "failure-storm",
            "--schedulers",
            "EF",
            "--repeats",
            "2",
            "--scale",
            "smoke",
            "--seed",
            "7",
            *extra,
        ]

    def test_campaigns_requires_subcommand_and_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaigns"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaigns", "run"])

    def test_campaigns_run_parses_options(self, tmp_path):
        args = build_parser().parse_args(
            self._run_args(
                tmp_path / "store",
                [
                    "--max-cells",
                    "3",
                    "--sweep",
                    "n_rebalances",
                    "0",
                    "1",
                    "--sweep-repeats",
                    "4",
                ],
            )
        )
        assert args.command == "campaigns"
        assert args.campaign_command == "run"
        assert args.max_cells == 3
        assert args.sweep == ["n_rebalances", "0", "1"]
        assert args.sweep_repeats == 4

    def test_interrupted_map_exits_130(self, capsys, monkeypatch):
        from repro import cli
        from repro.util.errors import ExperimentInterrupted

        def fake_run_figure(*args, **kwargs):
            raise ExperimentInterrupted({0: "partial"}, 5)

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        code = main(["fig6", "--scale", "smoke", "--seed", "1"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "1/5" in err

    def test_empty_campaign_fails_cleanly(self, capsys, tmp_path):
        code = main(
            ["campaigns", "run", "--store", str(tmp_path / "s"), "--name", "empty"]
        )
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_run_interrupt_resume_and_warm_rerun(self, capsys, tmp_path):
        store = tmp_path / "store"
        # Interrupt deterministically after 1 computed cell: exit code 3.
        assert main(self._run_args(store, ["--max-cells", "1"])) == 3
        out = capsys.readouterr().out
        assert "interrupted" in out and "1 computed" in out
        # Status shows the partial state.
        assert main(["campaigns", "status", "--store", str(store), "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "1/2 cells" in out and "pending" in out
        # Resume completes the rest.
        assert main(["campaigns", "resume", "--store", str(store), "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "1 cached" in out
        # Warm rerun computes nothing.
        assert main(self._run_args(store)) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out and "2 cached" in out

    def test_status_lists_campaigns(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(self._run_args(store)) == 0
        capsys.readouterr()
        assert main(["campaigns", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cli-test: complete" in out
        assert "scenario_cell" in out

    def test_resume_unknown_campaign_fails_cleanly(self, capsys, tmp_path):
        code = main(["campaigns", "resume", "--store", str(tmp_path / "s"), "nope"])
        assert code == 2
        assert "no campaign" in capsys.readouterr().err
