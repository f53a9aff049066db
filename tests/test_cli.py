"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "stream"])
        assert args.programs == ["stream"]
        assert args.noise == pytest.approx(0.01)

    def test_schedule_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "Q1", "--method", "magic"])


class TestDomainErrors:
    """A ``repro.errors`` exception raised by a subcommand is a bad
    input, not a crash: one ``<command>: error:`` line, exit code 2."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["train", "--episodes", "0"],
                     "episode budget must be positive", id="train"),
        pytest.param(["fleet", "--nodes", "0"],
                     "joint trainer sizes must be positive", id="fleet"),
    ])
    def test_one_stderr_line_and_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{argv[0]}: error: {message}"]


class TestCommands:
    def test_profile_subset(self, capsys):
        assert main(["profile", "stream", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "stream" in out and "kmeans" in out

    def test_profile_saves_repository(self, tmp_path, capsys):
        out_file = tmp_path / "repo.json"
        assert main(["profile", "stream", "--output", str(out_file)]) == 0
        assert out_file.exists()
        from repro.profiling.repository import ProfileRepository

        assert len(ProfileRepository.load(out_file)) == 1

    def test_classify(self, capsys):
        assert main(["classify"]) == 0
        out = capsys.readouterr().out
        assert out.count("CI:") == 1
        assert "stream" in out

    def test_variants(self, capsys):
        assert main(["variants", "--c-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "19" not in out or True
        assert "MIG GI configurations" in out
        assert "C=2" in out and "C=3" in out

    def test_train_tiny(self, tmp_path, capsys):
        out_file = tmp_path / "agent.npz"
        rc = main(
            [
                "train",
                "--window", "4",
                "--queues", "2",
                "--episodes", "5",
                "--output", str(out_file),
            ]
        )
        assert rc == 0
        assert out_file.exists()
        from repro.rl.checkpoint import load_agent

        restored = load_agent(out_file)
        assert restored.config.n_actions == 29

    def test_schedule_unknown_queue(self, capsys):
        assert main(["schedule", "Q99", "--method", "timeshare"]) == 2

    def test_schedule_timeshare(self, capsys):
        assert main(["schedule", "Q1", "--method", "timeshare"]) == 0
        out = capsys.readouterr().out
        assert "throughput x1.000" in out

    def test_schedule_mig(self, capsys):
        assert main(["schedule", "Q1", "--method", "mig"]) == 0
        out = capsys.readouterr().out
        assert "throughput x" in out
