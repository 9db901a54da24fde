"""Smoke tests: the example scripts run end to end.

Each example's `main()` is imported and executed with stdout captured;
assertions check the headline facts each script demonstrates.
"""

import importlib.util
import shlex
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestQuickstart:
    def test_runs_and_finds_deadlock(self, capsys):
        out = run_example("quickstart", capsys)
        assert "safe and deadlock-free? False" in out
        assert "safe and deadlock-free now? True" in out


def readme_commands_on(filename: str) -> list[list[str]]:
    """Every ``python -m repro`` command line in README.md that names
    ``filename``, continuation lines joined, as argv lists."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    prefix = "PYTHONPATH=src python -m repro "
    commands = []
    for line in text.splitlines():
        if line.startswith(prefix):
            argv = shlex.split(line[len(prefix):], comments=True)
            if filename in argv:
                commands.append(argv)
    return commands


class TestReadmeQuickStart:
    def test_quick_start_analyzes_and_simulates_the_file(self):
        commands = [argv[0] for argv in readme_commands_on("examples.txn")]
        assert commands[:2] == ["analyze", "simulate"]

    @pytest.mark.parametrize(
        "argv", readme_commands_on("examples.txn"), ids=" ".join
    )
    def test_command_succeeds(self, argv, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(argv) == 0, capsys.readouterr().err


class TestPaperTour:
    def test_covers_every_figure(self, capsys):
        out = run_example("paper_tour", capsys)
        assert "Figure 1" in out
        assert "Tirri" in out
        assert "Figure 3" in out
        assert "Figure 6" in out
        assert "3 copies deadlock: True" in out


class TestSatReductionDemo:
    def test_both_polarities(self, capsys):
        out = run_example("sat_reduction_demo", capsys)
        assert "SAT:" in out
        assert "UNSAT" in out
        assert "decoded back from the cycle" in out


class TestCommitProtocols:
    def test_commit_cost_story(self, capsys):
        out = run_example("commit_protocols", capsys)
        assert "two-phase" in out
        assert "presumed-abort" in out
        assert "crashing sites" in out
        assert "blocked-on-coordinator" in out


class TestReplicationProtocols:
    def test_availability_story(self, capsys):
        out = run_example("replication_protocols", capsys)
        assert "rowa-available" in out
        assert "quorum" in out
        assert "site-crash schedule" in out
        assert "full-service availability" in out
        # reliable sites: every protocol fully available
        assert out.count("1.000  1.000    1.000") == 3


class TestOpenSystemSweep:
    def test_open_system_story(self, capsys):
        out = run_example("open_system_sweep", capsys)
        assert "open-system run" in out
        assert "400/400" in out
        assert "thruput" in out
        assert "saturate" in out


@pytest.mark.slow
class TestBankingAudit:
    def test_repair_story(self, capsys):
        out = run_example("banking_audit", capsys)
        assert "safe and deadlock-free? False" in out
        assert "certified now? True" in out
        assert "0 deadlocks, 0 non-serializable" in out


class TestTracingRun:
    def test_observability_story(self, capsys):
        out = run_example("tracing_run", capsys)
        assert "identical to the unobserved run: True" in out
        assert "abort causes: detected=" in out
        assert "chrome trace:" in out
        assert "integrates back to the run's own aggregate: True" in out
        assert "deadlock-detected" in out


class TestContentionAnalysis:
    def test_contention_story(self, capsys):
        out = run_example("contention_analysis", capsys)
        assert "conserved exactly" in out and "True" in out
        assert "designed hotspot: e0; detected: e0" in out
        assert "blocked" in out and "behind" in out
        assert "wound:" in out
        assert "reproduces the online summary: True" in out


class TestDurableRecovery:
    def test_recovery_story(self, capsys):
        out = run_example("durable_recovery", capsys)
        assert "durable recovery" in out
        assert "two-phase" in out and "paxos-commit" in out
        assert "re-acquired exactly the log-implied locks: True" in out
        assert "presumed-abort logs nothing about aborting rounds: True" in out
        # The crashing run actually exercised inquiry resolution.
        assert "in-doubt participants resolved by inquiry: 0" not in out


class TestPartitionTolerance:
    def test_partition_story(self, capsys):
        out = run_example("partition_tolerance", capsys)
        assert "site s0 cut off" in out
        assert "two-phase" in out and "quorum" in out
        assert "quorum rides through: True" in out
        assert "all converge after the heal: True" in out
