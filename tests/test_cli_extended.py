"""Tests for the show/repair CLI subcommands and simulator options."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.io.textfmt import parse_system

BROKEN = """
schema s1: x y

txn T1
  seq Lx Ly Ux Uy
end

txn T2
  seq Ly Lx Uy Ux
end
"""


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.txn"
    path.write_text(BROKEN)
    return str(path)


class TestShow:
    def test_text(self, broken_file, capsys):
        assert main(["show", broken_file]) == 0
        out = capsys.readouterr().out
        assert "txn T1" in out
        parse_system(out)  # output is valid input

    def test_json(self, broken_file, capsys):
        assert main(["show", broken_file, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"transactions"' in out

    def test_dot(self, broken_file, capsys):
        assert main(["show", broken_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")


class TestRepair:
    def test_repair_output_is_certified(self, broken_file, capsys):
        assert main(["repair", broken_file]) == 0
        out = capsys.readouterr().out
        assert "# repaired" in out
        body = "\n".join(
            line for line in out.splitlines()
            if not line.startswith("#")
        )
        repaired = parse_system(body)
        from repro.analysis.fixed_k import check_system

        assert check_system(repaired)

    def test_repair_with_optimize(self, broken_file, capsys):
        assert main(["repair", broken_file, "--optimize"]) == 0
        out = capsys.readouterr().out
        assert "early-unlock" in out

    def test_repair_noop_when_safe(self, tmp_path, capsys):
        path = tmp_path / "safe.txn"
        path.write_text(
            "txn T1\n  seq Lx Ly Uy Ux\nend\n"
            "txn T2\n  seq Lx Ly Ux Uy\nend\n"
        )
        assert main(["repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no repair needed" in out


class TestSimulateNetworkDelay:
    def test_flag_accepted(self, broken_file, capsys):
        code = main(
            [
                "simulate", broken_file,
                "--policies", "wound-wait",
                "--network-delay", "2.5",
            ]
        )
        assert code == 0
        assert "wound-wait" in capsys.readouterr().out


class TestBadInputIsOneLine:
    """Bad input exits 2 with a one-line message, not a traceback."""

    @staticmethod
    def _run(*argv):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env,
        )

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("txn T\n  seq Lx Lx Ux\nend\n", "line 1: T: two Lock"),
            ("txn T\n  seq Lx Ux\n", "txn 'T' not closed"),
            ("schema s1: x\nschema s2: x\n", "placed at two sites"),
        ],
    )
    def test_parse_error(self, tmp_path, text, fragment):
        path = tmp_path / "bad.txn"
        path.write_text(text)
        proc = self._run("simulate", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith(f"repro simulate: {path}: line ")
        assert fragment in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_invalid_config_value(self, broken_file):
        proc = self._run("simulate", broken_file, "--commit-timeout", "0")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr == (
            "repro simulate: commit_timeout must be > 0, got 0.0\n"
        )


class TestSimulateOpenSystem:
    ARGS = [
        "simulate", "--arrival-rate", "1.0", "--max-transactions", "30",
        "--warmup", "5", "--entities", "8", "--sites", "3",
        "--policies", "wound-wait",
    ]

    def test_file_optional_with_arrival_rate(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "thruput" in out
        assert "p99" in out
        assert "30/30" in out

    def test_file_required_without_arrival_rate(self, capsys):
        assert main(["simulate", "--policies", "wound-wait"]) == 2
        assert "--arrival-rate" in capsys.readouterr().err

    def test_file_seeds_the_open_run(self, broken_file, capsys):
        # The file goes before the nargs="+" flags so argparse cannot
        # swallow it into --policies.
        assert main([self.ARGS[0], broken_file, *self.ARGS[1:]]) == 0
        out = capsys.readouterr().out
        assert "32/32" in out  # 2 batch transactions + 30 arrivals

    def test_closed_mode_table_unchanged(self, broken_file, capsys):
        assert main(
            ["simulate", broken_file, "--policies", "wound-wait"]
        ) == 0
        out = capsys.readouterr().out
        assert "serializable" in out  # closed-batch table, not open


class TestSimulateDurability:
    def test_fault_rates_apply_without_flush_time(self, tmp_path, capsys):
        # The storage-fault rates must reach the run even when the
        # flush cost is left at its default.
        import json

        trace = tmp_path / "wal.jsonl"
        assert main([
            *TestSimulateOpenSystem.ARGS,
            "--commit", "two-phase",
            "--failure-rate", "0.05", "--repair-time", "5",
            "--amnesia-rate", "1",
            "--trace-jsonl", str(trace),
        ]) == 0
        capsys.readouterr()
        wipes = [
            record["value"]
            for record in map(json.loads, trace.read_text().splitlines())
            if record.get("kind") == "counter"
            and record.get("name") == "amnesia_wipes"
        ]
        assert wipes and max(wipes) > 0


class TestSweep:
    ARGS = [
        "sweep", "--policies", "wound-wait", "wait-die",
        "--arrival-rates", "0.5", "1.0", "--seeds", "0", "1",
        "--max-transactions", "25", "--warmup", "5",
        "--entities", "8", "--sites", "3", "--serial",
    ]

    def test_grid_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "sweep: 8 cells" in out
        assert out.count("wound-wait") == 4  # one row per cell
        assert "thruput" in out

    def test_json_and_csv_output(self, tmp_path, capsys):
        import csv
        import json

        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        assert main(
            [*self.ARGS, "--json", str(json_path), "--csv", str(csv_path)]
        ) == 0
        document = json.loads(json_path.read_text())
        assert len(document["cells"]) == 8
        with open(csv_path, newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 8

    def test_closed_batch_cells(self, capsys):
        assert main([
            "sweep", "--policies", "wound-wait",
            "--arrival-rates", "0", "--seeds", "0",
            "--batch", "5", "--entities", "8", "--sites", "3",
            "--serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "5/5" in out
