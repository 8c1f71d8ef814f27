"""CLI crash-safety: checkpoint/resume, signals, journals, verify-run."""

import json

import pytest

from repro.cli import main
from repro.experiments import runner as runner_module


SMALL = ["simulate", "--log", "theta", "--jobs", "30", "--allocator", "balanced"]


def saved_json(tmp_path, name="theta_balanced.json"):
    return json.loads((tmp_path / name).read_text())


class TestPauseResume:
    def test_pause_then_resume_matches_uninterrupted(self, tmp_path, capsys):
        straight = tmp_path / "straight"
        assert main(SMALL + ["--save", str(straight)]) == 0

        ckpt = tmp_path / "ckpt.json"
        code = main(
            SMALL
            + [
                "--checkpoint-path", str(ckpt),
                "--stop-after-events", "10",
            ]
        )
        assert code == 0
        assert "paused after 10 event batches" in capsys.readouterr().out
        assert ckpt.exists()

        resumed = tmp_path / "resumed"
        code = main(
            [
                "simulate",
                "--log", "theta",
                "--resume-from", str(ckpt),
                "--save", str(resumed),
            ]
        )
        assert code == 0
        assert saved_json(resumed) == saved_json(straight)

    def test_checkpoint_every_requires_path(self, capsys):
        assert main(SMALL + ["--checkpoint-every", "5"]) == 2
        assert "--checkpoint-path" in capsys.readouterr().err

    def test_resume_from_missing_file(self, tmp_path, capsys):
        code = main(["simulate", "--resume-from", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_path_and_dir_are_mutually_exclusive(self, tmp_path, capsys):
        code = main(
            SMALL
            + [
                "--checkpoint-path", str(tmp_path / "ckpt.json"),
                "--checkpoint-dir", str(tmp_path / "ckpts"),
            ]
        )
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err


class TestCheckpointDir:
    def pause_into(self, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        code = main(
            SMALL
            + [
                "--checkpoint-dir", str(ckpts),
                "--checkpoint-every", "5",
                "--stop-after-events", "15",
            ]
        )
        assert code == 0
        capsys.readouterr()
        return ckpts

    def test_pause_writes_generations(self, tmp_path, capsys):
        ckpts = self.pause_into(tmp_path, capsys)
        assert sorted(p.name for p in ckpts.iterdir()) == [
            "ckpt-00000005.json", "ckpt-00000010.json", "ckpt-00000015.json",
        ]

    def test_resume_from_directory_falls_back_past_corruption(
        self, tmp_path, capsys
    ):
        straight = tmp_path / "straight"
        assert main(SMALL + ["--save", str(straight)]) == 0
        ckpts = self.pause_into(tmp_path, capsys)

        newest = ckpts / "ckpt-00000015.json"
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        newest.write_bytes(bytes(blob))

        resumed = tmp_path / "resumed"
        code = main(
            [
                "simulate",
                "--log", "theta",
                "--resume-from", str(ckpts),
                "--save", str(resumed),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "skipping corrupt checkpoint" in err
        assert "falling back to last good checkpoint" in err
        assert "ckpt-00000010.json" in err
        assert saved_json(resumed) == saved_json(straight)


class TestValidateInvariants:
    def test_clean_run_passes(self, capsys):
        code = main(SMALL + ["--validate-invariants", "5", "--fault-rate", "2.0"])
        assert code == 0

    def test_flag_without_value_defaults_to_every_batch(self, capsys):
        assert main(SMALL + ["--validate-invariants"]) == 0

    def test_violation_exits_1(self, monkeypatch, capsys):
        from repro import validate as validate_module
        from repro.validate import InvariantViolation

        def broken(self, engine, rs):
            raise InvariantViolation(["leaf-free-conservation: forged drift"])

        monkeypatch.setattr(
            validate_module.InvariantChecker, "check_engine", broken
        )
        code = main(SMALL + ["--validate-invariants", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "invariant" in err
        assert "leaf-free-conservation" in err
        assert "Traceback" not in err


class TestQuarantineCli:
    def test_quarantined_cell_exits_1_and_is_named(self, monkeypatch, capsys):
        from repro.runs import PartialResults

        def partial(*args, **kwargs):
            return PartialResults({}, {}, {"balanced": "cell exploded"})

        monkeypatch.setattr(runner_module, "continuous_runs", partial)
        monkeypatch.setattr("repro.cli.continuous_runs", partial)
        code = main(
            SMALL + ["--on-task-error", "quarantine", "--max-retries", "1"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "quarantined cell" in err
        assert "cell exploded" in err
        assert "Traceback" not in err


class TestFailedCellCli:
    """A cell that exhausts its attempts is 'ran, but degraded' (exit 1)."""

    def test_simulate_failed_cell_exits_1_without_traceback(
        self, monkeypatch, capsys
    ):
        def boom(cfg, name, jobs):
            raise RuntimeError(f"{name} cell exploded")

        monkeypatch.setattr(runner_module, "_continuous_worker", boom)
        code = main(SMALL + ["--max-retries", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: task 'default' failed after 2 attempt(s)" in err
        assert "cell exploded" in err
        assert "Traceback" not in err

    def test_sweep_failed_cell_exits_1_without_traceback(
        self, monkeypatch, capsys
    ):
        from repro.experiments import sweeps as sweeps_module

        def boom(cfg):
            raise RuntimeError("point exploded")

        monkeypatch.setattr(sweeps_module, "_sweep_point_worker", boom)
        code = main(["sweep", "--param", "seed=0", "--default", "n_jobs=10",
                     "--allocators", "default"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: task 'seed=0' failed after 1 attempt(s)" in err
        assert "Traceback" not in err

    def test_config_error_is_not_retried(self, capsys):
        code = main(
            ["simulate", "--jobs", "5", "--allocator", "balanced",
             "--interrupt-policy", "checkpoint", "--checkpoint-interval", "-1",
             "--max-retries", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "error: checkpoint_interval must be > 0, got -1.0"
        ]


class TestInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_module, "continuous_runs", boom)
        monkeypatch.setattr("repro.cli.continuous_runs", boom)
        assert main(SMALL) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err


class TestVerifyRun:
    def journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(SMALL + ["--journal", str(path), "--max-retries", "1"]) == 0
        return path

    def test_verify_ok(self, tmp_path, capsys):
        path = self.journal(tmp_path)
        assert main(["verify-run", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_sample(self, tmp_path, capsys):
        path = self.journal(tmp_path)
        assert main(["verify-run", str(path), "--sample", "1"]) == 0

    def test_verify_detects_digest_drift(self, tmp_path, capsys):
        from repro.runs.integrity import ENTRY_CHECKSUM_FIELD, checksum_entry

        path = self.journal(tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            entry = json.loads(line)
            if entry["kind"] == "result":
                entry["digest"] = "sha256:" + "0" * 64
                # Re-checksum: this models genuine nondeterminism (a
                # validly written journal whose digest drifted), not
                # file corruption — which would exit 3 instead.
                entry.pop(ENTRY_CHECKSUM_FIELD, None)
                entry[ENTRY_CHECKSUM_FIELD] = checksum_entry(entry)
                lines[i] = json.dumps(entry, sort_keys=True)
                break
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify-run", str(path)]) == 1

    def test_verify_missing_journal(self, tmp_path, capsys):
        assert main(["verify-run", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_corrupt_journal_exits_3(self, tmp_path, capsys):
        path = self.journal(tmp_path)
        # Flip a byte in the middle of the first line: a checksum
        # failure, not digest drift, so the exit code must say
        # "artifact corrupt" (3) rather than "results differ" (1).
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"\n") // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["verify-run", str(path)]) == 3
        captured = capsys.readouterr()
        assert "integrity error" in captured.err
        assert "Traceback" not in captured.err
