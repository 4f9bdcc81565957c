"""Checkpoint/resume: atomic snapshots, typed loads, bit-exact resumes.

The ``--resume`` contract from :mod:`repro.resilience.checkpoint`: a
run killed between checkpoints resumes from the last snapshot and
produces **exactly** the history, population and report of the run that
was never interrupted.  The mid-run snapshots used here are captured
live -- a progress/log callback copies the checkpoint file while the
uninterrupted run is still going, which is precisely the file a SIGKILL
would have left behind.
"""

import os
import pathlib
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.configs.suite import paper_suite
from repro.core.fsm import FSM
from repro.evolution.fitness import SuiteEvaluator, evaluate_fsm
from repro.evolution.runner import EvolutionSettings, evolve
from repro.experiments.campaign import CampaignSettings, run_campaign
from repro.grids import make_grid
from repro.resilience import (
    CheckpointError,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
)

TINY_EVOLUTION = EvolutionSettings(
    n_generations=4, pool_size=6, exchange_width=2, t_max=60, seed=0
)

TINY_CAMPAIGN = CampaignSettings(
    n_random=2, ablation_fields=2, seed=7, t_max=60,
    include_grid33=False, include_ablations=True,
)


def fsm_arrays(fsm):
    return (fsm.next_state, fsm.set_color, fsm.move, fsm.turn)


def same_fsm(a, b):
    return all(
        np.array_equal(x, y) for x, y in zip(fsm_arrays(a), fsm_arrays(b))
    )


class TestSnapshotPrimitives:
    def test_round_trip_and_kind_check(self, tmp_path):
        path = tmp_path / "snap.pkl"
        save_checkpoint(path, "evolve", {"gen": 3})
        assert load_checkpoint(path) == {"gen": 3}
        assert load_checkpoint(path, kind="evolve") == {"gen": 3}
        with pytest.raises(CheckpointError):
            load_checkpoint(path, kind="campaign")

    def test_missing_and_corrupt_files_fail_loudly(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.pkl")
        garbage = tmp_path / "garbage.pkl"
        garbage.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(garbage)
        # a valid pickle that is not a checkpoint
        impostor = tmp_path / "impostor.pkl"
        impostor.write_bytes(pickle.dumps({"state": 1}))
        with pytest.raises(CheckpointError):
            load_checkpoint(impostor)

    def test_save_is_atomic_leaving_no_tmp_behind(self, tmp_path):
        path = tmp_path / "snap.pkl"
        save_checkpoint(path, "evolve", {"gen": 1})
        save_checkpoint(path, "evolve", {"gen": 2})
        assert load_checkpoint(path)["gen"] == 2
        assert not (tmp_path / "snap.pkl.tmp").exists()

    def test_checkpointer_interval_and_final(self, tmp_path):
        path = tmp_path / "snap.pkl"
        checkpointer = Checkpointer(path, "evolve", every=2)
        states = iter(range(10))
        assert checkpointer.maybe(1, lambda: next(states)) is False
        assert checkpointer.maybe(2, lambda: next(states)) is True
        assert checkpointer.maybe(3, lambda: next(states)) is False
        checkpointer.final(lambda: "done")
        assert checkpointer.saves == 2
        assert load_checkpoint(path, kind="evolve") == "done"
        with pytest.raises(ValueError):
            Checkpointer(path, "evolve", every=0)


class TestEvolveResume:
    def test_resumed_run_is_bit_exact(self, tmp_path):
        grid = make_grid("T", 6)
        suite = paper_suite(grid, 2, n_random=2, seed=5)
        full = evolve(grid, suite, TINY_EVOLUTION)

        checkpoint = tmp_path / "run.ckpt"
        interrupted = tmp_path / "killed-at-gen-2.ckpt"

        def copy_mid_run(record):
            # when generation 3's record lands, the checkpoint on disk
            # is the generation-2 snapshot -- the file a SIGKILL between
            # checkpoints would leave behind
            if record.generation == 3:
                shutil.copy(checkpoint, interrupted)

        checkpointed = evolve(
            grid, suite, TINY_EVOLUTION,
            checkpoint_path=checkpoint, progress=copy_mid_run,
        )
        assert checkpointed.history == full.history
        assert interrupted.exists()
        mid_state = load_checkpoint(interrupted, kind="evolve")
        assert mid_state["population"].generation == 2

        resumed = evolve(
            grid, suite, TINY_EVOLUTION, resume_from=interrupted
        )
        assert resumed.history == full.history
        assert same_fsm(resumed.best.fsm, full.best.fsm)
        assert resumed.population.generation == TINY_EVOLUTION.n_generations

    def test_final_checkpoint_resumes_to_an_identical_finished_run(
        self, tmp_path
    ):
        grid = make_grid("T", 6)
        suite = paper_suite(grid, 2, n_random=2, seed=5)
        checkpoint = tmp_path / "run.ckpt"
        full = evolve(grid, suite, TINY_EVOLUTION, checkpoint_path=checkpoint)
        resumed = evolve(
            grid, suite, TINY_EVOLUTION, resume_from=checkpoint
        )
        assert resumed.history == full.history  # zero extra generations

    def test_settings_mismatch_is_refused(self, tmp_path):
        grid = make_grid("T", 6)
        suite = paper_suite(grid, 2, n_random=2, seed=5)
        checkpoint = tmp_path / "run.ckpt"
        evolve(grid, suite, TINY_EVOLUTION, checkpoint_path=checkpoint)
        from dataclasses import replace

        other = replace(TINY_EVOLUTION, seed=TINY_EVOLUTION.seed + 1)
        with pytest.raises(CheckpointError):
            evolve(grid, suite, other, resume_from=checkpoint)


class TestEvaluatorCompatibility:
    """Checkpoints written before evaluators took ``environment=`` hold
    evaluators without the attribute; they load and evaluate as before."""

    def test_evaluator_without_environment_evaluates_identically(self):
        grid = make_grid("T", 6)
        suite = paper_suite(grid, 2, n_random=3, seed=5)
        fsms = [FSM.random(np.random.default_rng(seed)) for seed in range(4)]
        current = SuiteEvaluator(grid, suite, t_max=60)
        current.evaluate_many(fsms[:2])
        old_shape = SuiteEvaluator(grid, suite, t_max=60)
        old_shape.evaluate_many(fsms[:2])
        del old_shape.__dict__["environment"]
        revived = pickle.loads(pickle.dumps(old_shape))
        assert revived.environment is None
        assert revived._key(fsms[0]) == current._key(fsms[0])
        assert revived.evaluate_many(fsms) == current.evaluate_many(fsms)
        assert revived.evaluations == current.evaluations == 4
        assert revived(fsms[3]) == evaluate_fsm(grid, fsms[3], suite, t_max=60)

    def test_old_shape_checkpoint_resumes_bit_exact(self, tmp_path):
        grid = make_grid("T", 6)
        suite = paper_suite(grid, 2, n_random=2, seed=5)
        full = evolve(grid, suite, TINY_EVOLUTION)
        checkpoint = tmp_path / "run.ckpt"
        old_shape = tmp_path / "old-shape.ckpt"

        def strip_environment(record):
            if record.generation == 3:
                state = load_checkpoint(checkpoint, kind="evolve")
                del state["population"].evaluator.__dict__["environment"]
                save_checkpoint(old_shape, "evolve", state)

        evolve(grid, suite, TINY_EVOLUTION, checkpoint_path=checkpoint,
               progress=strip_environment)
        state = load_checkpoint(old_shape, kind="evolve")
        assert "environment" not in vars(state["population"].evaluator)
        resumed = evolve(grid, suite, TINY_EVOLUTION, resume_from=old_shape)
        assert resumed.history == full.history
        assert same_fsm(resumed.best.fsm, full.best.fsm)


class TestCampaignResume:
    def test_resumed_campaign_matches_and_skips_completed_stages(
        self, tmp_path
    ):
        quiet = lambda line: None  # noqa: E731
        full = run_campaign(TINY_CAMPAIGN, log=quiet).to_dict()

        checkpoint = tmp_path / "campaign.ckpt"
        interrupted = tmp_path / "killed-mid-campaign.ckpt"

        def copy_mid_campaign(line):
            # stage 3 starting means stages 1-2 are checkpointed done
            if line.startswith("[3/5]") and not interrupted.exists():
                shutil.copy(checkpoint, interrupted)

        run_campaign(
            TINY_CAMPAIGN, log=copy_mid_campaign,
            checkpoint_path=checkpoint,
        )
        assert interrupted.exists()

        resumed_lines = []
        resumed = run_campaign(
            TINY_CAMPAIGN, log=resumed_lines.append,
            resume_from=interrupted,
        ).to_dict()
        assert any(
            "already complete (resumed)" in line for line in resumed_lines
        )
        full.pop("wall_seconds", None)
        resumed.pop("wall_seconds", None)
        assert resumed == full

    def test_campaign_settings_mismatch_is_refused(self, tmp_path):
        from dataclasses import replace

        quiet = lambda line: None  # noqa: E731
        checkpoint = tmp_path / "campaign.ckpt"
        run_campaign(TINY_CAMPAIGN, log=quiet, checkpoint_path=checkpoint)
        other = replace(TINY_CAMPAIGN, seed=TINY_CAMPAIGN.seed + 1)
        with pytest.raises(CheckpointError):
            run_campaign(other, log=quiet, resume_from=checkpoint)


class TestCliResume:
    def run_cli(self, *args, cwd):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True, text=True, timeout=300, cwd=cwd, env=env,
        )

    def test_evolve_checkpoint_then_resume(self, tmp_path):
        common = [
            "evolve", "--grid", "T", "--size", "6", "--agents", "2",
            "--fields", "2", "--generations", "2", "--t-max", "60",
            "--seed", "3", "--pool-size", "6",
        ]
        first = self.run_cli(
            *common, "--checkpoint", "run.ckpt", cwd=tmp_path
        )
        assert first.returncode == 0, first.stderr
        resumed = self.run_cli(
            *common, "--checkpoint", "run.ckpt", "--resume", "run.ckpt",
            cwd=tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr

    def test_resume_with_wrong_kind_fails_with_a_clear_error(
        self, tmp_path
    ):
        save_checkpoint(tmp_path / "campaign.ckpt", "campaign", {})
        result = self.run_cli(
            "evolve", "--grid", "T", "--size", "6", "--agents", "2",
            "--fields", "2", "--generations", "2", "--t-max", "60",
            "--resume", "campaign.ckpt", cwd=tmp_path,
        )
        assert result.returncode != 0
        combined = result.stderr + result.stdout
        assert "campaign" in combined
