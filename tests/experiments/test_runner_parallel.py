"""Parallel trial executor: bit-identity, retries, checkpoint/resume.

The invariant under test everywhere: because trial seeds are
position-derived, the runner's output is a pure function of
(sites, n_samples, master_seed, trial_fn) — the worker count only
changes wall-clock time.
"""

import numpy as np
import pytest

from repro.capture.serialize import save_dataset
from repro.errors import TrialError
from repro.experiments.runner import (
    ResilientRunner,
    RetryPolicy,
    RunnerConfig,
    collect_resilient,
    execute_trial,
)
from repro.web.pageload import PageLoadConfig, visit_seed_rng
from tests.experiments.test_runner import datasets_equal, synthetic_trial_fn

SITES = ["bing.com", "github.com"]


# Module-level (hence picklable) trial functions for pool workers.


def permanently_failing_trial(label, index, rng, watchdog):
    if label == "github.com" and index == 1:
        raise TrialError("permanent")
    return synthetic_trial_fn(label, index, rng, watchdog)


def coin_flip_trial(label, index, rng, watchdog):
    """Fails or succeeds deterministically per (coordinate, attempt):
    the retry/stall accounting must match serial bit for bit."""
    if int(rng.integers(0, 3)) == 0:
        raise TrialError("transient")
    return synthetic_trial_fn(label, index, rng, watchdog)


def no_sleep_runner(config):
    return ResilientRunner(config, sleep=lambda s: None)


def test_parallel_collection_bit_identical(tmp_path):
    serial, serial_report = no_sleep_runner(RunnerConfig(workers=1)).collect(
        SITES, 6, synthetic_trial_fn, master_seed=13
    )
    fanned, fanned_report = no_sleep_runner(RunnerConfig(workers=2)).collect(
        SITES, 6, synthetic_trial_fn, master_seed=13
    )
    assert datasets_equal(serial, fanned)
    p1, p2 = tmp_path / "serial.npz", tmp_path / "fanned.npz"
    save_dataset(serial, str(p1))
    save_dataset(fanned, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert serial_report.completed_trials == fanned_report.completed_trials == 12


def test_parallel_chunk_size_never_changes_results():
    baseline, _ = no_sleep_runner(RunnerConfig(workers=1)).collect(
        SITES, 5, synthetic_trial_fn, master_seed=3
    )
    for chunk_size in (1, 3, 100):
        fanned, _ = no_sleep_runner(
            RunnerConfig(workers=2, chunk_size=chunk_size)
        ).collect(SITES, 5, synthetic_trial_fn, master_seed=3)
        assert datasets_equal(baseline, fanned)


def test_parallel_retry_and_failure_accounting_matches_serial():
    config = RunnerConfig(retry=RetryPolicy(max_attempts=2, backoff_base=0.0))
    serial, serial_report = no_sleep_runner(config).collect(
        SITES, 6, coin_flip_trial, master_seed=21
    )
    fanned, fanned_report = ResilientRunner(
        RunnerConfig(retry=config.retry, workers=2)
    ).collect(SITES, 6, coin_flip_trial, master_seed=21)
    assert datasets_equal(serial, fanned)
    assert serial_report.retries == fanned_report.retries
    assert serial_report.stalls == fanned_report.stalls
    assert [
        (f.label, f.index, f.attempts, f.error) for f in serial_report.failures
    ] == [(f.label, f.index, f.attempts, f.error) for f in fanned_report.failures]


def test_parallel_failures_sorted_deterministically():
    _, report = ResilientRunner(
        RunnerConfig(retry=RetryPolicy(max_attempts=1), workers=2, chunk_size=1)
    ).collect(SITES, 3, permanently_failing_trial, master_seed=0)
    assert [(f.label, f.index) for f in report.failures] == [("github.com", 1)]


def test_checkpoint_written_parallel_resumes_serial(tmp_path):
    """Worker count is not part of the checkpoint contract: a run may
    checkpoint with N workers and resume with M."""
    checkpoint = str(tmp_path / "run.ckpt.npz")
    uninterrupted, _ = no_sleep_runner(RunnerConfig(workers=1)).collect(
        SITES, 4, synthetic_trial_fn, master_seed=9
    )
    # Parallel partial run: every chunk checkpoints, then interrupt.
    calls = {"n": 0}

    def interrupting(label, index, rng, watchdog):
        if calls["n"] >= 3:
            raise KeyboardInterrupt()
        calls["n"] += 1
        return synthetic_trial_fn(label, index, rng, watchdog)

    # The interrupting closure is not picklable state across processes,
    # so drive the partial phase serially and the resume in parallel —
    # the checkpoint file is identical either way.
    with pytest.raises(KeyboardInterrupt):
        no_sleep_runner(
            RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint)
        ).collect(SITES, 4, interrupting, master_seed=9)
    resumed, report = ResilientRunner(
        RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint, workers=2)
    ).collect(SITES, 4, synthetic_trial_fn, master_seed=9, resume=True)
    assert report.resumed_trials == 3
    assert datasets_equal(resumed, uninterrupted)


def test_parallel_then_serial_resume_roundtrip(tmp_path):
    checkpoint = str(tmp_path / "run.ckpt.npz")
    full, _ = no_sleep_runner(RunnerConfig(workers=1)).collect(
        SITES, 3, synthetic_trial_fn, master_seed=2
    )
    # Complete parallel run writes a final checkpoint; a serial resume
    # finds nothing left to do and reproduces the dataset exactly.
    first, _ = ResilientRunner(
        RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint, workers=2)
    ).collect(SITES, 3, synthetic_trial_fn, master_seed=2)
    resumed, report = no_sleep_runner(
        RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint)
    ).collect(SITES, 3, synthetic_trial_fn, master_seed=2, resume=True)
    assert report.resumed_trials == 6
    assert report.completed_trials == 6
    assert datasets_equal(first, full)
    assert datasets_equal(resumed, full)


def test_execute_trial_reseeds_per_attempt():
    seen = []

    def failing(label, index, rng, watchdog):
        seen.append(int(rng.integers(0, 2**31)))
        raise TrialError("always")

    outcome = execute_trial(
        failing, "bing.com", 0, 5, RetryPolicy(max_attempts=3),
        sleep=lambda s: None,
    )
    assert outcome.trace is None
    assert outcome.failure is not None
    assert outcome.retries == 2
    assert len(set(seen)) == 3
    expected = [
        int(visit_seed_rng(5, "bing.com", 0, attempt).integers(0, 2**31))
        for attempt in range(3)
    ]
    assert seen == expected


def test_real_pageloads_parallel_identical_to_serial(tmp_path):
    """End-to-end: real simulated page loads through the pool match the
    in-process path byte for byte once serialised."""
    config = PageLoadConfig()
    serial, _ = collect_resilient(
        SITES, 1, pageload_config=config, seed=4,
        runner_config=RunnerConfig(workers=1),
    )
    fanned, _ = collect_resilient(
        SITES, 1, pageload_config=config, seed=4,
        runner_config=RunnerConfig(workers=2),
    )
    p1, p2 = tmp_path / "serial.npz", tmp_path / "fanned.npz"
    save_dataset(serial, str(p1))
    save_dataset(fanned, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_workers_zero_resolves_to_cores():
    dataset, _ = ResilientRunner(RunnerConfig(workers=0)).collect(
        SITES, 2, synthetic_trial_fn, master_seed=1
    )
    baseline, _ = no_sleep_runner(RunnerConfig(workers=1)).collect(
        SITES, 2, synthetic_trial_fn, master_seed=1
    )
    assert datasets_equal(dataset, baseline)
