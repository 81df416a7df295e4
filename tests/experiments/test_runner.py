"""Resilient-runner tests: determinism, resume, retries, failure log."""

import numpy as np
import pytest

from repro.capture.serialize import save_dataset
from repro.capture.trace import Trace
from repro.errors import TrialError
from repro.experiments.runner import (
    CollectionReport,
    PageLoadTrial,
    ResilientRunner,
    RetryPolicy,
    RunnerConfig,
    TrialDeadlineExceeded,
    collect_resilient,
)
from repro.web.pageload import (
    PageLoadConfig,
    PageLoadStalled,
    load_page_result,
    visit_seed_rng,
)
from repro.web.sites import SITE_CATALOG

SITES = ["bing.com", "github.com"]


def synthetic_trial_fn(label, index, rng, watchdog):
    """A fast deterministic trial: a tiny rng-derived trace."""
    n = int(rng.integers(5, 15))
    times = np.cumsum(rng.exponential(0.01, n))
    dirs = np.where(rng.random(n) < 0.7, -1, 1).astype(np.int8)
    sizes = rng.integers(60, 1500, n)
    return Trace(times - times[0], dirs, sizes)


def datasets_equal(a, b) -> bool:
    if a.labels != b.labels:
        return False
    for label in a.labels:
        left, right = a.traces[label], b.traces[label]
        if len(left) != len(right):
            return False
        for t1, t2 in zip(left, right):
            if not (
                np.array_equal(t1.times, t2.times)
                and np.array_equal(t1.directions, t2.directions)
                and np.array_equal(t1.sizes, t2.sizes)
            ):
                return False
    return True


def no_sleep_runner(config=None):
    return ResilientRunner(config, sleep=lambda s: None)


# -- retry / backoff / failure log -------------------------------------------


def test_retry_policy_backoff_shape():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.5, backoff_factor=2.0,
                         backoff_max=3.0)
    assert policy.delay(1) == 0.5
    assert policy.delay(2) == 1.0
    assert policy.delay(3) == 2.0
    assert policy.delay(4) == 3.0  # capped


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


def test_flaky_trial_is_retried_with_fresh_seed_and_backoff():
    attempts = []
    slept = []

    def flaky(label, index, rng, watchdog):
        attempts.append(int(rng.integers(0, 2**31)))  # proves reseeding
        if len(attempts) < 3:
            raise TrialError("transient")
        return synthetic_trial_fn(label, index, rng, watchdog)

    runner = ResilientRunner(
        RunnerConfig(retry=RetryPolicy(max_attempts=3, backoff_base=0.1)),
        sleep=slept.append,
    )
    dataset, report = runner.collect(["bing.com"], 1, flaky, master_seed=0)
    assert dataset.num_traces == 1
    assert report.retries == 2
    assert len(set(attempts)) == 3, "each attempt must draw a fresh seed"
    assert slept == [pytest.approx(0.1), pytest.approx(0.2)]
    assert report.failures == []


def test_exhausted_budget_lands_in_structured_failure_log():
    def always_stalling(label, index, rng, watchdog):
        if label == "bing.com" and index == 1:
            result = load_page_result(
                SITE_CATALOG[label], PageLoadConfig(max_duration=0.05), rng
            )
            raise PageLoadStalled(label, result)
        return synthetic_trial_fn(label, index, rng, watchdog)

    runner = no_sleep_runner(RunnerConfig(retry=RetryPolicy(max_attempts=2)))
    dataset, report = runner.collect(SITES, 2, always_stalling, master_seed=1)
    # The run completes gracefully with reduced samples...
    assert dataset.num_traces == 3
    assert len(dataset.traces["bing.com"]) == 1
    # ...and reports exactly which trial was dropped.
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert (failure.label, failure.index) == ("bing.com", 1)
    assert failure.attempts == 2
    assert failure.error == "PageLoadStalled"
    assert report.stalls == 2


def test_wall_clock_deadline_aborts_via_watchdog():
    ticks = iter(range(100))

    def deadline_trial(label, index, rng, watchdog):
        for _ in range(10):
            watchdog()
        return synthetic_trial_fn(label, index, rng, watchdog)

    runner = ResilientRunner(
        RunnerConfig(
            retry=RetryPolicy(max_attempts=1),
            trial_wall_deadline=3.0,
        ),
        sleep=lambda s: None,
        clock=lambda: float(next(ticks)),
    )
    dataset, report = runner.collect(["bing.com"], 1, deadline_trial, master_seed=0)
    assert dataset.num_traces == 0
    assert report.failures[0].error == "TrialDeadlineExceeded"


# -- determinism and resume ---------------------------------------------------


def test_trial_seeds_depend_only_on_position():
    a = visit_seed_rng(7, "bing.com", 3, 0).integers(0, 2**31)
    b = visit_seed_rng(7, "bing.com", 3, 0).integers(0, 2**31)
    c = visit_seed_rng(7, "bing.com", 3, 1).integers(0, 2**31)
    assert a == b != c


def test_same_seed_same_faults_byte_identical_datasets(tmp_path):
    """Two independent real collections over a bursty path must agree
    byte-for-byte once serialised (hence identical k-FP accuracy: the
    evaluation is a pure seeded function of the dataset)."""
    from repro.simnet.faults import bursty_loss_spec

    config = PageLoadConfig(fault_spec=bursty_loss_spec(), max_duration=30.0)

    def run(path):
        dataset, _ = collect_resilient(
            SITES, 2, pageload_config=config, seed=42,
            runner_config=RunnerConfig(checkpoint_every=0),
        )
        save_dataset(dataset, str(path))
        return dataset

    first = run(tmp_path / "a.npz")
    second = run(tmp_path / "b.npz")
    assert datasets_equal(first, second)
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_interrupted_run_resumes_to_identical_dataset(tmp_path):
    checkpoint = str(tmp_path / "run.ckpt.npz")
    uninterrupted, _ = no_sleep_runner().collect(
        SITES, 3, synthetic_trial_fn, master_seed=9
    )

    interrupted_after = 2
    calls = {"n": 0}

    def interrupting(label, index, rng, watchdog):
        if calls["n"] == interrupted_after:
            raise KeyboardInterrupt()
        calls["n"] += 1
        return synthetic_trial_fn(label, index, rng, watchdog)

    runner = no_sleep_runner(
        RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint)
    )
    with pytest.raises(KeyboardInterrupt):
        runner.collect(SITES, 3, interrupting, master_seed=9)

    resumed_runner = no_sleep_runner(
        RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint)
    )
    resumed, report = resumed_runner.collect(
        SITES, 3, synthetic_trial_fn, master_seed=9, resume=True
    )
    assert report.resumed_trials == interrupted_after
    assert report.completed_trials == 6
    assert datasets_equal(resumed, uninterrupted)


def test_resume_finds_checkpoint_without_npz_extension(tmp_path):
    """np.savez appends ".npz" to extension-less paths; the load side
    must look for the file that was actually written, or resume
    silently re-collects everything."""
    checkpoint = str(tmp_path / "run.ckpt")  # no .npz
    config = RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint)
    no_sleep_runner(config).collect(SITES, 2, synthetic_trial_fn, master_seed=4)
    assert (tmp_path / "run.ckpt.npz").exists()
    _, report = no_sleep_runner(config).collect(
        SITES, 2, synthetic_trial_fn, master_seed=4, resume=True
    )
    assert report.resumed_trials == 4


def test_resume_requires_checkpoint_path():
    with pytest.raises(ValueError):
        no_sleep_runner().collect(
            SITES, 1, synthetic_trial_fn, master_seed=0, resume=True
        )


def test_resume_rejects_mismatched_configuration(tmp_path):
    checkpoint = str(tmp_path / "run.ckpt.npz")
    runner = no_sleep_runner(
        RunnerConfig(checkpoint_every=1, checkpoint_path=checkpoint)
    )
    runner.collect(SITES, 1, synthetic_trial_fn, master_seed=0)
    with pytest.raises(ValueError, match="different run configuration"):
        runner.collect(SITES, 2, synthetic_trial_fn, master_seed=0, resume=True)


def test_resume_with_missing_checkpoint_starts_fresh(tmp_path):
    checkpoint = str(tmp_path / "never_written.npz")
    runner = no_sleep_runner(
        RunnerConfig(checkpoint_every=0, checkpoint_path=checkpoint)
    )
    dataset, report = runner.collect(
        SITES, 1, synthetic_trial_fn, master_seed=3, resume=True
    )
    assert report.resumed_trials == 0
    assert dataset.num_traces == 2


def test_failures_survive_resume(tmp_path):
    checkpoint = str(tmp_path / "run.ckpt.npz")

    def failing(label, index, rng, watchdog):
        if label == "bing.com" and index == 0:
            raise TrialError("permanent")
        return synthetic_trial_fn(label, index, rng, watchdog)

    config = RunnerConfig(
        retry=RetryPolicy(max_attempts=2), checkpoint_every=1,
        checkpoint_path=checkpoint,
    )
    _, first_report = no_sleep_runner(config).collect(
        SITES, 2, failing, master_seed=5
    )
    assert len(first_report.failures) == 1
    resumed, report = no_sleep_runner(config).collect(
        SITES, 2, synthetic_trial_fn, master_seed=5, resume=True
    )
    # The failed trial is remembered, not silently re-run.
    assert len(report.failures) == 1
    assert resumed.num_traces == 3


def test_report_summary_mentions_key_counts():
    report = CollectionReport(completed_trials=5, retries=2, stalls=1)
    text = report.summary()
    assert "5 trials" in text and "2 retries" in text and "1 stalls" in text


def test_pageload_trial_fn_runs_a_real_load():
    trial = PageLoadTrial(PageLoadConfig())
    trace = trial("bing.com", 0, np.random.default_rng(0), None)
    assert len(trace) > 0
