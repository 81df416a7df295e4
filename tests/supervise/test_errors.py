"""The shared exception taxonomy and the narrowed runner retry policy."""

import pytest

from repro.errors import (
    ARTIFACT_DECODE_ERRORS,
    RETRYABLE_ERRORS,
    CorruptArtifactError,
    FatalError,
    InfrastructureError,
    ReproError,
    RunTerminated,
    TrialError,
    WorkerCrashError,
    classify,
    is_retryable,
)
from repro.experiments.runner import RetryPolicy, RunnerConfig, execute_trial


def test_hierarchy():
    assert issubclass(TrialError, ReproError)
    assert issubclass(WorkerCrashError, InfrastructureError)
    assert issubclass(CorruptArtifactError, InfrastructureError)
    # Legacy raisers/catchers used RuntimeError; the taxonomy keeps
    # that compatibility edge so old except clauses still work.
    assert issubclass(TrialError, RuntimeError)
    assert issubclass(InfrastructureError, RuntimeError)
    # Termination must escape `except Exception` blocks, like
    # KeyboardInterrupt does.
    assert issubclass(RunTerminated, BaseException)
    assert not issubclass(RunTerminated, Exception)


def test_classify():
    assert classify(TrialError("stall")) == "trial"
    assert classify(WorkerCrashError("boom")) == "infrastructure"
    assert classify(CorruptArtifactError("bits")) == "infrastructure"
    assert classify(FatalError("bad config")) == "fatal"
    assert classify(ValueError("anything else")) == "fatal"


def test_is_retryable():
    assert is_retryable(TrialError("stall"))
    assert is_retryable(WorkerCrashError("boom"))
    assert not is_retryable(FatalError("stop"))
    assert not is_retryable(RuntimeError("bare"))
    for cls in RETRYABLE_ERRORS:
        assert is_retryable(cls("x"))


def test_decode_errors_cover_common_corruption_shapes():
    import zipfile

    for cls in (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile):
        assert issubclass(cls, ARTIFACT_DECODE_ERRORS)


def test_bare_runtime_error_is_no_longer_retried():
    """The old policy retried any RuntimeError/ValueError; a bug like a
    typo'd attribute now fails fast instead of burning the budget."""
    calls = []

    def buggy_trial(label, index, rng, watchdog):
        calls.append(1)
        raise RuntimeError("programming error, not a flaky page load")

    with pytest.raises(RuntimeError, match="programming error"):
        execute_trial(
            buggy_trial, "bing.com", 0, seed=1,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.0),
            sleep=lambda s: None,
        )
    assert len(calls) == 1


def test_trial_error_still_retries():
    calls = []

    def flaky_trial(label, index, rng, watchdog):
        calls.append(1)
        raise TrialError("transient")

    outcome = execute_trial(
        flaky_trial, "bing.com", 0, seed=1,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        sleep=lambda s: None,
    )
    assert len(calls) == 3
    assert outcome.failure is not None
    assert outcome.failure.error == "TrialError"


def test_runner_config_carries_supervisor_config():
    from repro.supervise import SupervisorConfig

    config = RunnerConfig(supervisor=SupervisorConfig(max_worker_restarts=1))
    assert config.supervisor.max_worker_restarts == 1
    # And it canonicalises for cache-key derivation like every config.
    assert "supervisor" in config.to_dict()
