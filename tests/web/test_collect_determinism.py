"""Collection determinism: position-derived visit seeds, parallel
byte-identity, and one dataset per seed whichever collector ran it.

Visit randomness must depend only on ``(seed, label, sample)``.  The
pre-fix implementation drew visit seeds from one sequential stream, so
adding a site (or a sample) reshuffled every subsequent visit — and
made parallel fan-out unsafe.
"""

import functools

import numpy as np
import pytest

from repro.capture.serialize import dumps_dataset, save_dataset
from repro.experiments.runner import RunnerConfig, collect_resilient
from repro.quic.pageload import collect_quic_dataset
from repro.stob.controller import split_delay_controller
from repro.web.pageload import PageLoadConfig, collect_dataset, visit_seed_rng

SITES = ["bing.com", "github.com"]


def traces_equal(t1, t2):
    return (
        np.array_equal(t1.times, t2.times)
        and np.array_equal(t1.directions, t2.directions)
        and np.array_equal(t1.sizes, t2.sizes)
    )


def test_visit_seed_depends_only_on_coordinates():
    a = visit_seed_rng(3, "bing.com", 1).integers(0, 2**31)
    b = visit_seed_rng(3, "bing.com", 1).integers(0, 2**31)
    c = visit_seed_rng(3, "bing.com", 2).integers(0, 2**31)
    d = visit_seed_rng(3, "github.com", 1).integers(0, 2**31)
    assert a == b
    assert len({a, c, d}) == 3


@pytest.mark.parametrize(
    "collect",
    [
        collect_dataset,
        collect_quic_dataset,
        functools.partial(
            collect_quic_dataset, controller_factory=split_delay_controller
        ),
    ],
    ids=["tcp", "quic", "quic+stob"],
)
def test_site_subsetting_preserves_other_visits(collect):
    """Also for Stob-defended visits: each controller is seeded from its
    own visit's generator, not from a count of visits before it."""
    config = PageLoadConfig()
    both = collect(n_samples=2, sites=SITES, config=config, seed=11)
    only_second = collect(n_samples=2, sites=["github.com"], config=config, seed=11)
    assert len(both.traces["github.com"]) == len(only_second.traces["github.com"]) == 2
    for t1, t2 in zip(both.traces["github.com"], only_second.traces["github.com"]):
        assert traces_equal(t1, t2), (
            "removing a site from the list must not reshuffle another "
            "site's visit randomness"
        )


def test_sample_count_extension_preserves_prefix():
    config = PageLoadConfig()
    short = collect_dataset(n_samples=1, sites=SITES, config=config, seed=11)
    long = collect_dataset(n_samples=2, sites=SITES, config=config, seed=11)
    for label in SITES:
        assert traces_equal(short.traces[label][0], long.traces[label][0]), (
            "raising n_samples must extend the dataset, not reshuffle it"
        )


def test_parallel_collection_is_byte_identical(tmp_path):
    config = PageLoadConfig()
    serial = collect_dataset(n_samples=2, sites=SITES, config=config, seed=5, workers=1)
    fanned = collect_dataset(n_samples=2, sites=SITES, config=config, seed=5, workers=2)
    p1, p2 = tmp_path / "serial.npz", tmp_path / "parallel.npz"
    save_dataset(serial, str(p1))
    save_dataset(fanned, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_parallel_collection_preserves_progress_and_stalls():
    """Stall logging and progress callbacks fire in grid order
    regardless of completion order."""
    config = PageLoadConfig(max_duration=0.01)  # everything stalls
    serial_log, fanned_log = [], []
    serial_progress, fanned_progress = [], []
    collect_dataset(
        n_samples=1, sites=SITES, config=config, seed=5,
        stall_log=serial_log, progress=lambda l, i: serial_progress.append((l, i)),
    )
    collect_dataset(
        n_samples=1, sites=SITES, config=config, seed=5, workers=2,
        stall_log=fanned_log, progress=lambda l, i: fanned_progress.append((l, i)),
    )
    assert [s.site for s in serial_log] == [s.site for s in fanned_log]
    assert serial_progress == fanned_progress


@pytest.mark.parametrize("workers", [1, 2])
def test_resilient_and_plain_collection_are_byte_identical(workers):
    """With no stalls the retry loop never draws past attempt 0, so the
    resilient runner and the plain collector return the same bytes."""
    plain = collect_dataset(n_samples=2, sites=SITES, seed=7, workers=workers)
    resilient, report = collect_resilient(
        SITES, 2, seed=7, runner_config=RunnerConfig(workers=workers)
    )
    assert report.stalls == 0 and report.dropped_trials == 0
    assert dumps_dataset(resilient) == dumps_dataset(plain)
