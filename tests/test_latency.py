import math

import numpy as np
import pytest

from dressedq import (
    BackendProfile,
    ConfigurationError,
    epoch_wall_seconds,
    feasibility_report,
    init_model,
    jobs_per_epoch,
)
from dressedq.circuit import CircuitSpec, forward_eval_count
from dressedq.data import batches, generate_synthetic, shard
from dressedq.latency import format_report
from dressedq.model import batch_gradient, sgd_step

PAPER_SPEC = CircuitSpec(qubits=4, depth=6)


def test_jobs_per_epoch_paper_config():
    assert jobs_per_epoch(244, PAPER_SPEC) == 13908


def test_jobs_per_epoch_minimal():
    assert jobs_per_epoch(1, CircuitSpec(qubits=1, depth=0)) == 3


def test_jobs_per_epoch_linear_in_n():
    assert jobs_per_epoch(500, PAPER_SPEC) == 2 * jobs_per_epoch(250, PAPER_SPEC)


def test_jobs_per_epoch_matches_instrumented_epoch():
    # One real training epoch over n samples must issue exactly
    # n * evals_per_sample circuit evaluations.
    n = 12
    spec = CircuitSpec(qubits=2, depth=1)
    ds = generate_synthetic(n, 4, 2, margin=1.0, seed=3)
    model = init_model(spec, 4, 2, seed=3)
    velocity = np.zeros_like(model.params)
    before = forward_eval_count()
    for idx in batches(shard(ds, 1, 0, 0, seed=3), 4):
        g, _ = batch_gradient(model, ds.features[idx], ds.labels[idx])
        sgd_step(model, g, 4e-4, 0.9, velocity)
    assert forward_eval_count() - before == jobs_per_epoch(n, spec)


def test_epoch_wall_seconds_in_failure_window():
    # Effective 1.3 s/job is inside the reported 1-5 s queue range and puts
    # one epoch inside the observed 18,000-19,500 s failure window.
    profile = BackendProfile(name="remote", mean_job_latency=0.0, queue_overhead=1.3)
    assert 1.0 <= profile.seconds_per_job <= 5.0
    seconds = epoch_wall_seconds(13908, profile)
    assert 18000 <= seconds <= 19500


def test_epoch_wall_seconds_trivia():
    profile = BackendProfile(name="p", mean_job_latency=2.0, queue_overhead=1.0)
    assert epoch_wall_seconds(0, profile) == 0.0
    free = BackendProfile(name="free", mean_job_latency=0.0)
    assert epoch_wall_seconds(10_000, free) == 0.0


def test_feasibility_remote_is_infeasible_in_24h():
    profile = BackendProfile(name="remote", mean_job_latency=1.3)
    report = feasibility_report(244, PAPER_SPEC, 30, profile, budget_seconds=86400)
    assert not report.feasible
    assert report.projected_seconds > 150 * 3600 * 0.9  # ~150 h
    assert report.first_failure_epoch is None


def test_feasibility_local_simulator_within_hour():
    profile = BackendProfile(name="local", mean_job_latency=0.001)
    report = feasibility_report(244, PAPER_SPEC, 30, profile, budget_seconds=3600)
    assert report.feasible


def test_job_cap_below_one_epoch_fails_in_epoch_one():
    profile = BackendProfile(name="capped", mean_job_latency=0.001, job_cap=10000)
    report = feasibility_report(244, PAPER_SPEC, 30, profile, budget_seconds=1e9)
    assert not report.feasible
    assert report.first_failure_epoch == 1


def test_job_cap_mid_run():
    per_epoch = jobs_per_epoch(244, PAPER_SPEC)
    profile = BackendProfile(
        name="capped", mean_job_latency=0.001, job_cap=3 * per_epoch + 5
    )
    report = feasibility_report(244, PAPER_SPEC, 30, profile, budget_seconds=1e9)
    assert report.first_failure_epoch == 4


def test_projection_monotone_in_everything():
    profile = BackendProfile(name="p", mean_job_latency=1.0)
    base = feasibility_report(100, PAPER_SPEC, 10, profile, 1e9).projected_seconds
    more_n = feasibility_report(150, PAPER_SPEC, 10, profile, 1e9).projected_seconds
    more_e = feasibility_report(100, PAPER_SPEC, 20, profile, 1e9).projected_seconds
    more_q = feasibility_report(
        100, CircuitSpec(qubits=5, depth=6), 10, profile, 1e9
    ).projected_seconds
    more_d = feasibility_report(
        100, CircuitSpec(qubits=4, depth=7), 10, profile, 1e9
    ).projected_seconds
    slower = BackendProfile(name="s", mean_job_latency=2.0)
    more_t = feasibility_report(100, PAPER_SPEC, 10, slower, 1e9).projected_seconds
    assert all(v >= base for v in (more_n, more_e, more_q, more_d, more_t))


def test_validation_errors():
    with pytest.raises(ValueError):
        jobs_per_epoch(0, PAPER_SPEC)
    with pytest.raises(ConfigurationError, match="n_train"):
        jobs_per_epoch(2.5, PAPER_SPEC)
    for jobs in (-1, 2.5):
        with pytest.raises(ConfigurationError, match="jobs"):
            epoch_wall_seconds(jobs, BackendProfile("p", 1.0))
    with pytest.raises(ValueError):
        BackendProfile(name="bad", mean_job_latency=-1.0)
    with pytest.raises(ValueError):
        feasibility_report(10, PAPER_SPEC, 1, BackendProfile("p", 1.0), 0.0)


@pytest.mark.parametrize(
    "latency, queue", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)]
)
def test_non_finite_latencies_rejected(latency, queue):
    with pytest.raises(ValueError, match="latencies"):
        BackendProfile(name="bad", mean_job_latency=latency, queue_overhead=queue)


def test_latencies_whose_sum_overflows_rejected():
    with pytest.raises(ValueError, match="latencies"):
        BackendProfile(name="bad", mean_job_latency=1e308, queue_overhead=1e308)


def test_projection_that_overflows_rejected():
    # Finite inputs: 100 samples x 57 jobs x 1e306 s is past the float range.
    profile = BackendProfile(name="slow", mean_job_latency=1e306)
    with pytest.raises(ValueError, match="overflows"):
        feasibility_report(100, PAPER_SPEC, 1000, profile, 1e9)


def test_nan_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        feasibility_report(10, PAPER_SPEC, 1, BackendProfile("p", 1.0), np.nan)


def test_negative_job_cap_rejected():
    with pytest.raises(ValueError, match="job_cap"):
        BackendProfile(name="bad", mean_job_latency=1.0, job_cap=-5)
    for cap in (2.5, True):
        with pytest.raises(ConfigurationError, match="job_cap"):
            BackendProfile(name="bad", mean_job_latency=1.0, job_cap=cap)
    # A cap of 0 accepts no jobs at all: every run fails in its first epoch.
    report = feasibility_report(
        10, PAPER_SPEC, 1, BackendProfile("p", 1.0, job_cap=0), 1e9
    )
    assert report.first_failure_epoch == 1 and not report.feasible


@pytest.mark.parametrize("epochs", [0, -3, 2.5])
def test_epochs_below_one_rejected(epochs):
    with pytest.raises(ValueError, match="epochs"):
        feasibility_report(10, PAPER_SPEC, epochs, BackendProfile("p", 1.0), 1e9)


def test_format_report_mentions_key_numbers():
    profile = BackendProfile(name="remote", mean_job_latency=1.3, job_cap=10000)
    report = feasibility_report(244, PAPER_SPEC, 30, profile, budget_seconds=86400)
    text = format_report(report)
    assert "13,908" in text
    assert "remote" in text
    assert "NO" in text


@pytest.mark.parametrize("budget", [None, "10", True, -1.0, 0, -np.inf])
def test_budget_that_is_not_a_real_number_above_zero_is_named(budget):
    with pytest.raises(ConfigurationError, match="budget_seconds"):
        feasibility_report(10, PAPER_SPEC, 1, BackendProfile("p", 1.0), budget)


def test_infinite_budget_is_no_limit():
    report = feasibility_report(10, PAPER_SPEC, 1, BackendProfile("p", 1.0), math.inf)
    assert report.feasible
