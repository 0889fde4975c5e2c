"""Feasibility model for running the training loop on a remote backend.

Every gradient step submits one job per circuit evaluation, and the
parameter-shift rule needs 1 + 2*(d*q + q) evaluations per sample, so an
epoch over n samples costs n * (1 + 2*(d*q + q)) jobs. Multiplying by the
per-job latency (execution plus queue) projects the wall time and decides
whether a run fits a budget or trips a submission cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import CircuitSpec, circuit_evals_per_sample
from .errors import real_number, whole_number


@dataclass(frozen=True)
class BackendProfile:
    name: str
    mean_job_latency: float  # seconds per job, execution
    queue_overhead: float = 0.0  # seconds per job, queueing
    job_cap: int | None = None  # max jobs before submissions fail

    def __post_init__(self):
        # The terms first: their sum would raise a bare TypeError on None, and
        # once both are finite it is infinite only by overflow.
        real_number("latencies", self.mean_job_latency)
        real_number("latencies", self.queue_overhead)
        real_number("sum of latencies", self.seconds_per_job)
        if self.job_cap is not None:
            whole_number("job_cap", self.job_cap, 0)

    @property
    def seconds_per_job(self) -> float:
        return self.mean_job_latency + self.queue_overhead


@dataclass(frozen=True)
class FeasibilityReport:
    profile: BackendProfile
    n_train: int
    epochs: int
    jobs_per_epoch: int
    total_jobs: int
    projected_seconds: float
    budget_seconds: float
    feasible: bool
    first_failure_epoch: int | None  # set when the job cap is exceeded


def jobs_per_epoch(n_train: int, spec: CircuitSpec) -> int:
    """Backend jobs for one epoch: per-sample evaluations times samples."""
    return whole_number("n_train", n_train, 1) * circuit_evals_per_sample(spec)


def epoch_wall_seconds(jobs: int, profile: BackendProfile) -> float:
    """Projected wall time for `jobs` sequential submissions."""
    return whole_number("jobs", jobs, 0) * profile.seconds_per_job


def feasibility_report(
    n_train: int,
    spec: CircuitSpec,
    epochs: int,
    profile: BackendProfile,
    budget_seconds: float,
) -> FeasibilityReport:
    """Project `epochs` epochs over n_train samples on `profile` against a
    budget: a finite real number > 0, or math.inf for no limit, else
    ConfigurationError naming `budget_seconds`."""
    if budget_seconds != math.inf:  # +inf is no limit
        real_number("budget_seconds", budget_seconds, above=True)
    whole_number("epochs", epochs, 1)
    per_epoch = jobs_per_epoch(n_train, spec)
    total_jobs = epochs * per_epoch
    projected = epochs * epoch_wall_seconds(per_epoch, profile)
    if projected == math.inf:
        raise ValueError(
            f"projected time of {total_jobs} jobs at {profile.seconds_per_job:g} s each "
            "overflows to infinity"
        )

    first_failure = None
    if profile.job_cap is not None and total_jobs > profile.job_cap:
        first_failure = profile.job_cap // per_epoch + 1
    feasible = projected <= budget_seconds and first_failure is None
    return FeasibilityReport(
        profile=profile,
        n_train=n_train,
        epochs=epochs,
        jobs_per_epoch=per_epoch,
        total_jobs=total_jobs,
        projected_seconds=projected,
        budget_seconds=budget_seconds,
        feasible=feasible,
        first_failure_epoch=first_failure,
    )


def format_report(report: FeasibilityReport) -> str:
    lines = [
        f"backend profile : {report.profile.name}",
        f"  per-job time  : {report.profile.seconds_per_job:.4g} s "
        f"(exec {report.profile.mean_job_latency:.4g} + "
        f"queue {report.profile.queue_overhead:.4g})",
        f"  jobs/epoch    : {report.jobs_per_epoch:,} ({report.n_train} samples)",
        f"  total jobs    : {report.total_jobs:,} over {report.epochs} epochs",
        f"  projected     : {report.projected_seconds:,.0f} s "
        f"({report.projected_seconds / 3600.0:.1f} h)",
        f"  budget        : {report.budget_seconds:,.0f} s",
        f"  feasible      : {'yes' if report.feasible else 'NO'}",
    ]
    if report.first_failure_epoch is not None:
        lines.append(
            f"  job cap {report.profile.job_cap:,} exceeded in epoch "
            f"{report.first_failure_epoch}"
        )
    return "\n".join(lines)
