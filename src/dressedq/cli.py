"""Benchmark harness: parameter sweeps over the hybrid trainer, CSV out.

One invocation runs one sweep (qubits, epochs, workers, or latency) and
writes exactly one CSV file. Training sweeps share the header

    sweep,qubits,depth,epochs,workers,batch,eff_lr,n,seconds,train_acc,val_acc,seed,status

with status "ok" for completed runs or the error class for failed points
(failed points do not abort the sweep). The latency sweep writes its own
schema and also prints a human-readable feasibility block per profile.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from .circuit import CircuitSpec
from .data import Dataset, check_synthetic_sizes, generate_synthetic, load_csv, train_val_split
from .ddp import train_distributed
from .errors import ConfigurationError, DataFormatError
from .latency import BackendProfile, feasibility_report, format_report
from .model import TrainConfig, init_model

RUN_CSV_HEADER = [
    "sweep", "qubits", "depth", "epochs", "workers", "batch", "eff_lr",
    "n", "seconds", "train_acc", "val_acc", "seed", "status",
]

# The held-out (validation) indices printed at start: the count and at most
# this many of them.
HELD_OUT_SHOWN = 20

LATENCY_CSV_HEADER = [
    "sweep", "profile", "n", "qubits", "depth", "epochs", "jobs_per_epoch",
    "total_jobs", "projected_seconds", "budget_seconds", "feasible",
    "first_failure_epoch",
]

# The latency sweep's wall-clock budget when --budget is not given: one day.
DEFAULT_BUDGET_S = 86400.0

# The list-valued flags a training sweep can vary.
SWEEP_AXES = ("qubits", "epochs", "workers")


def _run_point(
    args, train_set: Dataset, val_set: Dataset, qubits: int, epochs: int, workers: int
) -> list:
    """One full training run as a RUN_CSV_HEADER row; failures become a
    marker row, not an abort."""
    eff_lr = args.lr

    def record(seconds, train_acc, val_acc, status):
        return [
            args.sweep, qubits, args.depth, epochs, workers, args.batch_size,
            repr(eff_lr), len(train_set), f"{seconds:.6f}", repr(train_acc),
            repr(val_acc), args.seed, status,
        ]

    try:
        config = TrainConfig(
            epochs=epochs, batch_size=args.batch_size, base_lr=args.lr, momentum=0.9,
            workers=workers, seed=args.seed, lr_scaling=args.lr_scaling,
        )
        eff_lr = config.lr
        spec = CircuitSpec(qubits=qubits, depth=args.depth)
        model = init_model(spec, train_set.feature_dim, train_set.num_classes, args.seed)
        _, metrics = train_distributed(model, train_set, config, val_set=val_set)
        seconds = sum(m.wall_seconds for m in metrics)
        return record(seconds, metrics[-1].train_accuracy, metrics[-1].val_accuracy, "ok")
    except Exception as exc:
        print(f"[{args.sweep}] point failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return record(0.0, float("nan"), float("nan"), type(exc).__name__)


def run_sweep(train_set, val_set, args) -> list[list]:
    """One training run, as a RUN_CSV_HEADER row, per value of the swept
    flag, args.sweep; the other SWEEP_AXES flags hold one value each."""
    values = getattr(args, args.sweep)
    threads = os.cpu_count() or 1
    if args.sweep == "workers" and max(values) > threads:
        print(
            f"warning: requesting up to {max(values)} workers on a machine "
            f"with {threads} hardware threads; timings will not scale",
            file=sys.stderr,
        )
    point = {axis: getattr(args, axis)[0] for axis in SWEEP_AXES if axis != args.sweep}
    return [
        _run_point(args, train_set, val_set, **point, **{args.sweep: value})
        for value in values
    ]


def default_profiles(args) -> list[BackendProfile]:
    if args.latency is not None:
        return [BackendProfile(name="custom", mean_job_latency=args.latency,
                               queue_overhead=args.queue or 0.0, job_cap=args.job_cap)]
    return [
        # Effective 1.3 s/job sits inside the observed 1-5 s remote queue range.
        BackendProfile(name="remote-simulator", mean_job_latency=0.0,
                       queue_overhead=1.3),
        BackendProfile(name="local-simulator", mean_job_latency=0.001),
    ]


def bench_latency(train_set, args) -> list[list]:
    rows = []
    spec = CircuitSpec(qubits=args.qubits[0], depth=args.depth)
    for profile in default_profiles(args):
        report = feasibility_report(
            len(train_set), spec, args.epochs[0], profile,
            DEFAULT_BUDGET_S if args.budget is None else args.budget,
        )
        print(format_report(report))
        print()
        rows.append([
            "latency", profile.name, report.n_train, spec.qubits, spec.depth,
            report.epochs, report.jobs_per_epoch, report.total_jobs,
            f"{report.projected_seconds:.3f}", f"{report.budget_seconds:.3f}",
            int(report.feasible),
            "" if report.first_failure_epoch is None else report.first_failure_epoch,
        ])
    return rows


def _int_list(text: str) -> list[int]:
    values = [int(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("expected one or more comma-separated integers")
    return values


def _synthetic(text: str) -> tuple[int, int, int, float]:
    try:
        n, dim, classes, margin = text.split(",")
        sizes = int(n), int(dim), int(classes), float(margin)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n,D,C,margin, got {text!r}") from None
    try:
        check_synthetic_sizes(*sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return sizes


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dressedq-bench",
        description="Benchmark sweeps for the dressed quantum classifier.",
    )
    p.add_argument("--sweep", required=True, choices=[*SWEEP_AXES, "latency"])
    p.add_argument("--qubits", type=_int_list, default=[4],
                   help="comma-separated qubit counts (sweep axis or fixed value)")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--epochs", type=_int_list, default=[30],
                   help="comma-separated epoch counts")
    p.add_argument("--workers", type=_int_list, default=[1],
                   help="comma-separated worker counts")
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--lr", type=float, default=4e-4)
    p.add_argument("--lr-scaling", choices=["linear", "none"], default="linear")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dataset", help="CSV dataset path")
    group.add_argument("--synthetic", type=_synthetic, default="245,512,2,3",
                       help="n,D,C,margin for a generated dataset")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="output CSV path (default: <sweep>-<timestamp>.csv)")
    # Latency sweep knobs; defaults cover a remote and a local profile.
    p.add_argument("--latency", type=float, default=None,
                   help="per-job execution seconds for a custom backend profile")
    p.add_argument("--queue", type=float, default=None,
                   help="per-job queue seconds for the custom profile (default 0)")
    p.add_argument("--job-cap", type=int, default=None,
                   help="max jobs the custom backend accepts before failing")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds for feasibility "
                        f"(default {DEFAULT_BUDGET_S:g})")
    return p


def main(argv=None) -> str:
    """Run one sweep; returns the output CSV path."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for axis in SWEEP_AXES:
        if axis != args.sweep and len(getattr(args, axis)) > 1:
            parser.error(f"argument --{axis}: --sweep {args.sweep} takes one value")
    for flag, value in (("--latency", args.latency), ("--budget", args.budget)):
        if value is not None and args.sweep != "latency":
            parser.error(f"argument {flag}: applies only with --sweep latency")
    for flag, value in (("--queue", args.queue), ("--job-cap", args.job_cap)):
        if value is not None and args.latency is None:
            parser.error(f"argument {flag}: applies only with --latency")
    if args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    out = args.out or f"{args.sweep}-{time.strftime('%Y%m%d-%H%M%S')}.csv"
    # Checked before any training, so that a bad path loses no results.
    out_dir = os.path.dirname(out) or "."
    if os.path.isdir(out) or not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        parser.error(f"argument --out: cannot write {out}")

    if args.dataset:
        flag = "--dataset"
        try:
            dataset = load_csv(args.dataset)
        except (OSError, DataFormatError) as exc:
            parser.error(f"argument {flag}: {exc}")
    else:
        flag, dataset = "--synthetic", generate_synthetic(*args.synthetic, args.seed)
    try:
        train_set, val_set, held_out = train_val_split(dataset, 0.2, args.seed)
    except ConfigurationError as exc:
        # The split rule lives in train_val_split; here it is a flag error.
        parser.error(f"argument {flag}: {exc}")
    print(
        f"dataset: n={len(dataset)} D={dataset.feature_dim} "
        f"C={dataset.num_classes}; train={len(train_set)} val={len(val_set)}"
    )
    shown = ",".join(str(i) for i in held_out[:HELD_OUT_SHOWN])
    more = ",..." if len(held_out) > HELD_OUT_SHOWN else ""
    print(f"held-out indices ({len(held_out)}): {shown}{more}")

    if args.sweep == "latency":
        try:
            rows = bench_latency(train_set, args)
        except ValueError as exc:
            # The bounds live in BackendProfile, CircuitSpec and feasibility_report.
            parser.error(str(exc))
        header = LATENCY_CSV_HEADER
    else:
        rows = run_sweep(train_set, val_set, args)
        header = RUN_CSV_HEADER

    with open(out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return out


if __name__ == "__main__":
    main()
