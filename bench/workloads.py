"""Workload shapes and the closed loop that drives dressedq through them.

Each workload is one client making one call at a time: training calls,
then evaluates of the trained model. Every `train_distributed` call starts
from the same initial model, so all calls of a run must return the same
result. "main" calls run the lockstep schedule in-process
(`parallel=False`); "twin" calls run the same schedule on the process pool
(`parallel=True`, one worker per replica, so one worker on the N=1
workloads) and must return bit-identical weights. BENCHMARK.json records
why each shape was chosen.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
from dressedq import circuit, data, ddp, latency, model
from dressedq.circuit import CircuitSpec
from dressedq.model import TrainConfig

import reference


# Shared by every workload: the paper's synthetic task and optimiser.
DIM, CLASSES, MARGIN = 512, 2, 3.0
BASE_LR, MOMENTUM, VAL_FRACTION = 4e-4, 0.9, 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    qubits: int
    depth: int
    batch: int
    workers: int
    epochs: int
    via_csv: bool = False  # written before timing, read back inside set-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-n1", n=245, qubits=4, depth=6, batch=4, workers=1, epochs=1),
        Workload("ddp-n2", n=1000, qubits=2, depth=1, batch=1, workers=2, epochs=2,
                 via_csv=True),
    )
}


@dataclass
class Call:
    """One `train_distributed` call and what it returned."""

    kind: str  # "main" (in-process) or "twin" (process pool)
    traced: bool
    wall: float
    error: str | None = None
    epoch_walls: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    weights: list[np.ndarray] = field(default_factory=list)
    evals_counted: int = 0


@dataclass
class Eval:
    """One benchmark-timed `evaluate` over the full generated dataset."""

    traced: bool
    wall: float
    error: str | None = None
    accuracy: float = float("nan")
    evals_counted: int = 0


class Session:
    """One workload at one seed: inputs, calls made, and their checks."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.wl = workload
        self.seed = seed
        self.spec = CircuitSpec(workload.qubits, workload.depth)
        self.config = TrainConfig(
            epochs=workload.epochs, batch_size=workload.batch,
            base_lr=BASE_LR, momentum=MOMENTUM, workers=workload.workers,
            seed=seed, lr_scaling="linear",
        )
        self.csv_path = os.path.join(workdir, f"{workload.name}-seed{seed}-{os.getpid()}.csv")
        self.generated = None
        self.calls: list[Call] = []
        self.evals: list[Eval] = []
        self.setups = 0
        self.setup_failures: list[str] = []
        self.last_model = None

    # -- inputs -----------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: generate the dataset, and write it out for CSV workloads."""
        wl = self.wl
        self.generated = data.generate_synthetic(wl.n, DIM, CLASSES, MARGIN, self.seed)
        if wl.via_csv:
            data.write_csv(self.generated, self.csv_path)

    def setup(self) -> float:
        """Timed set-up: data generation or CSV load, the split, init_model."""
        wl = self.wl
        t0 = time.perf_counter()
        if wl.via_csv:
            full = data.load_csv(self.csv_path)
        else:
            full = data.generate_synthetic(wl.n, DIM, CLASSES, MARGIN, self.seed)
        train, val, _ = data.train_val_split(full, VAL_FRACTION, self.seed)
        init = model.init_model(self.spec, full.feature_dim, full.num_classes, self.seed)
        wall = time.perf_counter() - t0
        self.setups += 1
        if not (np.array_equal(full.features, self.generated.features)
                and np.array_equal(full.labels, self.generated.labels)):
            self.setup_failures.append(f"set-up {self.setups}: data differs from the generated dataset")
        self.full, self.train, self.val, self.init = full, train, val, init
        return wall

    def cleanup(self) -> None:
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)

    # -- calls ------------------------------------------------------------

    @property
    def n_trained(self) -> int:
        """Samples trained per epoch: the sampler drops the remainder mod N."""
        n, workers = len(self.train), self.wl.workers
        return (n // workers) * workers

    @property
    def jobs_per_epoch(self) -> int:
        return latency.jobs_per_epoch(self.n_trained, self.spec)

    @property
    def evals_expected(self) -> int:
        """Circuit runs of one training call: shifts plus the per-epoch evaluate."""
        per_epoch = self.jobs_per_epoch + len(self.train) + len(self.val)
        return per_epoch * self.wl.epochs

    def train_call(self, kind: str, traced: bool = False) -> Call:
        c0 = circuit.forward_eval_count()
        t0 = time.perf_counter()
        try:
            trained, metrics = ddp.train_distributed(
                self.init, self.train, self.config, val_set=self.val,
                parallel=kind == "twin",
            )
        except Exception as exc:  # a raised run is a failed attempt, not an abort
            call = Call(kind, traced, time.perf_counter() - t0, error=repr(exc))
        else:
            call = Call(
                kind, traced, time.perf_counter() - t0,
                epoch_walls=[m.wall_seconds for m in metrics],
                losses=[m.mean_loss for m in metrics],
                train_acc=[m.train_accuracy for m in metrics],
                val_acc=[m.val_accuracy for m in metrics],
                weights=[b.copy() for b in trained.weight_blocks()],
                evals_counted=circuit.forward_eval_count() - c0,
            )
            self.last_model = trained
        self.calls.append(call)
        return call

    def eval_call(self, traced: bool = False) -> Eval:
        c0 = circuit.forward_eval_count()
        t0 = time.perf_counter()
        try:
            acc = model.evaluate(self.last_model, self.full)
        except Exception as exc:
            ev = Eval(traced, time.perf_counter() - t0, error=repr(exc))
        else:
            ev = Eval(traced, time.perf_counter() - t0, accuracy=acc,
                      evals_counted=circuit.forward_eval_count() - c0)
        self.evals.append(ev)
        return ev

    # -- checks -----------------------------------------------------------

    def expected(self) -> reference.Trajectory:
        wl = self.wl
        return reference.train(
            reference.Weights(*self.init.weight_blocks()),
            self.train.features, self.train.labels,
            self.val.features, self.val.labels,
            self.full.features, self.full.labels,
            epochs=wl.epochs, batch=wl.batch, workers=wl.workers,
            lr=BASE_LR * wl.workers, momentum=MOMENTUM,  # linear LR scaling
            seed=self.seed,
        )

    def verify(self) -> tuple[int, int, list[str]]:
        """Check every call; returns (attempted, failed, messages)."""
        ref = self.expected()
        first = next((c.weights for c in self.calls if c.kind == "main" and not c.error), None)
        messages = list(self.setup_failures)
        attempted = self.setups + len(self.calls) + len(self.evals)
        failed = len(self.setup_failures)
        for i, call in enumerate(self.calls):
            problems = [call.error] if call.error else self._check_call(call, ref, first)
            if problems:
                failed += 1
                messages += [f"{call.kind} call {i}: {p}" for p in problems]
        for i, ev in enumerate(self.evals):
            if ev.error:
                problems = [ev.error]
            else:
                problems = []
                if ev.accuracy != ref.full_acc:
                    problems.append(f"accuracy {ev.accuracy!r} != reference {ref.full_acc!r}")
                if ev.evals_counted != len(self.full):
                    problems.append(f"counted {ev.evals_counted} circuit runs, expected {len(self.full)}")
            if problems:
                failed += 1
                messages += [f"evaluate {i}: {p}" for p in problems]
        return attempted, failed, messages

    def _check_call(self, call: Call, ref: reference.Trajectory, first) -> list[str]:
        problems = []
        if len(call.losses) != len(ref.losses) or not np.allclose(
            call.losses, ref.losses, rtol=reference.RTOL, atol=0.0
        ):
            problems.append(f"losses {call.losses} != reference {ref.losses}")
        if call.train_acc != ref.train_acc or call.val_acc != ref.val_acc:
            problems.append("per-epoch accuracies differ from the reference")
        scale = max(float(np.max(np.abs(b))) for b in ref.final.blocks())
        if not all(np.allclose(a, b, rtol=reference.RTOL, atol=reference.RTOL * scale)
                   for a, b in zip(call.weights, ref.final.blocks())):
            problems.append("final weights differ from the reference")
        if first is not None and not all(
            np.array_equal(a, b) for a, b in zip(call.weights, first)
        ):
            problems.append("final weights not bit-identical to the first main call")
        # Only the in-process path counts its circuit runs; the parent's count
        # on the pool path is a known defect, reported but not gated.
        if call.kind == "main" and call.evals_counted != self.evals_expected:
            problems.append(f"counted {call.evals_counted} circuit runs, expected {self.evals_expected}")
        return problems

