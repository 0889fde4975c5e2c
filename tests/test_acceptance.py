"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The heavy training criteria (4, 6, 8) take a few minutes combined;
criterion 7 needs a machine with at least 8 hardware threads and skips
elsewhere.
"""
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dressedq import (
    BackendProfile,
    TrainConfig,
    epoch_wall_seconds,
    init_model,
    jobs_per_epoch,
    train_distributed,
)
from dressedq.circuit import (
    CircuitSpec,
    forward_eval_count,
    param_shift_grad,
    quantum_forward,
)
from dressedq.data import batches, generate_synthetic, shard, train_val_split
from dressedq.model import (
    batch_gradient,
    forward,
    loss_cross_entropy,
    sgd_step,
)

from oracle import apply_gates_sim, random_gates, run_circuit_dense
from test_circuit import central_difference_jacobians

from dressedq import new_zero_state


@contextmanager
def criterion(num, description):
    try:
        yield
    except (AssertionError, Exception):
        print(f"ACCEPTANCE {num:2d} FAIL: {description}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {description}")


# --- shared expensive runs -------------------------------------------------

SMALL_SET_SEED = 1
SMALL_SET_MARGIN = 3.0  # criterion 8 permits lowering this; 3.0 suffices


@pytest.fixture(scope="module")
def small_set_splits():
    ds = generate_synthetic(245, 512, 2, margin=SMALL_SET_MARGIN, seed=SMALL_SET_SEED)
    return train_val_split(ds, 0.2, seed=SMALL_SET_SEED)


@pytest.fixture(scope="module")
def small_set_n1_run(small_set_splits):
    """The reference single-worker run shared by criteria 4 and 8."""
    train, val, _ = small_set_splits
    model = init_model(CircuitSpec(4, 6), 512, 2, seed=SMALL_SET_SEED)
    config = TrainConfig(
        epochs=30, batch_size=4, base_lr=4e-4, workers=1, seed=SMALL_SET_SEED,
        lr_scaling="none",
    )
    start = time.monotonic()
    _, metrics = train_distributed(model, train, config, val_set=val)
    return metrics, time.monotonic() - start


# --- criteria --------------------------------------------------------------

def test_criterion_1_simulator_oracle_equivalence():
    with criterion(1, "gate-by-gate statevector matches dense Kronecker oracle"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            q = int(rng.integers(1, 7))
            gates = random_gates(rng, q, int(rng.integers(5, 30)))
            sim = apply_gates_sim(new_zero_state(q), gates)
            ref = run_circuit_dense(gates, q)
            worst = max(worst, float(np.max(np.abs(sim.amplitudes - ref))))
        elapsed = time.monotonic() - start
        assert worst < 1e-12, f"worst amplitude error {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_exactness():
    with criterion(2, "param-shift and hybrid gradients match finite differences"):
        start = time.monotonic()
        rng = np.random.default_rng(77)
        for trial in range(50):
            q = int(rng.integers(1, 5))
            d = int(rng.integers(0, 4))
            dim = int(rng.integers(2, 17))
            classes = int(rng.integers(2, 4))
            spec = CircuitSpec(q, d)

            # Circuit Jacobians against central differences.
            params = rng.uniform(-np.pi, np.pi, (d, q))
            embed = rng.uniform(-np.pi, np.pi, q)
            jac_t, jac_e, _ = param_shift_grad(spec, params, embed)
            fd_t, fd_e = central_difference_jacobians(spec, params, embed)
            for analytic, fd in ((jac_t, fd_t), (jac_e, fd_e)):
                rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
                assert np.max(rel, initial=0.0) < 1e-5, f"trial {trial}"

            # Full hybrid-model gradient against per-scalar central differences.
            model = init_model(spec, dim, classes, seed=1000 + trial)
            x = rng.normal(size=dim)
            label = int(rng.integers(classes))
            from dressedq.model import backward

            grads, _ = backward(model, x, label)
            h = 1e-5
            flat, gflat = model.params, grads
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_cross_entropy(forward(model, x), label)
                flat[k] = orig - h
                down = loss_cross_entropy(forward(model, x), label)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                rel = abs(gflat[k] - fd) / max(1.0, abs(gflat[k]))
                assert rel < 1e-5, f"trial {trial}, weight {k}: {rel}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_3_ddp_equivalence():
    with criterion(3, "lockstep N-worker run equals large-batch single worker"):
        ds = generate_synthetic(96, 16, 2, margin=3.0, seed=11)
        for workers in (2, 4, 8):
            model = init_model(CircuitSpec(3, 2), 16, 2, seed=11)
            multi_cfg = TrainConfig(
                epochs=2, batch_size=4, base_lr=4e-4, workers=workers, seed=19,
                lr_scaling="none",
            )
            # replica_check="step" raises on any bitwise replica divergence.
            multi, _ = train_distributed(
                model.copy(), ds, multi_cfg, parallel=False, replica_check="step"
            )
            single_cfg = TrainConfig(
                epochs=2, batch_size=4 * workers, base_lr=4e-4, workers=1,
                seed=19, lr_scaling="none",
            )
            single, _ = train_distributed(model.copy(), ds, single_cfg)
            for a, b in zip(multi.weight_blocks(), single.weight_blocks()):
                assert np.max(np.abs(a - b)) < 1e-12, f"N={workers}"


def test_criterion_4_small_set_accuracy(small_set_n1_run):
    with criterion(4, "n=245 / q=4 / 30 epochs reaches >=0.90 validation accuracy"):
        metrics, elapsed = small_set_n1_run
        assert metrics[-1].val_accuracy >= 0.90, metrics[-1]
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def _best_forward_seconds(q, depth=6, target=0.4):
    rng = np.random.default_rng(q)
    spec = CircuitSpec(q, depth)
    params = rng.uniform(-np.pi, np.pi, (depth, q))
    embed = rng.uniform(-np.pi, np.pi, q)
    quantum_forward(spec, params, embed)  # warm up
    t0 = time.perf_counter()
    quantum_forward(spec, params, embed)
    reps = max(3, int(target / (time.perf_counter() - t0)))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            quantum_forward(spec, params, embed)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def test_criterion_5_qubit_cost_doubles():
    with criterion(5, "circuit wall time grows 1.6x-2.8x per added qubit (q=12..16)"):
        times = {q: _best_forward_seconds(q) for q in range(12, 17)}
        ratios = {q: times[q] / times[q - 1] for q in range(13, 17)}
        for q, ratio in ratios.items():
            assert 1.6 <= ratio <= 2.8, f"ratio into q={q}: {ratio:.2f} ({times})"


def test_criterion_6_epoch_linearity():
    with criterion(6, "training time scales ~4x from 30 to 120 epochs"):
        ds = generate_synthetic(24, 32, 2, margin=3.0, seed=13)

        def run(epochs):
            model = init_model(CircuitSpec(4, 6), 32, 2, seed=13)
            config = TrainConfig(
                epochs=epochs, batch_size=4, base_lr=4e-4, seed=13
            )
            _, metrics = train_distributed(model, ds, config)
            return sum(m.wall_seconds for m in metrics)

        t30 = run(30)
        t120 = run(120)
        ratio = t120 / t30
        assert 3.5 <= ratio <= 4.5, f"t120/t30 = {ratio:.2f}"


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 8,
    reason="thread-scaling criterion is defined for machines with >= 8 hardware threads",
)
def test_criterion_7_thread_scaling():
    with criterion(7, "N=8 speedup >= 3x and linear-scaled accuracy stable"):
        train = generate_synthetic(4145, 512, 2, margin=3.0, seed=21)
        val = generate_synthetic(500, 512, 2, margin=3.0, seed=22)
        results = {}
        for workers in (1, 2, 4, 8):
            model = init_model(CircuitSpec(4, 6), 512, 2, seed=21)
            config = TrainConfig(
                epochs=2, batch_size=4, base_lr=4e-4, workers=workers,
                seed=21, lr_scaling="linear",
            )
            _, metrics = train_distributed(model, train, config, val_set=val)
            results[workers] = (
                sum(m.wall_seconds for m in metrics),
                metrics[-1].val_accuracy,
            )
        speedup = results[1][0] / results[8][0]
        assert speedup >= 3.0, f"speedup {speedup:.2f}"
        accs = [acc for _, acc in results.values()]
        assert max(accs) - min(accs) < 0.05, results


def test_criterion_8_accuracy_degrades_without_lr_scaling(
    small_set_splits, small_set_n1_run
):
    with criterion(8, "unscaled-lr N=8 accuracy trails N=1 by >= 10 points"):
        train, val, _ = small_set_splits
        metrics_n1, _ = small_set_n1_run
        model = init_model(CircuitSpec(4, 6), 512, 2, seed=SMALL_SET_SEED)
        config = TrainConfig(
            epochs=30, batch_size=4, base_lr=4e-4, workers=8,
            seed=SMALL_SET_SEED, lr_scaling="none",
        )
        _, metrics_n8 = train_distributed(
            model, train, config, val_set=val, parallel=False
        )
        gap = metrics_n1[-1].val_accuracy - metrics_n8[-1].val_accuracy
        print(
            f"  margin={SMALL_SET_MARGIN}: N=1 acc {metrics_n1[-1].val_accuracy:.3f}, "
            f"N=8 acc {metrics_n8[-1].val_accuracy:.3f}"
        )
        assert gap >= 0.10, f"gap {gap:.3f}"


def test_criterion_9_latency_feasibility():
    with criterion(9, "job counts match an instrumented epoch and the failure window"):
        spec = CircuitSpec(4, 6)
        assert jobs_per_epoch(244, spec) == 13908

        # Instrumented single-worker epoch over 244 samples.
        ds = generate_synthetic(244, 16, 2, margin=2.0, seed=31)
        model = init_model(spec, 16, 2, seed=31)
        velocity = np.zeros_like(model.params)
        before = forward_eval_count()
        for idx in batches(shard(ds, 1, 0, 0, seed=31), 4):
            g, _ = batch_gradient(model, ds.features[idx], ds.labels[idx])
            sgd_step(model, g, 4e-4, 0.9, velocity)
        assert forward_eval_count() - before == 13908

        profile = BackendProfile("remote", mean_job_latency=1.3)
        assert 1.0 <= profile.seconds_per_job <= 5.0
        projected = epoch_wall_seconds(13908, profile)
        assert 18000 <= projected <= 19500, projected


def test_criterion_10_sweep_determinism(tmp_path):
    with criterion(10, "identical sweep flags reproduce accuracy columns exactly"):
        import csv

        from dressedq.cli import main

        flags = [
            "--sweep", "qubits", "--qubits", "2,3", "--depth", "1",
            "--epochs", "2", "--synthetic", "40,8,2,3", "--seed", "7",
        ]
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        for path in paths:
            main(["--out", path, *flags])
        rows = []
        for path in paths:
            with open(path, encoding="utf-8") as f:
                rows.append(list(csv.reader(f)))
        for ra, rb in zip(rows[0][1:], rows[1][1:]):
            assert ra[9] == rb[9] and ra[10] == rb[10], (ra, rb)
