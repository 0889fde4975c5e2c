"""dressedq benchmark: one workload at one seed for a fixed measuring time.

Run from the repository root:

    python3 bench/run.py --workload paper-n1 --seed 1 --seconds 45 --trace 0

Workloads and metrics are declared in BENCHMARK.json. With --trace 0 the
run is uninstrumented: it times set-ups, and in-process training calls each
followed by evaluates, and reports the end-to-end metrics. With --trace 1 it
alternates uninstrumented and traced rounds of an in-process call, a
process-pool call of the same schedule and an evaluate, and reports the
per-layer metrics and the tracing overhead. Every call is checked against
an independent reference (see reference.py). The last line of stdout is
the JSON result; a machine description, the result and, for traced runs,
the spans are also written under bench/out/.

End-to-end times are in reference seconds. The speed of a shared virtual
CPU can drift by a third or more for minutes at a time, and program code
slows with it. So a fixed host-speed probe (`probe`: small numpy
operations driven from Python, the mix of the package's hot path, but none
of its code) runs before, during and after each timed call, and the call's
time is scaled by REF_PROBE_S over the probe's mean time per repetition
(see `Timer`). A change to dressedq moves the call and not the probe; a
slower host moves both. The raw medians are printed and kept in the result
file. The scaling assumes the call runs on the probing thread alone: a
change that keeps other threads or processes busy during a call would slow
the in-call probes and be credited for it, so compare raw medians then.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Share of the measuring time spent on evaluates. Each training call is
# followed by a block of evaluates, so both kinds of call see the whole run;
# a block is timed as one unit, long enough for the in-call probes to follow
# the host's speed through it.
EVAL_SHARE = 0.2
# Set-up is timed in a burst before and after the timed rounds: each burst
# runs it at least SETUP_REPS[0] times and up to SETUP_REPS[1] times while
# the burst is shorter than SETUP_BURST_S.
SETUP_REPS = (2, 50)
SETUP_BURST_S = 0.3

# Host-speed probe: about its time per repetition on the 2-vCPU Xeon
# (2.0 GHz) the benchmark was written on, in its fast state. It only sets
# the scale of a reference second.
REF_PROBE_S = 20e-6
_PROBE_GATE = np.array([[0.6, -0.8], [0.8, 0.6]])


def probe(seconds: float) -> float:
    """Run the host-speed kernel for about `seconds`; seconds per repetition."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(25):
            amps = np.zeros(16)
            amps[0] = 1.0
            for wire in range(4):
                amps = np.matmul(_PROBE_GATE, amps.reshape(1 << wire, 2, -1)).reshape(-1)
                math.cos(0.1 * wire)
            for wire in range(4):
                amps = np.matmul(_PROBE_GATE, amps.reshape(1 << wire, 2, -1)).reshape(-1)
        reps += 25
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / reps


class Timer:
    """Times calls and scales them by the host speed around and during them.

    A probe runs before the first call and after each call. During a call a
    timer signal runs a short probe every IN_CALL_EVERY_S; its time is taken
    out of the call's wall time. The call is scaled by the mean probe time
    per repetition over all of these. Times are kept per kind of call.
    """

    IN_CALL_EVERY_S = 0.25
    IN_CALL_PROBE_S = 0.01

    def __init__(self, probe_s: float):
        self.probe_s = probe_s
        self.last = probe(probe_s)
        self.probes = [self.last]
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._during: list[float] = []
        self._spent = 0.0

    def _probe_in_call(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._during.append(probe(self.IN_CALL_PROBE_S))
        self._spent += time.perf_counter() - t0

    def time(self, kind: str, fn) -> float:
        """Call `fn`, which returns its own wall time, then probe again;
        returns the call's time without the in-call probes."""
        self._during, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._probe_in_call)
        signal.setitimer(signal.ITIMER_REAL, self.IN_CALL_EVERY_S, self.IN_CALL_EVERY_S)
        try:
            wall = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = probe(self.probe_s)
        speeds = [self.last, after, *self._during]
        self.probes += [after, *self._during]
        own = wall - self._spent
        self.raw.setdefault(kind, []).append(own)
        self.scaled.setdefault(kind, []).append(own * REF_PROBE_S / statistics.fmean(speeds))
        self.last = after
        return own


# Per-layer metric -> the end-to-end metric and workloads it should move.
# Shares are from traced runs: on ddp-n2 the two batch_gradient calls are
# about 80% of an epoch and evaluate about 11%; on paper-n1 qsim gate calls
# are about 87% of a training call.
LAYER_MOVES = {
    "qsim.h_us": "train/eval_samples_per_s on both workloads",
    "qsim.ry_us": "train/eval_samples_per_s on both workloads",
    "qsim.cnot_us": "train/eval_samples_per_s on both workloads",
    "qsim.expect_us": "train/eval_samples_per_s on both workloads",
    "qsim.gates_per_sample": "train/eval_samples_per_s on both workloads",
    "qsim.self_frac": "train/eval_samples_per_s on both workloads",
    "circuit.forward_us": "train/eval_samples_per_s on both workloads",
    "circuit.forward_self_us": "train/eval_samples_per_s on both workloads",
    "circuit.param_shift_ms": "train_samples_per_s on both workloads",
    "circuit.evals_counted": "none (parent count on the pool path; known defect)",
    "circuit.evals_expected": "none (job accounting)",
    "model.backward_ms": "train_samples_per_s on both workloads",
    "model.backprop_self_us": "train_samples_per_s on both workloads",
    "model.batch_gradient_ms": "train_samples_per_s on both workloads",
    "model.sgd_step_us": "train_samples_per_s on ddp-n2",
    "model.evaluate_ms": "eval_samples_per_s on both; train_samples_per_s on ddp-n2",
    "ddp.epoch_s_p50": "train_samples_per_s on both workloads",
    "ddp.grad_phase_ms_per_step": "train_samples_per_s on ddp-n2",
    "ddp.ipc_ms_per_step": "no bounded metric (pool path: ddp.parallel_speedup)",
    "ddp.allreduce_us": "train_samples_per_s on ddp-n2",
    "ddp.sgd_replicas_us": "train_samples_per_s on ddp-n2",
    "ddp.replica_check_us": "train_samples_per_s on ddp-n2",
    "ddp.payload_bytes_per_step": "no bounded metric (pool path: ddp.ipc_ms_per_step)",
    "ddp.parallel_speedup": "no bounded metric (pool path: serial wall / pool wall)",
    "data.generate_s": "setup_s on paper-n1",
    "data.load_csv_s": "setup_s on ddp-n2",
    "data.split_s": "setup_s on both workloads",
    "data.shard_us": "train_samples_per_s on ddp-n2 (under 0.1% of an epoch)",
    "latency.jobs_per_epoch": "none (count)",
    "latency.measured_s_per_job": "none (calibrates the local-simulator profile)",
    "trace.overhead": "none (cost of this instrumentation)",
}

LABELS = {
    "ddp.grad_phase_ms_per_step": "derived",
    "ddp.ipc_ms_per_step": "derived",
    "ddp.parallel_speedup": "derived",
    "ddp.payload_bytes_per_step": "computed",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def repeat(round_fn, deadline: float) -> None:
    """Run `round_fn` once, then again while a round of mean length still fits."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) / rounds > deadline:
            return


def peak_rss_mib() -> float:
    """Largest resident set of this process and of its waited-for children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "pool_start_method": multiprocessing.get_start_method(),
        "scaling_note": f"largest worker count measured is N=2; scaling beyond "
                        f"N=2 is unverified on this {nproc}-CPU machine",
    }


def setup_burst(session, timer: Timer) -> None:
    walls = []
    while len(walls) < SETUP_REPS[0] or (
        len(walls) < SETUP_REPS[1] and sum(walls) < SETUP_BURST_S
    ):
        walls.append(timer.time("setup", session.setup))


def end_to_end(session, seconds: float) -> tuple[dict, dict]:
    """Untraced closed loop: set-ups, then serial training calls each
    followed by evaluates, then set-ups again."""
    import tracing

    tracing.assert_untraced()
    session.prepare()
    setups = Timer(0.02)
    setup_burst(session, setups)
    calls = Timer(0.05)
    block_evals = []

    def evaluate_block(budget: float) -> float:
        t0 = time.perf_counter()
        count = 0
        while count == 0 or time.perf_counter() - t0 < budget:
            session.eval_call()
            count += 1
        block_evals.append(count)
        return time.perf_counter() - t0

    def one_round():
        train_s = calls.time("train", lambda: session.train_call("main").wall)
        budget = train_s * EVAL_SHARE / (1 - EVAL_SHARE)
        calls.time("eval", lambda: evaluate_block(budget))

    repeat(one_round, time.perf_counter() + seconds)
    setup_burst(session, setups)
    peak = peak_rss_mib()

    trained = session.n_trained * session.wl.epochs
    metrics = {
        "train_samples_per_s": trained / median(calls.scaled["train"]),
        "eval_samples_per_s": median(count * len(session.full) / block for count, block
                                     in zip(block_evals, calls.scaled["eval"])),
        "setup_s": median(setups.scaled["setup"]),
        "peak_rss_mib": peak,
    }
    main = [c for c in session.calls if c.kind == "main" and not c.error]
    samples = {
        "train_calls": len(calls.raw["train"]),
        "train_median_s": median(calls.raw["train"]),
        "epoch_median_s": median(w for c in main for w in c.epoch_walls),
        "evaluates": sum(block_evals),
        "eval_median_s": median(e.wall for e in session.evals),
        "setups": len(setups.raw["setup"]),
        "setup_median_s": median(setups.raw["setup"]),
        "probe_median_s": median(calls.probes + setups.probes),
        "train_walls": calls.raw["train"],
        "train_ref_s": calls.scaled["train"],
        "eval_block_counts": block_evals,
        "eval_block_walls": calls.raw["eval"],
        "eval_block_ref_s": calls.scaled["eval"],
        "setup_walls": setups.raw["setup"],
        "setup_ref_s": setups.scaled["setup"],
    }
    return metrics, samples


def per_layer(session, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds of serial, pool and evaluate calls."""
    import tracing

    tracing.assert_untraced()
    tracer = tracing.Tracer()
    tracer.calibrate()
    with tracing.traced(tracer):
        tracer.phase = "setup"
        session.prepare()
        session.setup()

    walls = {False: [], True: []}

    def one_round(traced: bool) -> None:
        start = time.perf_counter()
        for kind, only in (("main", None), ("twin", tracing.PARENT_SIDE), ("full_eval", None)):
            tracer.phase, tracer.request = kind, tracer.request + 1
            if not traced:
                tracing.assert_untraced()
                call(session, kind, False)
            else:
                with tracing.traced(tracer, only):
                    call(session, kind, True)
        walls[traced].append(time.perf_counter() - start)

    repeat(lambda: (one_round(False), one_round(True)), time.perf_counter() + seconds)
    tracer.write_spans(spans_path)
    return layer_metrics(session, tracer, walls), {
        "untraced_rounds": len(walls[False]),
        "traced_rounds": len(walls[True]),
        "spans": len(tracer.spans),
        "wrapper_cost_us": {f"{kind}.{side}": cost[keep] * 1e6
                            for side, cost in (("out", tracer.cost_out), ("in", tracer.cost_in))
                            for kind, keep in (("span", True), ("qsim", False))},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def call(session, kind: str, traced: bool) -> None:
    if kind == "full_eval":
        session.eval_call(traced=traced)
    else:
        session.train_call(kind, traced=traced)


def layer_metrics(session, tracer, walls) -> dict:
    """Per-layer numbers from the traced rounds ("main" is the in-process
    schedule and holds the worker-side compute; "twin" is the pool path).
    A metric whose spans are missing is None, which fails the run."""
    from tracing import QSIM_GATES

    wl = session.wl
    calls = [c for c in session.calls if not c.error]
    traced = [c for c in calls if c.traced]

    def scaled(value, factor):
        return None if value is None or factor is None else value * factor

    def ratio(num, den):
        return num / den if num is not None and den else None

    def untraced_wall(kind):
        return median(c.wall for c in calls if c.kind == kind and not c.traced)

    def steps(kind):
        return tracer.count(kind, "ddp.allreduce_mean")

    def grad_phase(kind):
        """Epoch wall minus evaluate, allreduce_mean and sgd_step, and minus
        the wrapper cost inside the call, per step."""
        epochs = sum(w for c in traced if c.kind == kind for w in c.epoch_walls)
        wrappers = tracer.stats.get((kind, "ddp.train_distributed"), [0, 0, 0, 0.0])[3]
        other = sum(tracer.total(kind, n) for n in
                    ("model.evaluate", "ddp.allreduce_mean", "model.sgd_step"))
        return ratio(epochs - wrappers - other, steps(kind))

    qsim_time = sum(tracer.total(phase, name) for (phase, name) in tracer.stats
                    if phase in ("main", "main.eval") and name.startswith("qsim."))
    backwards = tracer.count("main", "model.backward")
    twins = [c for c in calls if c.kind == "twin"]
    main_epochs = sum(len(c.epoch_walls) for c in traced if c.kind == "main")
    shard_time = tracer.total("main", "data.shard") + tracer.total("main", "data.batches")
    jobs = session.jobs_per_epoch
    serial, pooled = untraced_wall("main"), untraced_wall("twin")
    tasks = tracer.tasks.get("main", 0)
    main_grad, twin_grad = grad_phase("main"), grad_phase("twin")
    return {
        "qsim.h_us": scaled(tracer.mean("main", "qsim.apply_h"), 1e6),
        "qsim.ry_us": scaled(tracer.mean("main", "qsim.apply_ry"), 1e6),
        "qsim.cnot_us": scaled(tracer.mean("main", "qsim.apply_cnot"), 1e6),
        "qsim.expect_us": scaled(tracer.mean("main", "qsim.expect_z_all"), 1e6),
        "qsim.gates_per_sample": ratio(sum(tracer.count("main", g) for g in QSIM_GATES),
                                       backwards),
        "qsim.self_frac": ratio(qsim_time, tracer.total("main", "ddp.train_distributed")),
        "circuit.forward_us": scaled(tracer.mean("main", "circuit.quantum_forward"), 1e6),
        "circuit.forward_self_us": scaled(tracer.self_mean("main", "circuit.quantum_forward"), 1e6),
        "circuit.param_shift_ms": scaled(tracer.mean("main", "circuit.param_shift_grad"), 1e3),
        # The parent's count on the pool path: workers' circuit runs are not
        # seen there (the in-process count is gated to equal the expected one).
        "circuit.evals_counted": twins[0].evals_counted if twins else None,
        "circuit.evals_expected": session.evals_expected,
        "model.backward_ms": scaled(tracer.mean("main", "model.backward"), 1e3),
        "model.backprop_self_us": scaled(tracer.self_mean("main", "model.backward"), 1e6),
        "model.batch_gradient_ms": scaled(tracer.mean("main", "model.batch_gradient"), 1e3),
        "model.sgd_step_us": scaled(tracer.mean("main", "model.sgd_step"), 1e6),
        "model.evaluate_ms": scaled(tracer.mean("full_eval", "model.evaluate"), 1e3),
        "ddp.epoch_s_p50": median(w for c in calls if c.kind == "main" and not c.traced
                                  for w in c.epoch_walls),
        "ddp.grad_phase_ms_per_step": scaled(main_grad, 1e3),
        "ddp.ipc_ms_per_step": (twin_grad - main_grad / wl.workers) * 1e3
                               if main_grad is not None and twin_grad is not None else None,
        "ddp.allreduce_us": scaled(tracer.mean("main", "ddp.allreduce_mean"), 1e6),
        "ddp.sgd_replicas_us": scaled(ratio(tracer.total("main", "model.sgd_step"),
                                            steps("main")), 1e6),
        "ddp.replica_check_us": scaled(tracer.mean("main", "ddp.replica_check"), 1e6),
        # Bytes the pool path pickles per step (task payloads plus results),
        # sized after the run on the in-process calls, which build the same payloads.
        "ddp.payload_bytes_per_step": scaled(tracer.payload_bytes_per_task(),
                                             ratio(tasks, steps("main"))),
        "ddp.parallel_speedup": ratio(serial, pooled),
        "data.generate_s": tracer.mean("setup", "data.generate_synthetic"),
        # Only the CSV workloads load a file.
        "data.load_csv_s": tracer.mean("setup", "data.load_csv") if wl.via_csv else 0.0,
        "data.split_s": tracer.mean("setup", "data.train_val_split"),
        "data.shard_us": scaled(ratio(shard_time, main_epochs), 1e6)
                         if tracer.count("main", "data.shard") else None,
        "latency.jobs_per_epoch": jobs,
        "latency.measured_s_per_job": ratio(serial, jobs * wl.epochs),
        "trace.overhead": ratio(sum(walls[True]), sum(walls[False])),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dressedq" / "__init__.py").is_file():
        print(f"bench: no dressedq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    session = workloads.Session(workloads.WORKLOADS[args.workload], args.seed, str(OUT))
    try:
        if args.trace:
            metrics, samples = per_layer(session, args.seconds, OUT / f"spans-{tag}.jsonl")
        else:
            metrics, samples = end_to_end(session, args.seconds)
        attempted, failed, messages = session.verify()
    finally:
        session.cleanup()
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {section}")

    info = machine()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in samples.items() if not isinstance(v, list)))
    for name, value in metrics.items():
        note = LABELS.get(name, "")
        moves = f"  [moves: {LAYER_MOVES[name]}]" if args.trace else ""
        print(f"  {name:28s} {value!r:>24} {units[name]:6s}{note}{moves}")
    print(f"  {'failed_frac':28s} {failed / attempted!r:>24} {'frac':6s}"
          f"({failed} of {attempted} attempted)")
    for message in messages:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print("machine " + json.dumps(info))
    result = {
        "correct": failed == 0 and None not in metrics.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "samples": samples, "machine": info, "messages": messages},
                   indent=1),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
