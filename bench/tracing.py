"""Spans around the calls into each dressedq layer, recorded from outside.

`traced(tracer)` replaces each public function of a layer with a timing
wrapper at the place its callers look it up (`model` and `ddp` import
several names directly, so those modules are patched as well as the
defining one) and restores the originals on exit. The untraced run calls
`assert_untraced()` before timing.

Spans stay in memory: one tuple per call for circuit-level layers and
above, and for the per-gate `qsim` calls, which run hundreds of thousands
of times per epoch, a count and a summed duration per phase. Each span's
child time is summed into its parent, so self time is duration minus child
time.

A wrapper's own bookkeeping runs partly inside the span it times and
partly outside, where it lands in the parent's duration.
`Tracer.calibrate()` times wrapped no-ops once; every span then carries
the estimated wrapper cost of its descendants, and `total`, `mean` and
`self_mean` report durations with its own and its descendants' wrapper
cost taken out.

Pool children fork with whatever wrappers are installed and what they
record is lost, so a pool-path call is traced with `PARENT_SIDE` only: the
workers run the package's own functions and the worker-side compute is
read from the in-process calls of the same schedule.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from multiprocessing.reduction import ForkingPickler

# (module, attribute, span name). A function imported by name into another
# module is listed once per module that calls it.
SITES = [
    ("dressedq.qsim", "new_zero_state", "qsim.new_zero_state"),
    ("dressedq.qsim", "apply_h", "qsim.apply_h"),
    ("dressedq.qsim", "apply_ry", "qsim.apply_ry"),
    ("dressedq.qsim", "apply_cnot", "qsim.apply_cnot"),
    ("dressedq.qsim", "expect_z_all", "qsim.expect_z_all"),
    ("dressedq.circuit", "quantum_forward", "circuit.quantum_forward"),
    ("dressedq.model", "quantum_forward", "circuit.quantum_forward"),
    ("dressedq.model", "param_shift_grad", "circuit.param_shift_grad"),
    ("dressedq.model", "backward", "model.backward"),
    ("dressedq.ddp", "batch_gradient", "model.batch_gradient"),
    ("dressedq.ddp", "sgd_step", "model.sgd_step"),
    ("dressedq.model", "evaluate", "model.evaluate"),
    ("dressedq.ddp", "evaluate", "model.evaluate"),
    ("dressedq.ddp", "train_distributed", "ddp.train_distributed"),
    ("dressedq.ddp", "allreduce_mean", "ddp.allreduce_mean"),
    ("dressedq.ddp", "_assert_replicas_identical", "ddp.replica_check"),
    ("dressedq.ddp", "shard", "data.shard"),
    ("dressedq.ddp", "batches", "data.batches"),
    ("dressedq.data", "generate_synthetic", "data.generate_synthetic"),
    ("dressedq.data", "load_csv", "data.load_csv"),
    ("dressedq.data", "train_val_split", "data.train_val_split"),
]
# The pool task: wrapped only to keep a few payloads and results, which are
# sized after the run so that pickling them is not timed.
PAYLOAD_SITE = ("dressedq.ddp", "_grad_task", "ddp.grad_task")
PAYLOAD_SAMPLES = 8

# The spans a pool-path call records: what the parent process runs itself
# (`evaluate` runs in the parent, its circuit runs are not traced there).
PARENT_SIDE = frozenset({
    "ddp.train_distributed", "ddp.allreduce_mean", "ddp.replica_check",
    "model.sgd_step", "model.evaluate", "data.shard", "data.batches",
})

QSIM_GATES = ("qsim.apply_h", "qsim.apply_ry", "qsim.apply_cnot")


def _lookup(mod: str, attr: str):
    module = importlib.import_module(mod)
    if not hasattr(module, attr):
        raise RuntimeError(f"patch site {mod}.{attr} is missing; update bench/tracing.py")
    return getattr(module, attr)


_ORIGINALS = {site[:2]: _lookup(*site[:2]) for site in [*SITES, PAYLOAD_SITE]}


def assert_untraced() -> None:
    """Every patch site holds the function the package defined."""
    for (mod, attr), original in _ORIGINALS.items():
        current = _lookup(mod, attr)
        if current is not original or hasattr(current, "__wrapped__"):
            raise RuntimeError(f"{mod}.{attr} is patched in an untraced run")


class Tracer:
    """In-memory spans and per-(phase, name) totals.

    `phase` labels what the benchmark is doing ("setup", "main", "twin",
    "full_eval"); work inside `evaluate` is filed under "<phase>.eval" so
    that training phases hold training work only.
    """

    def __init__(self):
        self.phase = "setup"
        self.request = 0
        # count, total_s, child_s, descendants' wrapper cost, children's wrapper cost
        self.stats: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []  # id, parent id, request, phase, name, t0, t1
        self.payloads: list[tuple] = []  # (payload, result), first PAYLOAD_SAMPLES
        self.tasks: dict[str, int] = {}
        # Wrapper cost per call outside and inside the span, by whether spans are kept.
        self.cost_out = {True: 0.0, False: 0.0}
        self.cost_in = {True: 0.0, False: 0.0}
        self._stack = [[0, 0.0, 0.0, 0.0]]
        self._next_id = 0

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        keep = not name.startswith("qsim.")
        enters_eval = name == "model.evaluate"
        cost_out, cost_in = self.cost_out, self.cost_in

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            parent = stack[-1]
            self._next_id += 1
            frame = [self._next_id, 0.0, 0.0, 0.0]  # id, child_s, ovh_s, direct ovh_s
            stack.append(frame)
            if enters_eval:
                self.phase = phase + ".eval"
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.phase = phase
                stack.pop()
                parent[1] += t1 - t0
                parent[2] += frame[2] + cost_out[keep] + cost_in[keep]
                parent[3] += cost_out[keep]
                st = self.stats.get((phase, name))
                if st is None:
                    st = self.stats[(phase, name)] = [0, 0.0, 0.0, 0.0, 0.0]
                st[0] += 1
                st[1] += t1 - t0
                st[2] += frame[1]
                st[3] += frame[2]
                st[4] += frame[3]
                if keep:
                    self.spans.append(
                        (frame[0], parent[0], self.request, phase, name, t0, t1)
                    )

        return wrapper

    def _wrap_payload(self, fn):
        @functools.wraps(fn)
        def wrapper(payload):
            result = fn(payload)
            self.tasks[self.phase] = self.tasks.get(self.phase, 0) + 1
            if len(self.payloads) < PAYLOAD_SAMPLES:
                self.payloads.append((payload, result))
            return result

        return wrapper

    def calibrate(self, reps: int = 20000, rounds: int = 5) -> None:
        """Estimate each wrapper kind's cost outside and inside its span.

        A wrapped no-op is called in a loop with the arguments of a gate
        call: the loop's time minus the recorded span time is what a parent
        sees of one child's wrapper, and the recorded time minus the same
        loop over the bare no-op is what the span itself holds of it. The
        fastest of `rounds` is kept. The calibration's own spans are
        dropped.
        """
        def noop(state, wire, theta):
            return state

        clock = time.perf_counter
        saved = self.phase, len(self.spans), self._next_id
        for keep in (True, False):
            wrapped = self._wrap("calibration" if keep else "qsim.calibration", noop)
            best_out = best_in = float("inf")
            for _ in range(rounds):
                self.phase = "calibration"
                frame = self._stack[0]
                before = frame[1]
                t0 = clock()
                for _ in range(reps):
                    wrapped(None, 0, 0.0)
                t1 = clock()
                inside = frame[1] - before
                frame[1] = before
                b0 = clock()
                for _ in range(reps):
                    noop(None, 0, 0.0)
                b1 = clock()
                best_out = min(best_out, ((t1 - t0) - inside) / reps)
                best_in = min(best_in, (inside - (b1 - b0)) / reps)
            self.cost_out[keep], self.cost_in[keep] = max(best_out, 0.0), max(best_in, 0.0)
        self.phase, self._next_id = saved[0], saved[2]
        del self.spans[saved[1]:]
        self._stack[0][2:] = [0.0, 0.0]
        self.stats = {k: v for k, v in self.stats.items() if k[0] != "calibration"}

    def count(self, phase: str, name: str) -> int:
        return self.stats.get((phase, name), (0,))[0]

    def total(self, phase: str, name: str) -> float:
        """Summed duration of the spans, less their own and their descendants'
        wrapper cost."""
        st = self.stats.get((phase, name))
        return st[1] - st[3] - st[0] * self._own_cost(name) if st else 0.0

    def _own_cost(self, name: str) -> float:
        return self.cost_in[not name.startswith("qsim.")]

    def mean(self, phase: str, name: str) -> float | None:
        """Mean corrected duration, or None if no such span was recorded."""
        count = self.count(phase, name)
        return self.total(phase, name) / count if count else None

    def self_mean(self, phase: str, name: str) -> float | None:
        """Mean duration minus child spans and the children's wrapper cost."""
        st = self.stats.get((phase, name))
        if not st:
            return None
        count, total, child, _, direct = st
        return (total - child - direct) / count - self._own_cost(name)

    def payload_bytes_per_task(self) -> float | None:
        """Mean pickled size of a pool task's payload plus its result."""
        if not self.payloads:
            return None
        sizes = [len(ForkingPickler.dumps(p)) + len(ForkingPickler.dumps(r))
                 for p, r in self.payloads]
        return sum(sizes) / len(sizes)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, request, phase, name, t0, t1 in self.spans:
                f.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "phase": phase, "name": name, "start": t0, "end": t1,
                }) + "\n")


@contextmanager
def traced(tracer: Tracer, only: frozenset | None = None):
    """Install `tracer`'s wrappers (those named in `only`, if given); restore on exit."""
    names = {site[:2]: site[2] for site in [*SITES, PAYLOAD_SITE]}
    installed = []
    try:
        for (mod, attr), original in _ORIGINALS.items():
            name = names[(mod, attr)]
            if only is not None and name not in only:
                continue
            if (mod, attr) == PAYLOAD_SITE[:2]:
                wrapper = tracer._wrap_payload(original)
            else:
                wrapper = tracer._wrap(name, original)
            module = importlib.import_module(mod)
            setattr(module, attr, wrapper)
            installed.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in installed:
            setattr(module, attr, original)
