"""Hybrid quantum-classical classifier with data-parallel training and
a benchmark harness for qubit/epoch/worker sweeps and remote-backend
latency feasibility analysis."""

from .circuit import (
    CircuitSpec,
    circuit_evals_per_sample,
    param_shift_grad,
    quantum_forward,
)
from .data import Dataset, batches, generate_synthetic, load_csv, shard, write_csv
from .ddp import (
    EpochMetrics,
    allreduce_mean,
    effective_batch_size,
    scale_lr,
    train_distributed,
)
from .errors import ConfigurationError, DataFormatError, SyncError, TrainingError
from .latency import BackendProfile, epoch_wall_seconds, feasibility_report, jobs_per_epoch
from .model import (
    HybridModel,
    TrainConfig,
    backward,
    evaluate,
    forward,
    init_model,
    load_checkpoint,
    loss_cross_entropy,
    save_checkpoint,
    sgd_step,
)
from .qsim import (
    StateVector,
    apply_cnot,
    apply_h,
    apply_ry,
    expect_z,
    expect_z_all,
    new_zero_state,
)

__version__ = "0.1.0"
