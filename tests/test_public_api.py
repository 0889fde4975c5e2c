"""The package's public names stay importable from `dressedq` unless a change
says it removes one and why."""
import dressedq

PUBLIC_NAMES = [
    "CircuitSpec",
    "circuit_evals_per_sample",
    "param_shift_grad",
    "quantum_forward",
    "Dataset",
    "batches",
    "generate_synthetic",
    "load_csv",
    "shard",
    "write_csv",
    "EpochMetrics",
    "allreduce_mean",
    "train_distributed",
    "ConfigurationError",
    "DataFormatError",
    "SyncError",
    "TrainingError",
    "BackendProfile",
    "epoch_wall_seconds",
    "feasibility_report",
    "jobs_per_epoch",
    "HybridModel",
    "TrainConfig",
    "backward",
    "evaluate",
    "forward",
    "init_model",
    "load_checkpoint",
    "loss_cross_entropy",
    "save_checkpoint",
    "sgd_step",
    "StateVector",
    "apply_cnot",
    "apply_h",
    "apply_ry",
    "expect_z_all",
    "new_zero_state",
    "__version__",
]


def test_public_names_importable():
    assert [name for name in PUBLIC_NAMES if not hasattr(dressedq, name)] == []
