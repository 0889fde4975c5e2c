import csv

import pytest

from dressedq.cli import LATENCY_CSV_HEADER, RUN_CSV_HEADER, main


def read_rows(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.reader(f))


def run_cli(tmp_path, name, *flags):
    out = str(tmp_path / name)
    main(["--out", out, *flags])
    return read_rows(out)


TINY = ["--synthetic", "40,8,2,3", "--epochs", "2", "--depth", "1", "--seed", "7"]


@pytest.mark.parametrize(
    "flag, value, sweep",
    [
        ("--workers", "", "workers"),
        ("--epochs", "", "qubits"),
        ("--qubits", ",", "qubits"),
        ("--synthetic", "x,8,2,3", "qubits"),
        ("--synthetic", "40,8,2", "qubits"),
        ("--synthetic", "0,8,2,3", "latency"),
        ("--synthetic", "10,8,2,-1", "latency"),
        ("--synthetic", "10,8,2,nan", "latency"),
    ],
)
def test_malformed_flag_is_an_argparse_error(tmp_path, capsys, flag, value, sweep):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(["--out", str(out), "--sweep", sweep, flag, value])
    assert info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_qubit_sweep_one_row(tmp_path):
    rows = run_cli(tmp_path, "q.csv", "--sweep", "qubits", "--qubits", "3", *TINY)
    assert rows[0] == RUN_CSV_HEADER
    assert len(rows) == 2
    assert rows[1][0] == "qubits" and rows[1][1] == "3"
    assert rows[1][-1] == "ok"
    assert float(rows[1][8]) > 0  # wall seconds


def test_qubit_sweep_failure_row_continues(tmp_path):
    rows = run_cli(
        tmp_path, "q.csv", "--sweep", "qubits", "--qubits", "25,2", *TINY
    )
    assert len(rows) == 3
    assert rows[1][-1] == "ConfigurationError"
    assert rows[2][-1] == "ok"


def test_epoch_sweep(tmp_path):
    rows = run_cli(
        tmp_path, "e.csv", "--sweep", "epochs",
        "--qubits", "2", "--epochs", "1,2", "--depth", "1",
        "--synthetic", "40,8,2,3", "--seed", "7",
    )
    assert [r[3] for r in rows[1:]] == ["1", "2"]
    assert all(r[-1] == "ok" for r in rows[1:])


def test_worker_sweep_applies_lr_scaling(tmp_path):
    rows = run_cli(
        tmp_path, "w.csv", "--sweep", "workers", "--workers", "1,2",
        "--qubits", "2", "--lr", "0.001", "--lr-scaling", "linear", *TINY,
    )
    eff = [float(r[6]) for r in rows[1:]]
    assert eff == pytest.approx([0.001, 0.002])


def test_sweeps_are_deterministic(tmp_path):
    flags = ["--sweep", "qubits", "--qubits", "2,3", *TINY]
    a = run_cli(tmp_path, "a.csv", *flags)
    b = run_cli(tmp_path, "b.csv", *flags)
    # Accuracy columns identical; wall seconds may differ.
    for ra, rb in zip(a[1:], b[1:]):
        assert ra[9] == rb[9] and ra[10] == rb[10]


def test_latency_sweep(tmp_path, capsys):
    rows = run_cli(
        tmp_path, "l.csv", "--sweep", "latency",
        "--synthetic", "305,8,2,3", "--qubits", "4", "--depth", "6",
        "--epochs", "30", "--seed", "7",
    )
    assert rows[0] == LATENCY_CSV_HEADER
    assert len(rows) == 3  # remote + local profiles
    by_name = {r[1]: r for r in rows[1:]}
    # 305 samples split 80/20 -> 244 training samples, the reference size.
    assert by_name["remote-simulator"][6] == "13908"
    assert by_name["remote-simulator"][10] == "0"
    assert by_name["local-simulator"][10] == "1"
    assert "feasible      : NO" in capsys.readouterr().out


def test_latency_custom_profile(tmp_path):
    rows = run_cli(
        tmp_path, "l.csv", "--sweep", "latency",
        "--synthetic", "305,8,2,3", "--latency", "0.5", "--queue", "0.8",
        "--job-cap", "10000", "--budget", "86400", "--seed", "7",
    )
    assert len(rows) == 2
    assert rows[1][1] == "custom"
    assert rows[1][11] == "1"  # cap below one epoch: fails in epoch 1


def test_csv_dataset_input(tmp_path):
    from dressedq import generate_synthetic, write_csv

    data_path = str(tmp_path / "data.csv")
    write_csv(generate_synthetic(40, 8, 2, 3.0, seed=7), data_path)
    rows = run_cli(
        tmp_path, "d.csv", "--sweep", "qubits", "--qubits", "2",
        "--dataset", data_path, "--epochs", "2", "--depth", "1", "--seed", "7",
    )
    assert rows[1][-1] == "ok"
    assert rows[1][7] == "32"  # 40 samples minus the 20% holdout


def test_held_out_dump_is_capped(tmp_path, capsys):
    # 5181 samples hold out 1036 validation indices.
    run_cli(
        tmp_path, "l.csv", "--sweep", "latency",
        "--synthetic", "5181,2,2,3", "--seed", "7",
    )
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("held-out")]
    assert len(lines) == 1
    head, _, listed = lines[0].partition(": ")
    assert head == "held-out indices (1036)"
    assert listed.endswith(",...")
    shown = listed[: -len(",...")].split(",")
    assert len(shown) == 20
    assert all(s.isdigit() for s in shown)
