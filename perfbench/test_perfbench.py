"""Tests of the benchmark itself (not part of the tiara test suite).

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracer import LAYERS, ROOT_SPAN, Tracer

MAIN = run.load_program()

# Importable once load_program has put src/ and tests/ on the path.
import tiara.cli  # noqa: E402
import workloads  # noqa: E402


def bench(name, tmp_path, seed=5):
    tmp_path.mkdir(exist_ok=True)
    b = run.Bench(MAIN, workloads.FACTORIES[name](run.ROOT), seed, tmp_path)
    assert b.warm_up() == []
    return b


def traced_summary(b, ops=1, keep_ops=10):
    tracer = Tracer(keep_ops)
    for _ in range(ops):
        assert b.op(tracer)[1]
    return tracer.summary()


@pytest.mark.parametrize("name", ["field_reweight", "blend_dump"])
def test_corrupted_output_fails_the_operation_and_the_reference_check(name, tmp_path, monkeypatch):
    b = bench(name, tmp_path)
    assert b.op()[1]
    write = tiara.cli.write_tensor

    def corrupting_write(path, array):
        write(path, array)
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0x40]))

    monkeypatch.setattr(tiara.cli, "write_tensor", corrupting_write)
    assert not b.op()[1]
    assert b.workload.check() != []


def test_theorem_check_rejects_a_failed_verdict(tmp_path):
    b = bench("theorem_sweep", tmp_path)
    report = b.outputs[0]
    report.write_text(report.read_text().replace("PASS n=64", "FAIL n=64"))
    assert b.workload.check() != []


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = traced_summary(bench("theorem_sweep", tmp_path / "a"))
    second = traced_summary(bench("theorem_sweep", tmp_path / "b"), ops=2, keep_ops=1)
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["calls"]["spectral.dstft_bins"] > 0


@pytest.mark.parametrize("name", ["field_reweight", "theorem_sweep", "blend_dump"])
def test_self_times_add_up_to_the_operation_time(name, tmp_path):
    summary = traced_summary(bench(name, tmp_path), ops=2)
    assert sum(summary["self_ms"].values()) == pytest.approx(summary["op_ms"], rel=1e-9)
    assert set(summary["self_ms"]) <= set(LAYERS) | {"cli"}


@pytest.mark.parametrize("name, idle", [
    ("blend_dump", ("spectral", "attention", "consistency", "verifier")),
    ("theorem_sweep", ("tensorfile", "promptblend")),
    ("field_reweight", ("consistency", "verifier", "promptblend")),
])
def test_layers_predicted_idle_read_zero_calls(name, idle, tmp_path):
    calls = traced_summary(bench(name, tmp_path))["calls"]
    busy = {function for function in calls if function.split(".")[0] in idle}
    assert busy == set()
    assert calls[ROOT_SPAN] == 1


def test_install_reaches_every_import_site_and_uninstall_restores_it():
    def references():
        return {(name, attr): value for name, module in sys.modules.items()
                if name == "tiara" or name.startswith("tiara.")
                for attr, value in vars(module).items() if callable(value)}

    before = references()
    with Tracer().operation():
        during = references()
    assert during[("tiara.attention", "dstft_bins")] is not before[("tiara.attention", "dstft_bins")]
    assert during[("tiara.cli", "require_feasible")] is not before[("tiara.cli", "require_feasible")]
    assert during[("tiara", "tiara")] is during[("tiara.attention", "tiara")]
    assert references() == before


def test_tail_is_the_highest_sample_with_ten_beyond_it():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theorem_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.FACTORIES)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER_UNITS)
