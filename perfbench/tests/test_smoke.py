"""Smoke test of the benchmark on a tiny model: every workload, untraced and
traced, reports every metric BENCHMARK.json names, with its unit, and no
operation fails.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from qat8 import quant, runtime, tensor  # noqa: E402
from qat8.model import ModelConfig  # noqa: E402
from qat8.training import TrainConfig  # noqa: E402
from workloads import WORKLOADS, Sizes, run_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every code path, in well under a second
TINY = Sizes(model=ModelConfig(dim=8, num_heads=2, ffn_dim=16, num_layers=1),
             train=TrainConfig(epochs=1, batch_size=16), num_train=48, train_op_rows=32,
             eval_batch=16, eval_rows=32, online_rows=8, setup_repeats=2)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric(name, trace):
    result = run_workload(name, seed=0, seconds=0.2, trace=bool(trace), sizes=TINY)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["record"]["errors"]
    assert result["correct"], result["record"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if trace:
        assert result["record"]["identical_outputs"]
    else:
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_tracer_restores_the_package():
    run_workload("batch-eval", seed=0, seconds=0.05, trace=True, sizes=TINY)
    assert runtime.gemm_i8_i32 is tensor.gemm_i8_i32
    assert not hasattr(quant.quantize, "__wrapped__")
    assert not hasattr(runtime.export, "__wrapped__")


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
