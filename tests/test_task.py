import json

import numpy as np
import pytest

from qat8.model import ModelConfig
from qat8.task import (
    ComparisonReport,
    MethodResult,
    SyntheticTask,
    relative_error,
    run_comparison,
)
from qat8.training import TrainConfig


def test_relative_error_reference_points():
    # positive when the quantized model is worse, negative when better
    assert round(relative_error(58.48, 56.74), 2) == 2.98
    assert round(relative_error(90.3, 90.62), 2) == -0.35
    assert relative_error(50.0, 50.0) == 0.0


def test_relative_error_rejects_nonpositive_baseline():
    with pytest.raises(ValueError):
        relative_error(0.0, 1.0)
    with pytest.raises(ValueError):
        relative_error(-5.0, 1.0)


def test_generation_is_deterministic():
    task = SyntheticTask(seed=3)
    a_x, a_y = task.generate(500)
    b_x, b_y = task.generate(500)
    np.testing.assert_array_equal(a_x, b_x)
    np.testing.assert_array_equal(a_y, b_y)
    c_x, _ = SyntheticTask(seed=4).generate(500)
    assert not np.array_equal(a_x, c_x)


def test_labels_match_token_counts():
    task = SyntheticTask(seed=0)
    x, y = task.generate(2000)
    trig = (x == task.trigger_token).sum(axis=1)
    blk = (x == task.blocker_token).sum(axis=1)
    np.testing.assert_array_equal(y, (trig > blk).astype(np.int64))


def test_classes_are_balanced():
    _, y = SyntheticTask(seed=1).generate(5000)
    assert 0.45 <= y.mean() <= 0.55


def test_generate_accepts_an_uneven_label_draw():
    # the fair coin behind the labels gives 551 ones out of 1000 for this
    # seed: a valid draw, not a broken invariant
    x, y = SyntheticTask(seed=27).generate(1000)
    assert x.shape == (1000, 16)
    assert int(y.sum()) == 551


def test_sequences_use_only_vocabulary_tokens():
    task = SyntheticTask(seed=2)
    x, _ = task.generate(500)
    assert x.min() >= 0
    assert x.max() < task.vocab_size
    assert x.shape == (500, task.seq_len)


def test_boundary_cases_dominate():
    # most examples should sit within one token of the decision boundary
    task = SyntheticTask(seed=0)
    x, _ = task.generate(5000)
    diff = ((x == task.trigger_token).sum(axis=1)
            - (x == task.blocker_token).sum(axis=1))
    assert (np.abs(diff) <= 1).mean() > 0.5


def test_splits_are_disjoint_slices():
    task = SyntheticTask(seed=0)
    tx, ty, ex, ey = task.splits(300, 100)
    assert tx.shape == (300, task.seq_len)
    assert ex.shape == (100, task.seq_len)
    full_x, full_y = task.generate(400)
    np.testing.assert_array_equal(np.vstack([tx, ex]), full_x)
    np.testing.assert_array_equal(np.concatenate([ty, ey]), full_y)


def test_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask(trigger_token=1, blocker_token=1)
    with pytest.raises(ValueError):
        SyntheticTask(trigger_token=99)
    with pytest.raises(ValueError):
        SyntheticTask(seq_len=4)
    with pytest.raises(ValueError, match="^blocker_token out of vocabulary$"):
        SyntheticTask(blocker_token=99)
    with pytest.raises(ValueError, match="^need at least one filler token$"):
        SyntheticTask(vocab_size=2, trigger_token=1, blocker_token=0)


def test_method_result_statistics():
    r = MethodResult("x", [90.0, 92.0, 94.0])
    assert r.mean == pytest.approx(92.0)
    assert r.std == pytest.approx(np.sqrt(8.0 / 3.0))  # population std
    single = MethodResult("y", [95.0])
    assert single.std == 0.0


def test_report_serialization_round_trip():
    rep = ComparisonReport(
        seeds=[0, 1], num_train=10, num_eval=5,
        baseline=MethodResult("baseline", [96.0, 98.0]),
        qat=MethodResult("qat", [97.0, 97.5]),
        dq=MethodResult("dq", [95.0, 96.0]),
    )
    assert rep.qat_relative_error == pytest.approx(
        100.0 * (97.0 - 97.25) / 97.0)
    assert rep.dq_relative_error > rep.qat_relative_error
    parsed = json.loads(rep.to_json())
    assert parsed["methods"][0]["name"] == "baseline"
    assert "relative_error_percent" in parsed
    text = rep.to_text()
    assert "baseline" in text and "qat" in text and "dq" in text


def test_run_comparison_micro():
    config = ModelConfig(vocab_size=32, max_seq_len=16, dim=8, num_heads=2,
                         ffn_dim=16, num_layers=1)
    task = SyntheticTask(seed=0)
    rep = run_comparison(config, task, TrainConfig(epochs=1, batch_size=32),
                         seeds=(0,), num_train=64, num_eval=64)
    assert len(rep.baseline.accuracies) == 1
    assert rep.baseline.std == 0.0
    for m in (rep.baseline, rep.qat, rep.dq):
        assert 0.0 <= m.mean <= 100.0
    # identical seeds twice -> identical report bytes
    rep2 = run_comparison(config, task, TrainConfig(epochs=1, batch_size=32),
                          seeds=(0,), num_train=64, num_eval=64)
    assert rep.to_json() == rep2.to_json()


def test_run_comparison_requires_seeds():
    config = ModelConfig(dim=8, num_heads=2, ffn_dim=16, num_layers=1)
    with pytest.raises(ValueError):
        run_comparison(config, SyntheticTask(), TrainConfig(), seeds=(),
                       num_train=16, num_eval=16)


def test_generate_needs_a_positive_count():
    with pytest.raises(ValueError, match="^num_examples must be positive$"):
        SyntheticTask().generate(0)
