import numpy as np
import pytest

from qat8.model import ModelConfig, TransformerEncoderModel
from qat8.tensor import NonFiniteError
from qat8.training import (
    NonFiniteLogitsError,
    TrainConfig,
    TrainingDivergedError,
    accuracy_of,
    softmax_cross_entropy,
    train,
)

TINY = ModelConfig(vocab_size=8, max_seq_len=4, num_classes=2, dim=8,
                   num_heads=2, ffn_dim=16, num_layers=1)


def _toy_data(n=128, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 8, size=(n, 4))
    labels = (ids[:, 0] >= 4).astype(np.int64)  # linearly separable from token 0
    return ids, labels


def test_softmax_cross_entropy_known_value():
    logits = np.array([[0.0, 0.0]], dtype=np.float32)
    loss, d = softmax_cross_entropy(logits, np.array([1]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-6)
    np.testing.assert_allclose(d, [[0.5, -0.5]], atol=1e-6)


def test_softmax_cross_entropy_gradient_signs():
    logits = np.array([[2.0, -1.0, 0.5]], dtype=np.float32)
    _, d = softmax_cross_entropy(logits, np.array([0]))
    assert d[0, 0] < 0  # push the true class up
    assert d[0, 1] > 0 and d[0, 2] > 0


def test_accuracy_of_batches_correctly():
    inputs = np.arange(10)[:, None]
    labels = (np.arange(10) % 2).astype(np.int64)

    def predict(x):
        out = np.zeros((len(x), 2), dtype=np.float32)
        out[:, 1] = (x[:, 0] % 2)  # perfect predictor
        return out

    assert accuracy_of(predict, inputs, labels, batch_size=3) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_accuracy_of_refuses_non_finite_logits(bad):
    logits = np.zeros((6, 2), dtype=np.float32)
    logits[4, 1] = bad
    with pytest.raises(NonFiniteLogitsError, match="rows 3-5"):
        accuracy_of(lambda x: logits[x], np.arange(6), np.zeros(6, dtype=np.int64),
                    batch_size=3)


def test_train_learns_separable_toy_task():
    ids, labels = _toy_data()
    model = TransformerEncoderModel(TINY, seed=0)
    report = train(model, ids, labels, TrainConfig(epochs=8, batch_size=16, seed=0))
    assert report.final_accuracy > 0.9
    assert len(report.epochs) == 8
    assert report.to_dict()["final_accuracy"] == report.final_accuracy


def test_train_is_deterministic():
    ids, labels = _toy_data()
    runs = []
    for _ in range(2):
        model = TransformerEncoderModel(TINY, seed=0)
        report = train(model, ids, labels, TrainConfig(epochs=2, batch_size=16, seed=0))
        runs.append((report.loss_curve, {n: p.value.copy() for n, p in
                                         model.parameters().items()}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])


def test_train_shuffle_seed_changes_trajectory():
    ids, labels = _toy_data()
    curves = []
    for shuffle_seed in (0, 1):
        model = TransformerEncoderModel(TINY, seed=0)
        report = train(model, ids, labels,
                       TrainConfig(epochs=1, batch_size=16, seed=shuffle_seed))
        curves.append(tuple(report.loss_curve))
    assert curves[0] != curves[1]


def test_qat_training_initializes_trackers_before_first_eval():
    ids, labels = _toy_data()
    model = TransformerEncoderModel(TINY, quant_enabled=True, seed=0)
    report = train(model, ids, labels, TrainConfig(epochs=1, batch_size=16, seed=0))
    assert 0.0 <= report.initial_accuracy <= 1.0
    for name, layer in model.named_qlinears():
        assert layer.input_tracker.initialized, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    ids, labels = _toy_data()
    model = TransformerEncoderModel(TINY, seed=0)
    # force a non-finite logit: the bias is added outside the gemm guards
    model.parameters()["classifier.bias"].value[0] = np.inf
    with pytest.raises(TrainingDivergedError):
        train(model, ids, labels, TrainConfig(epochs=1, batch_size=16, seed=0))


def test_master_weights_remain_fp32_after_qat_training():
    ids, labels = _toy_data()
    model = TransformerEncoderModel(TINY, quant_enabled=True, seed=0)
    train(model, ids, labels, TrainConfig(epochs=1, batch_size=32, seed=0))
    for name, p in model.parameters().items():
        assert p.value.dtype == np.float32, name
    # weights must NOT sit on their quantization grid: they are FP32 masters
    from qat8.quant import fake_quantize, weight_scale
    w = model.parameters()["classifier.weight"].value
    assert not np.array_equal(fake_quantize(w, weight_scale(w)), w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("quant_enabled", [False, True], ids=["fp32", "qat"])
def test_non_finite_values_inside_a_step_mean_divergence(quant_enabled):
    # an absurd step size overflows the weights; the next step's kernels
    # (gemm_f32, or the EMA tracker in QAT) meet NaN/Inf before the loss does
    ids, labels = _toy_data()
    model = TransformerEncoderModel(TINY, quant_enabled=quant_enabled, seed=0)
    with pytest.raises(TrainingDivergedError, match="finite"):
        train(model, ids, labels, TrainConfig(epochs=1, batch_size=16, lr=1e38, seed=0))


class _NanOnThirdStep(TransformerEncoderModel):
    """Meets NaN in its third training-mode forward, that is, its third step."""

    steps = 0

    def forward(self, ids, training=False):
        if training:
            self.steps += 1
            if self.steps == 3:
                raise NonFiniteError("injected NaN")
        return super().forward(ids, training)


def test_divergence_names_the_step_counted_from_the_start_of_the_run():
    # two steps an epoch: the third step is the first of epoch 2
    ids, labels = _toy_data(n=32)
    model = _NanOnThirdStep(TINY, seed=0)
    with pytest.raises(TrainingDivergedError, match="^injected NaN at step 2$"):
        train(model, ids, labels, TrainConfig(epochs=2, batch_size=16, seed=0))


def test_other_errors_inside_a_step_are_not_divergence():
    # a label past num_classes passes the accuracy pass and fails in the loss
    ids, labels = _toy_data(n=16)
    labels[3] = TINY.num_classes
    model = TransformerEncoderModel(TINY, seed=0)
    with pytest.raises(IndexError):
        train(model, ids, labels, TrainConfig(epochs=1, batch_size=16, seed=0))


@pytest.mark.parametrize("field,value", [("epochs", -1), ("batch_size", 0)])
def test_train_config_rejects_a_bad_size(field, value):
    bound = 0 if field == "epochs" else 1
    with pytest.raises(ValueError, match=f"^{field} must be >= {bound}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("rows,label_rows,message", [
    (0, 0, "training dataset is empty"), (8, 7, "inputs and labels disagree in length"),
], ids=["empty", "length-mismatch"])
def test_train_rejects_a_bad_dataset(rows, label_rows, message):
    ids, labels = _toy_data()
    model = TransformerEncoderModel(TINY, seed=0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(model, ids[:rows], labels[:label_rows], TrainConfig(epochs=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_loss_past_float32_is_divergence():
    # finite logits of opposite signs, whose difference in the loss's
    # max-subtraction overflows FP32: the loss is the first non-finite value
    ids, labels = _toy_data()
    model = TransformerEncoderModel(TINY, seed=0)
    model.classifier.weight.value[0, 0] = 1e38
    model.classifier.weight.value[1, 0] = -1e38
    assert np.isfinite(model.predict_logits(ids)).all()
    with pytest.raises(TrainingDivergedError, match="^non-finite loss at step 0$"):
        train(model, ids, labels, TrainConfig(epochs=1, batch_size=32, seed=0))
