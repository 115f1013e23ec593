import pytest

from qat8.config import RunConfig, load_config, parse_overrides
from qat8.model import ModelConfig
from qat8.task import SyntheticTask
from qat8.training import TrainConfig


def test_defaults_build_valid_components():
    cfg = RunConfig()
    mc = cfg.model_config()
    assert mc.dim == 48 and mc.num_heads == 4
    assert cfg.task().seq_len == mc.max_seq_len
    assert cfg.train_config().epochs == cfg.epochs


def test_run_defaults_are_the_package_defaults():
    # `qat8 train` with no config builds exactly the package's default objects
    cfg = RunConfig()
    assert cfg.model_config() == ModelConfig()
    assert cfg.train_config() == TrainConfig()
    assert cfg.task() == SyntheticTask()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "dim = 16\n"
        "num_heads = 2\n"
        "lr = 0.002\n"
        "seeds = 0, 1, 2\n"
    )
    cfg = load_config(str(path))
    assert cfg.dim == 16
    assert cfg.num_heads == 2
    assert cfg.lr == pytest.approx(0.002)
    assert cfg.seeds == (0, 1, 2)


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 9\n")
    cfg = load_config(str(path), overrides=["epochs=2"])
    assert cfg.epochs == 2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("not_a_key = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(path))
    with pytest.raises(ValueError, match="unknown config key"):
        parse_overrides(["nope=1"])


def test_malformed_lines_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dim 16\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(str(path))
    with pytest.raises(ValueError, match="key=value"):
        parse_overrides(["dim"])


def test_bad_value_type_rejected():
    with pytest.raises(ValueError, match="bad value"):
        parse_overrides(["dim=abc"])


def test_cross_field_validation_runs():
    # dim not divisible by heads is caught at load time, not at first use
    with pytest.raises(ValueError):
        load_config(overrides=["dim=10", "num_heads=4"])


@pytest.mark.parametrize("field", ["num_train", "num_eval", "eval_batch"])
@pytest.mark.parametrize("value", [0, -3])
def test_run_sizes_must_be_positive(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        load_config(overrides=[f"{field}={value}"])


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_lr_must_be_positive_and_finite(lr):
    # NaN compares False with everything, so `lr <= 0` alone lets it through
    with pytest.raises(ValueError, match="lr"):
        load_config(overrides=[f"lr={lr}"])
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=float(lr))


@pytest.mark.parametrize("override,key", [
    ("seed=-1", "seed"), ("data_seed=-1", "data_seed"), ("seeds=0,1,-1", "seeds")])
def test_negative_seeds_fail_at_load_naming_their_key(override, key):
    with pytest.raises(ValueError, match=f"^{key} must be >= 0"):
        load_config(overrides=[override])


def test_components_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="data_seed must be >= 0"):
        SyntheticTask(seed=-1)
    with pytest.raises(ValueError, match="seeds must be >= 0"):
        RunConfig(seeds=(0, -2))
