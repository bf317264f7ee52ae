"""The on-disk cache of datasets and trained models: where it lives, and when it is read."""

from pathlib import Path

import numpy as np
import pytest

import repro
import repro.ais.datasets as datasets
from repro.ais.preprocessing import SegmentDataset
from repro.evaluation.table2 import train_table2_model
from repro.models import SVRFConfig, SVRFModel


def test_the_cache_is_at_the_checkout_root_whatever_the_working_directory(monkeypatch, tmp_path):
    before = datasets.CACHE_DIR
    monkeypatch.chdir(tmp_path)
    assert datasets.CACHE_DIR.is_absolute()
    assert datasets.CACHE_DIR.resolve() == before
    assert before == Path(repro.__file__).resolve().parents[2] / ".repro_cache"


def refuse(*args, **kwargs):
    raise AssertionError("a training set was built")


@pytest.fixture
def tiny_model():
    rng = np.random.default_rng(3)
    n = 16
    data = SegmentDataset(
        x=rng.normal(size=(n, 20, 3)),
        y=rng.normal(size=(n, 6, 2)),
        anchor=rng.normal(size=(n, 5)),
        mmsi=np.arange(n, dtype=np.int64),
    )
    model = SVRFModel(SVRFConfig(hidden=4, dense=4, seed=1))
    model.fit(data, epochs=1)
    return model


def test_a_cached_table2_model_is_loaded_before_any_training_set_is_built(
    monkeypatch, tmp_path, tiny_model
):
    monkeypatch.setattr(datasets, "CACHE_DIR", tmp_path)
    tiny_model.save(tmp_path / "svrf-table2-7-20-95-96-97.npz")
    monkeypatch.setattr(datasets, "proximity_scenario", refuse)
    monkeypatch.setattr(datasets, "table1_dataset", refuse)

    loaded = train_table2_model()

    assert loaded.config == tiny_model.config
    saved = tiny_model.network.named_params()
    assert saved.keys() == loaded.network.named_params().keys()
    for name, weights in loaded.network.named_params().items():
        np.testing.assert_array_equal(weights, saved[name])


def test_a_cache_miss_builds_the_training_set(monkeypatch, tmp_path, tiny_model):
    monkeypatch.setattr(datasets, "CACHE_DIR", tmp_path)
    tiny_model.save(tmp_path / "svrf-table2-7-20-95-96.npz")  # other scenario seeds
    monkeypatch.setattr(datasets, "table1_dataset", refuse)

    with pytest.raises(AssertionError, match="a training set was built"):
        train_table2_model()
