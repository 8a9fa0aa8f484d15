import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcert.data import (
    Dataset,
    FeatureMeta,
    SplitSpec,
    apply_scale,
    fit_scale,
    inverse_scale,
    load_csv,
    save_csv,
    split,
    synth_binary,
    synth_multiclass,
)


def _write_dataset(tmp_path, rows, header="x1,x2,label", schema=None):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    schema_path = tmp_path / "d.schema.json"
    schema = schema or {
        "features": [{"name": "x1"}, {"name": "x2"}],
        "label": "label",
    }
    schema_path.write_text(json.dumps(schema))
    return csv_path, schema_path


def test_load_csv_exact_matrix(tmp_path):
    csv_path, schema_path = _write_dataset(tmp_path, ["0.5,1.0,0", "0.25,0.75,1", "0,1,0"])
    ds = load_csv(csv_path, schema_path)
    assert np.array_equal(ds.X, [[0.5, 1.0], [0.25, 0.75], [0.0, 1.0]])
    assert ds.y.tolist() == [0, 1, 0]
    assert [m.name for m in ds.features] == ["x1", "x2"]


def test_load_csv_missing_column(tmp_path):
    csv_path, schema_path = _write_dataset(tmp_path, ["0.5,0"], header="x1,label")
    with pytest.raises(ValueError, match="header mismatch"):
        load_csv(csv_path, schema_path)


def test_load_csv_bad_row_reports_line(tmp_path):
    csv_path, schema_path = _write_dataset(tmp_path, ["0.5,1.0,0", "oops,0.5,1"])
    with pytest.raises(ValueError, match=":3"):
        load_csv(csv_path, schema_path)


def test_load_csv_reads_an_integral_float_label(tmp_path):
    csv_path, schema_path = _write_dataset(tmp_path, ["0.5,1.0,1.0", "0.25,0.75,0", "1e-3,0,2.0"])
    assert load_csv(csv_path, schema_path).y.tolist() == [1, 0, 2]


def test_loaded_csv_saves_and_loads_again(tmp_path):
    csv_path, schema_path = _write_dataset(tmp_path, ["0.5,1.0,1", "0.25,0.75,0"])
    ds = load_csv(csv_path, schema_path)
    assert ds.label_name == "label"
    again = tmp_path / "again.csv"
    save_csv(ds, again)
    back = load_csv(again, schema_path)
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)
    assert back.label_name == "label"


def test_csv_round_trip(tmp_path):
    ds = synth_binary(40, seed=0)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    schema = tmp_path / "round.schema.json"
    schema.write_text(json.dumps({"features": [{"name": "x1"}, {"name": "x2"}], "label": "label"}))
    back = load_csv(path, schema)
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)


def test_one_hot_group_validation(tmp_path):
    schema = {
        "features": [
            {"name": "a", "kind": "one-hot", "group": "g"},
            {"name": "b", "kind": "one-hot", "group": "g"},
        ],
        "label": "label",
    }
    csv_path, schema_path = _write_dataset(
        tmp_path, ["1,0,0", "0,1,1"], header="a,b,label", schema=schema
    )
    ds = load_csv(csv_path, schema_path)
    assert ds.features[0].group == "g"
    csv_bad, schema_bad = _write_dataset(
        tmp_path, ["1,1,0"], header="a,b,label", schema=schema
    )
    with pytest.raises(ValueError, match="one-hot group"):
        load_csv(csv_bad, schema_bad)


def test_scaling_to_unit_interval():
    ds = Dataset(X=np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 10.0]]), y=np.array([0, 1, 0]))
    scaled = fit_scale(ds)
    assert scaled.X.min() >= 0.0 and scaled.X.max() <= 1.0
    assert np.array_equal(scaled.X[0], [0.0, 0.0])  # min row maps to zeros
    assert scaled.X[2, 0] == 1.0  # max entry maps to one


def test_constant_column_scales_to_zero():
    ds = Dataset(X=np.array([[3.0, 1.0], [3.0, 2.0]]), y=np.array([0, 1]))
    scaled = fit_scale(ds)
    assert np.array_equal(scaled.X[:, 0], [0.0, 0.0])


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_scaling_inverse_round_trip(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 10, (20, 3))
    X[:, 2] += np.arange(20)  # ensure spread
    ds = fit_scale(Dataset(X=X, y=np.zeros(20, dtype=int)))
    back = inverse_scale(ds.scaler, ds.X)
    assert np.allclose(back, X, atol=1e-12)
    again = apply_scale(ds.scaler, back)
    assert np.allclose(again, ds.X, atol=1e-12)


def test_split_disjoint_exhaustive():
    ds = synth_binary(100, seed=1)
    parts = split(ds, SplitSpec(d1_fraction=0.5, train_fraction=0.5, seed=1))
    sizes = [p.n for p in parts]
    assert sum(sizes) == 100
    assert sizes[0] + sizes[1] == 50
    seen = np.concatenate([np.sort((p.X * 1e9).sum(axis=1)) for p in parts])
    whole = np.sort((ds.X * 1e9).sum(axis=1))
    assert np.allclose(np.sort(seen), whole)


def test_split_deterministic_and_seed_sensitive():
    ds = synth_binary(80, seed=2)
    a = split(ds, SplitSpec(seed=5))
    b = split(ds, SplitSpec(seed=5))
    c = split(ds, SplitSpec(seed=6))
    assert all(np.array_equal(x.X, y.X) for x, y in zip(a, b))
    assert any(not np.array_equal(x.X, y.X) for x, y in zip(a, c))


def test_synth_binary_properties():
    ds = synth_binary(200, seed=3)
    assert ds.n == 200 and ds.dim == 2
    assert ds.X.min() >= 0 and ds.X.max() <= 1
    assert set(np.unique(ds.y)) == {0, 1}
    again = synth_binary(200, seed=3)
    assert np.array_equal(ds.X, again.X)
    with pytest.raises(ValueError):
        synth_binary(0)


def test_synth_binary_is_learnable():
    from cfcert.models import classify_batch
    from cfcert.training import TrainConfig, train

    ds = synth_binary(300, separation=1.0, noise=0.05, seed=4)
    m = train(ds.X, ds.y, "logistic", TrainConfig(epochs=150, seed=4))
    assert np.mean(classify_batch(m, ds.X) == ds.y) >= 0.95


def test_synth_multiclass_properties():
    ds = synth_multiclass(90, classes=3, seed=5)
    assert set(np.unique(ds.y)) == {1, 2, 3}
    assert ds.X.shape == (90, 2)
    with pytest.raises(ValueError):
        synth_multiclass(10, classes=1)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((2, 2)), y=np.zeros(2, dtype=int), features=[FeatureMeta("a")])
    with pytest.raises(ValueError):
        FeatureMeta("a", kind="one-hot")
