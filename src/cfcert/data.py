"""Dataset ingestion, min-max scaling, splits, and synthetic generators.

Datasets are a feature matrix plus labels plus per-feature metadata; CSV is
the sole tabular format, with a JSON schema sidecar naming each feature's
kind (continuous or member of a one-hot group) and the label column.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "FeatureMeta",
    "Scaler",
    "Dataset",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "fit_scale",
    "apply_scale",
    "inverse_scale",
    "split",
    "synth_binary",
    "synth_multiclass",
]


@dataclass(frozen=True)
class FeatureMeta:
    name: str
    kind: str = "continuous"  # "continuous" | "one-hot"
    group: str | None = None  # one-hot group id

    def __post_init__(self):
        if self.kind not in ("continuous", "one-hot"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "one-hot" and not self.group:
            raise ValueError("one-hot features need a group name")


@dataclass(frozen=True)
class Scaler:
    mins: np.ndarray
    maxs: np.ndarray


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    features: list[FeatureMeta] = field(default_factory=list)
    label_name: str = "label"
    scaler: Scaler | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("feature matrix and labels disagree in length")
        if not self.features:
            self.features = [FeatureMeta(name=f"f{i}") for i in range(self.X.shape[1])]
        if len(self.features) != self.X.shape[1]:
            raise ValueError("feature metadata does not match matrix width")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def validate_one_hot(self) -> None:
        groups: dict[str, list[int]] = {}
        for i, meta in enumerate(self.features):
            if meta.kind == "one-hot":
                groups.setdefault(meta.group, []).append(i)
        for name, cols in groups.items():
            sums = self.X[:, cols].sum(axis=1)
            if not np.allclose(sums, 1.0, atol=1e-9):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise ValueError(f"one-hot group {name!r} does not sum to 1 at row {bad}")


@dataclass(frozen=True)
class SplitSpec:
    """Two halves D1/D2, each with its own train/test portions."""

    d1_fraction: float = 0.5
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.d1_fraction < 1 or not 0 < self.train_fraction < 1:
            raise ValueError("fractions must lie strictly between 0 and 1")


def load_schema(path) -> dict:
    with open(path) as fh:
        schema = json.load(fh)
    if "features" not in schema or "label" not in schema:
        raise ValueError("schema must declare 'features' and 'label'")
    return schema


def load_csv(path, schema: dict | str) -> Dataset:
    """Parse a CSV with a header row against the schema; malformed rows, a
    non-finite feature value and a label that is not an integer are
    reported with their line number."""
    if isinstance(schema, (str, bytes)) or hasattr(schema, "__fspath__"):
        schema = load_schema(schema)
    metas = [
        FeatureMeta(name=f["name"], kind=f.get("kind", "continuous"), group=f.get("group"))
        for f in schema["features"]
    ]
    label = schema["label"]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        expected = [m.name for m in metas] + [label]
        if header != expected:
            missing = set(expected) - set(header)
            raise ValueError(
                f"{path}: header mismatch; expected {expected}, got {header}"
                + (f" (missing {sorted(missing)})" if missing else "")
            )
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise ValueError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row[:-1]]
                y_value = float(row[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{path}:{lineno}: feature values must be finite, got {row[:-1]}")
            if not y_value.is_integer():
                raise ValueError(f"{path}:{lineno}: label must be an integer, got {row[-1]!r}")
            rows.append(values)
            labels.append(int(y_value))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ds = Dataset(X=np.array(rows), y=np.array(labels), features=metas, label_name=label)
    ds.validate_one_hot()
    return ds


def save_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([m.name for m in dataset.features] + [dataset.label_name])
        for row, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def fit_scale(dataset: Dataset) -> Dataset:
    """Min-max scale features to [0, 1]; constant columns map to 0."""
    mins = dataset.X.min(axis=0)
    maxs = dataset.X.max(axis=0)
    scaler = Scaler(mins=mins, maxs=maxs)
    return replace(dataset, X=apply_scale(scaler, dataset.X), scaler=scaler)


def apply_scale(scaler: Scaler, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    span = scaler.maxs - scaler.mins
    safe = np.where(span == 0, 1.0, span)
    out = (rows - scaler.mins) / safe
    return np.where(span == 0, 0.0, out)


def inverse_scale(scaler: Scaler, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    span = scaler.maxs - scaler.mins
    return rows * span + scaler.mins


def split(dataset: Dataset, spec: SplitSpec):
    """Disjoint, exhaustive, seed-deterministic (D1_train, D1_test,
    D2_train, D2_test) quadruple."""
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(dataset.n)
    cut = int(round(spec.d1_fraction * dataset.n))
    parts = []
    for half in (order[:cut], order[cut:]):
        inner = int(round(spec.train_fraction * half.size))
        parts.append(half[:inner])
        parts.append(half[inner:])

    def view(idx):
        return replace(dataset, X=dataset.X[idx], y=dataset.y[idx])

    return tuple(view(idx) for idx in parts)


def synth_binary(n: int, separation: float = 1.0, noise: float = 0.15, seed: int = 0) -> Dataset:
    """Two interleaved half-moons in the unit square, labels {0, 1}."""
    if n <= 0:
        raise ValueError("dataset size must be positive")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0, np.pi, n0)
    t1 = rng.uniform(0, np.pi, n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), -np.sin(t1) + 1.0 - separation])
    pts = np.vstack([upper, lower]) + rng.normal(0.0, noise, (n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    # Map into the unit square.
    pts = (pts - pts.min(axis=0)) / (pts.max(axis=0) - pts.min(axis=0))
    return Dataset(X=pts, y=y, features=[FeatureMeta("x1"), FeatureMeta("x2")])


def synth_multiclass(n: int, classes: int = 3, spread: float = 0.07, seed: int = 0) -> Dataset:
    """Gaussian blobs on a circle in the unit square, labels {1, ..., classes}."""
    if n <= 0:
        raise ValueError("dataset size must be positive")
    if classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    centers = 0.5 + 0.33 * np.column_stack(
        [
            np.cos(2 * np.pi * np.arange(classes) / classes),
            np.sin(2 * np.pi * np.arange(classes) / classes),
        ]
    )
    counts = [n // classes + (1 if i < n % classes else 0) for i in range(classes)]
    X, y = [], []
    for c, k in enumerate(counts):
        X.append(rng.normal(centers[c], spread, (k, 2)))
        y.append(np.full(k, c + 1, dtype=np.int64))
    X = np.clip(np.vstack(X), 0.0, 1.0)
    return Dataset(X=X, y=np.concatenate(y), features=[FeatureMeta("x1"), FeatureMeta("x2")])
