"""Differential test: the block-built encoders against the dict-row oracle.

Agreement is exact -- every array compared with ``np.array_equal`` and
``np.signbit`` -- because branch and bound must take the same path on
either encoding.
"""

import numpy as np
import pytest

import reference_encode
from cfcert.milp import encode_nearest_ce, encode_output_bound
from cfcert.models import Layer, LogisticModel, ReluNetwork


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a, b):
        return False
    return a.dtype.kind != "f" or np.array_equal(np.signbit(a), np.signbit(b))


def _assert_same(got, want):
    g, w = got.problem.lp, want.problem.lp
    for key in ("c", "A", "rel", "rhs", "lo", "hi"):
        assert _same(getattr(g, key), getattr(w, key)), key
    assert g.sense == w.sense
    assert _same(got.problem.binary_idx, want.problem.binary_idx)
    assert got.var_index.keys() == want.var_index.keys()
    for key, idx in want.var_index.items():
        if isinstance(idx, list):
            assert len(got.var_index[key]) == len(idx), key
            assert all(_same(a, b) for a, b in zip(got.var_index[key], idx)), key
        else:
            assert _same(got.var_index[key], idx), key
    for side in ("pre_lo", "pre_hi"):
        mine, theirs = getattr(got.bigm, side), getattr(want.bigm, side)
        assert len(mine) == len(theirs)
        assert all(_same(a, b) for a, b in zip(mine, theirs)), side


def _with_signed_zeros(rng, a):
    a = np.array(a, dtype=np.float64)
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


def _model(rng, n_in, hidden, n_out, with_bias):
    if hidden is None:
        bias = float(rng.normal()) if with_bias else None
        return LogisticModel(weights=_with_signed_zeros(rng, rng.normal(size=n_in)), bias=bias)
    sizes = [n_in] + list(hidden) + [n_out]
    layers = tuple(
        Layer(
            weights=_with_signed_zeros(rng, rng.normal(size=(b, a))),
            bias=rng.normal(0, 0.3, b) if with_bias else None,
        )
        for a, b in zip(sizes[:-1], sizes[1:])
    )
    return ReluNetwork(layers=layers)


ARCHS = [  # (name, hidden sizes or None for logistic, logits, seed)
    ("logistic", None, 1, 0),
    ("1 hidden", (3,), 1, 1),
    ("2 hidden", (4, 2), 1, 2),
    ("3 hidden", (2, 3, 2), 1, 3),
    ("3 logits", (3,), 3, 4),
    ("3 logits, 2 hidden", (3, 2), 3, 5),
]


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("name, hidden, n_out, seed", ARCHS, ids=[a[0] for a in ARCHS])
def test_encoders_match_dict_row_oracle(name, hidden, n_out, seed, with_bias):
    rng = np.random.default_rng([seed, int(with_bias)])
    for trial in range(12):
        n_in = int(rng.integers(1, 4))
        model = _model(rng, n_in, hidden, n_out, with_bias)
        delta = 0.0 if trial % 3 == 0 else float(rng.uniform(0.0, 0.3))
        x = rng.uniform(0, 1, n_in)
        x[rng.random(n_in) < 0.3] = 0.0  # zero inputs make signed-zero sums
        for index in range(n_out):
            for direction in ("min", "max"):
                _assert_same(
                    encode_output_bound(model, x, delta, index, direction),
                    reference_encode.encode_output_bound(model, x, delta, index, direction),
                )
        margin = 0.0 if trial % 2 == 0 else float(rng.uniform(0.0, 1.0))
        box = None if trial % 4 < 2 else (rng.uniform(-1, 0, n_in), rng.uniform(1, 2, n_in))
        for target in ((0, 1) if n_out == 1 else range(1, n_out + 1)):
            _assert_same(
                encode_nearest_ce(model, x, target, margin, box),
                reference_encode.encode_nearest_ce(model, x, target, margin, box),
            )
