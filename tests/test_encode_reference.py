"""Differential test: the block-built encoders against the dict-row oracle.

Agreement is exact -- every array compared with ``np.array_equal`` and
``np.signbit`` -- because branch and bound must take the same path on
either encoding.  The output-bound encoding, whose first layer is a box, is
also checked against the earlier formulation with first-layer big-M rows:
the two must reach the same optimum.
"""

import numpy as np
import pytest

import reference_encode
from cfcert.milp import branch_and_bound, encode_nearest_ce, encode_output_bound
from cfcert.models import Layer, LogisticModel, ReluNetwork

from conftest import highs_optimum, random_network


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
    assert len(got.pre) == len(want.pre)
    for (lo, hi), (want_lo, want_hi) in zip(got.pre, want.pre):
        assert _same(lo, want_lo) and _same(hi, want_hi)


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
    ("8x8, 3 logits", (8, 8), 3, 6),  # 2-D weight blocks at a realistic width
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


@pytest.mark.parametrize("n_out", [1, 3], ids=["1 logit", "3 logits"])
@pytest.mark.parametrize(
    "hidden", [[8], [6, 6], [4, 4, 4], [16, 16]], ids=["1 hidden", "2 hidden", "3 hidden", "16x16"]
)
def test_first_layer_box_keeps_the_highs_optimum(hidden, n_out):
    # The box replaces the first layer's big-M rows and binaries, which
    # describe exactly the interval [relu(lo), relu(hi)] at a fixed input.
    pytest.importorskip("scipy")
    rng = np.random.default_rng([len(hidden), n_out])
    for _ in range(4):
        net = random_network(rng, n_in=3, hidden=hidden, n_out=n_out)
        x = rng.uniform(0, 1, 3)
        for delta in (0.01, 0.05, 0.2):
            for index in range(n_out):
                for direction in ("min", "max"):
                    new = encode_output_bound(net, x, delta, index, direction)
                    old = reference_encode.encode_output_bound_first_layer_rows(
                        net, x, delta, index, direction
                    )
                    assert new.problem.lp.A.shape[0] < old.problem.lp.A.shape[0]
                    want = highs_optimum(old.problem, polish=True)
                    got = highs_optimum(new.problem, polish=True)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_one_hidden_layer_bound_is_a_pure_lp():
    rng = np.random.default_rng(17)
    for n_out in (1, 3):
        for _ in range(5):
            net = random_network(rng, n_in=3, hidden=[8], n_out=n_out)
            x = rng.uniform(0, 1, 3)
            for index in range(n_out):
                for direction in ("min", "max"):
                    problem = encode_output_bound(net, x, 0.1, index, direction).problem
                    assert problem.binary_idx.size == 0
                    assert problem.lp.A.shape[0] == 2 * n_out  # the output rows alone
                    res = branch_and_bound(problem)
                    assert res.optimal and res.nodes == 1
