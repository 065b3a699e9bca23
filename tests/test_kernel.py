"""Differential tests of the dense tensor-algebra kernel.

The dense product and signature are checked bitwise against the sparse
double-loop oracles in ``oracles.py``: on basis-ordered inputs both sum the
splits of each word in ascending cut order, so the arithmetic is the same.
The Chen fold's group-like step is checked bitwise against a fold through
the general product, and the segment exponential against its zero-filled
recursion, on increments with signed zeros.
The batched Chen fold and ``paths.signatures`` are checked bitwise, path by
path, against the single-path fold and the oracle, and the Monte Carlo mean
against per-path signatures.  The exp and log series, dilation, conjugation,
bracket and graded projection are checked bitwise, column by column, against
their single-vector calls, on batches whose series end at different terms.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cubgreeks import algebra, mc, paths
from cubgreeks.algebra import TensorElement, context, mul
from cubgreeks.rng import normal_increments

from oracles import chen_by_product, dict_mul, dict_signature, segment_exp_zero_filled

CONTEXTS = [(1, 5), (2, 3), (2, 5), (3, 4)]
# no shrinking: a dense element at (2,5) has 119 coefficients, and shrinking
# a bitwise mismatch that large takes minutes
SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    phases=[Phase.explicit, Phase.generate],
)

coefficient = st.one_of(st.just(0.0), st.floats(-100.0, 100.0, allow_nan=False))
# every context the benchmark runs, (2, 3) and (2, 4) besides those above, and (1, 3)
FOLD_CONTEXTS = CONTEXTS + [(1, 3), (2, 4)]
# signed zeros: the fold's sum starts at +0.0, which turns a lone -0.0 to 0.0
increment_value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


def basis_ordered(ctx, values):
    return {w: c for w, c in zip(ctx.basis, values) if c != 0.0}


@pytest.mark.parametrize("d,m", CONTEXTS)
@SETTINGS
@given(data=st.data())
def test_mul_matches_dict_oracle_bitwise(d, m, data):
    ctx = context(d, m)
    vectors = st.lists(coefficient, min_size=ctx.dim, max_size=ctx.dim)
    x = basis_ordered(ctx, data.draw(vectors))
    y = basis_ordered(ctx, data.draw(vectors))
    dense = mul(TensorElement(ctx, x), TensorElement(ctx, y))
    assert dict(dense.coeffs) == dict_mul(ctx, x, y)


@pytest.mark.parametrize("d,m", CONTEXTS)
@SETTINGS
@given(data=st.data())
def test_signature_matches_dict_oracle_bitwise(d, m, data):
    ctx = context(d, m)
    n_segments = data.draw(st.integers(1, 4))
    increments = data.draw(
        st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=d + 1, max_size=d + 1),
            min_size=n_segments,
            max_size=n_segments,
        )
    )
    path = paths.from_increments(1.0, increments)
    assert dict(paths.signature(ctx, path).coeffs) == dict_signature(ctx, path)


def _increments(data, d, *shape):
    """(d+1, *shape) increments, with exact zeros of either sign among them."""
    size = (d + 1) * math.prod(shape)
    values = data.draw(st.lists(increment_value, min_size=size, max_size=size))
    return np.array(values).reshape((d + 1,) + shape)


@pytest.mark.parametrize("d,m", FOLD_CONTEXTS)
@SETTINGS
@given(data=st.data())
def test_chen_matches_the_product_fold_bitwise(d, m, data):
    ctx = context(d, m)
    k = data.draw(st.integers(1, 4))
    batch = data.draw(st.one_of(st.just(()), st.tuples(st.integers(1, 5))))
    inc = _increments(data, d, k, *batch)
    assert ctx.chen(inc).tobytes() == chen_by_product(ctx, inc).tobytes()


@pytest.mark.parametrize("d,m", FOLD_CONTEXTS + [(1, 1), (3, 2)])
@SETTINGS
@given(data=st.data())
def test_segment_exp_matches_the_zero_filled_recursion_bitwise(d, m, data):
    ctx = context(d, m)
    batch = data.draw(st.one_of(st.just(()), st.tuples(st.integers(1, 5))))
    inc = _increments(data, d, *batch)
    assert ctx.segment_exp(inc).tobytes() == segment_exp_zero_filled(ctx, inc).tobytes()


@pytest.mark.parametrize("d,m", CONTEXTS)
@SETTINGS
@given(data=st.data())
def test_batched_chen_fold_matches_per_path_bitwise(d, m, data):
    ctx = context(d, m)
    n_segments = data.draw(st.integers(1, 4))
    increments = st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=d + 1, max_size=d + 1),
        min_size=n_segments,
        max_size=n_segments,
    )
    batch = [paths.from_increments(1.0, data.draw(increments)) for _ in range(data.draw(st.integers(1, 5)))]
    # step-major (d+1, K, n): column p holds path p's own increments
    folded = ctx.chen(np.stack([p.increments().T for p in batch], axis=-1))
    for column, path in zip(folded.T, batch):
        assert column.tobytes() == ctx.chen(path.increments().T).tobytes()
        assert basis_ordered(ctx, column) == dict_signature(ctx, path)


@pytest.mark.parametrize("d,m", CONTEXTS)
@SETTINGS
@given(data=st.data())
def test_signatures_of_mixed_segment_counts_match_per_path_bitwise(d, m, data):
    ctx = context(d, m)
    increment = st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=d + 1, max_size=d + 1)
    path = st.integers(1, 4).flatmap(lambda k: st.lists(increment, min_size=k, max_size=k))
    batch = [paths.from_increments(1.0, incs) for incs in data.draw(st.lists(path, min_size=1, max_size=6))]
    _, points = paths.knot_stack(batch, d + 1)
    columns = paths.signatures(ctx, points)
    assert columns.shape == (ctx.dim, len(batch))
    for column, p in zip(columns.T, batch):
        own = paths.signature(ctx, p).vec
        # a padding step turns -0.0 into 0.0 and keeps every other bit; an unpadded row keeps them all
        assert (column + 0.0).tobytes() == (own + 0.0).tobytes()
        if p.n_segments == points.shape[1] - 1:
            assert column.tobytes() == own.tobytes()


@pytest.mark.parametrize("d,m", [(1, 5), (2, 3), (3, 4)])
def test_batched_signature_mc_matches_per_path(d, m):
    ctx = context(d, m)
    t = 0.7
    cfg = mc.McConfig(n_paths=7, n_steps=5, seed=11)
    mean, _ = mc.signature_expectation_stats(ctx, t, cfg)
    normals = normal_increments(cfg.seed, 0, cfg.n_paths, cfg.n_steps, d)
    dt = t / cfg.n_steps
    per_path = []
    for row in normals:
        increments = np.column_stack([np.full(cfg.n_steps, dt), row * math.sqrt(dt)])
        per_path.append(paths.signature(ctx, paths.from_increments(t, increments)).vec)
    expected = np.mean(per_path, axis=0)
    assert np.max(np.abs(mean.vec - expected)) <= 1e-14


def _series_columns(ctx, seed):
    """(dim, 4) nilpotent columns whose exp series end at different terms:
    zero (no term), pure top degree (x^2 = 0), dense, and dense scaled down."""
    rng = np.random.default_rng(seed)
    top = np.where(ctx.degrees == ctx.m, rng.uniform(-1.0, 1.0, ctx.dim), 0.0)
    dense = rng.uniform(-1.0, 1.0, ctx.dim)
    dense[0] = 0.0
    return np.stack([np.zeros(ctx.dim), top, dense, 0.3 * dense], axis=-1)


def _assert_columns_bitwise(batch, single):
    for j, column in enumerate(batch.T):
        expected = single(j)
        assert np.array_equal(column, expected)
        assert column.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d,m", CONTEXTS)
def test_batched_exp_matches_single_columns_bitwise(d, m, seed):
    ctx = context(d, m)
    x = _series_columns(ctx, seed)
    batch = ctx.exp(x)
    _assert_columns_bitwise(batch, lambda j: ctx.exp(x[:, j].copy()))
    unit = algebra.unit(ctx).vec
    assert batch[:, 0].tobytes() == unit.tobytes()
    assert batch[:, 1].tobytes() == (unit + x[:, 1]).tobytes()
    assert algebra.exp(algebra.from_dense(ctx, x[:, 2])).vec.tobytes() == batch[:, 2].tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d,m", CONTEXTS)
def test_batched_log_matches_single_columns_bitwise(d, m, seed):
    ctx = context(d, m)
    x = _series_columns(ctx, seed)
    # constant terms 1 (unit: no term), 2.5 (top degree: one term), 1 and 0.3 (dense)
    x[0] = [1.0, 2.5, 1.0, 0.3]
    batch = ctx.log(x)
    _assert_columns_bitwise(batch, lambda j: ctx.log(x[:, j].copy()))
    assert not batch[:, 0].any()
    assert batch[0, 1] == math.log(2.5) and batch[0, 3] == math.log(0.3)
    assert algebra.log(algebra.from_dense(ctx, x[:, 3])).vec.tobytes() == batch[:, 3].tobytes()
    group = ctx.exp(_series_columns(ctx, seed))
    _assert_columns_bitwise(ctx.log(group), lambda j: ctx.log(group[:, j].copy()))


@pytest.mark.parametrize("d,m", CONTEXTS)
def test_batched_dilate_matches_single_columns_bitwise(d, m):
    ctx = context(d, m)
    x = _series_columns(ctx, 3)
    x[0] = 1.0
    scales = np.array([0.3, 1.0, 1.7, 2.0])
    _assert_columns_bitwise(ctx.dilate(scales, x), lambda j: ctx.dilate(scales[j], x[:, j].copy()))
    _assert_columns_bitwise(ctx.dilate(1.3, x), lambda j: ctx.dilate(1.3, x[:, j].copy()))
    assert algebra.dilate(1.7, algebra.from_dense(ctx, x[:, 2])).vec.tobytes() == ctx.dilate(scales, x)[:, 2].tobytes()


@pytest.mark.parametrize("d,m", CONTEXTS)
def test_batched_adjoint_bracket_and_grading_match_single_columns_bitwise(d, m):
    ctx = context(d, m)
    g = 2.0 * ctx.exp(_series_columns(ctx, 4))
    w, v = _series_columns(ctx, 5), _series_columns(ctx, 6)
    _assert_columns_bitwise(ctx.adjoint(g, w), lambda j: ctx.adjoint(g[:, j].copy(), w[:, j].copy()))
    _assert_columns_bitwise(ctx.bracket(w, v), lambda j: ctx.bracket(w[:, j].copy(), v[:, j].copy()))
    for n in range(m + 1):
        _assert_columns_bitwise(ctx.graded_part(g, n), lambda j: ctx.graded_part(g[:, j].copy(), n))
