"""Product models: the joint table of Z, guarded and validated once when
the model is built."""

import functools
import itertools
import math

import numpy as np
import pytest

from matphi.entropy import check_char_g, check_subadditivity, conditional_phi_entropy
from matphi.errors import DimensionMismatch, EnumerationTooLarge, NotHermitian
from matphi.fourier import MatrixBooleanFunction, uniform_cube_model
from matphi import models
from matphi.models import (
    MAX_ENUMERATION,
    PLAN_CACHE_BYTES,
    FiniteLaw,
    MatrixInputModel,
    ProductModel,
    resampling_plan,
    weighted_sum,
)
from matphi.phifun import PhiFunction
from matphi.sampling import (
    random_boolean_function,
    random_hermitian,
    random_probability_vector,
    random_product_model,
    rng_for,
)
from support import moveaxis_slices

BITS = FiniteLaw.uniform((0, 1))
XLOGX = PhiFunction.xlogx()


def test_non_hermitian_value_raises_at_construction():
    table = np.stack([np.eye(2, dtype=complex)] * 4)
    table[2, 0, 1] = 0.5  # its mirror entry stays 0
    with pytest.raises(NotHermitian):
        ProductModel((BITS, BITS), table)


@pytest.mark.parametrize("count", [3, 5])
def test_wrong_table_length_raises_at_construction(count):
    with pytest.raises(DimensionMismatch, match="for 4 joint outcomes"):
        ProductModel((BITS, BITS), np.stack([np.eye(2)] * count))


def test_too_large_table_raises_before_reading_values():
    laws = (BITS,) * 20
    assert 2**20 > MAX_ENUMERATION
    with pytest.raises(EnumerationTooLarge):
        ProductModel(laws, np.zeros((1, 1, 1)))


def test_tabulate_guards_the_size_before_any_evaluator_call():
    calls = []

    def evaluator(xs):
        calls.append(xs)
        return np.eye(1)

    with pytest.raises(EnumerationTooLarge):
        ProductModel.tabulate((BITS,) * 20, evaluator)
    assert calls == []
    half = FiniteLaw.uniform((0.25 * np.eye(2), 0.75 * np.eye(2)))
    with pytest.raises(EnumerationTooLarge):
        MatrixInputModel((half,) * 20, evaluator, lambda xs, i: 1.0)
    assert calls == []
    # below the bound: one call per joint outcome, in table order
    model = ProductModel.tabulate((BITS,) * 3, evaluator)
    assert calls == [xs for _, xs in model.iter_joint()]


def test_joint_law_is_built_once():
    model = random_product_model(rng_for(7, "models", 0), 2, 3, arity=2)
    assert model.to_law() is model.to_law()
    assert model.to_law().values is model.values


def test_joint_probabilities_multiply_the_inputs_first_input_first():
    for trial in range(20):
        model = random_product_model(rng_for(7, "models-probs", trial), 1, 1 + trial % 4, arity=3)
        joint = list(itertools.product(*(range(law.size) for law in model.laws)))
        want = [math.prod(float(law.probs[k]) for law, k in zip(model.laws, idx)) for idx in joint]
        assert [p for p, _ in model.iter_joint()] == want
        assert [xs for _, xs in model.iter_joint()] == joint  # the outcomes are the labels
        assert model.to_law().probs.tolist() == want


@pytest.mark.parametrize("n", range(8))
def test_uniform_cube_model_is_the_bit_reversed_table(n):
    # the model's index runs first input slowest, the cube table's first bit fastest
    table = random_boolean_function(rng_for(7, "models-cube", n), n, 2, psd=False)
    f = MatrixBooleanFunction(n, table)
    reversed_index = [int(format(k, f"0{n}b")[::-1], 2) if n else 0 for k in range(2**n)]
    assert uniform_cube_model(f).to_law().values.tobytes() == f.table[reversed_index].tobytes()


def _draws(rng, shape):
    """A real and a complex stack of the given shape."""
    real = rng.standard_normal(shape)
    return real, real + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d", range(1, 9))
def test_weighted_sum_is_byte_equal_to_tensordot(d):
    # every layout a converted call site hands the kernel, real weights over
    # real and over complex stacks: expect and the average states (K, d, d),
    # the pair sums (K, K, d, d), the conditional means and char-g's row mix
    # (rest, s, d, d) over the slice axis and the rest axis, and the trace
    # sums with the weights on the right of one (s,) or (rest, s) table
    for k in range(1, 71):
        rng = rng_for(32, "weighted-sum", 100 * d + k)
        probs = random_probability_vector(rng, k)
        pair_w = np.outer(probs, probs)
        rest = 1 + k % 7
        cases = []
        for stack in _draws(rng, (k, d, d)):
            cases.append((weighted_sum(probs, stack, 2), np.tensordot(probs, stack, axes=1)))
        for stack in _draws(rng, (k, k, d, d)):
            cases.append((
                weighted_sum(pair_w.ravel(), stack.reshape(k * k, d, d), 2),
                np.tensordot(pair_w, stack, axes=2),
            ))
            swapped = stack.swapaxes(0, 1)
            cases.append((
                weighted_sum(pair_w.ravel(), swapped.reshape(k * k, d, d), 2),
                np.tensordot(pair_w, swapped, axes=2),
            ))
        for stack in _draws(rng, (rest, k, d, d)):
            cases.append((
                weighted_sum(probs, np.moveaxis(stack, 1, 0), 3),
                np.tensordot(probs, stack, axes=(0, 1)),
            ))
            weights = random_probability_vector(rng, rest)
            cases.append((weighted_sum(weights, stack, 3), np.tensordot(weights, stack, axes=1)))
        for traces in (rng.standard_normal(k + 1), rng.standard_normal((rest * d, k + 1))):
            cases.append((
                weighted_sum(probs, np.moveaxis(traces[..., :-1], -1, 0), traces.ndim - 1),
                np.tensordot(traces[..., :-1], probs, axes=1),
            ))
        for got, want in cases:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (k, d, got.shape)


def test_weighted_sum_broadcasts_rows_of_weights():
    # a (rows, K) weight table over a (batch, 1, K, d, d) stack: each row
    # of each batch is its own one-row sum, as the evolved states take it
    rng = rng_for(32, "weighted-sum-rows", 0)
    rows = np.stack([random_probability_vector(rng, 4) for _ in range(3)])
    states = random_hermitian(rng, 2, (5, 4))
    mixed = weighted_sum(rows, states[:, None], 2)
    assert mixed.shape == (5, 3, 2, 2)
    for b in range(5):
        for r in range(3):
            assert mixed[b, r].tobytes() == weighted_sum(rows[r], states[b], 2).tobytes()


def _mixed_arity_models():
    for trial in range(60):
        rng = rng_for(32, "plan-models", trial)
        arities = tuple(int(a) for a in rng.integers(1, 5, trial % 6))
        laws = [FiniteLaw(random_probability_vector(rng, a), tuple(range(a))) for a in arities]
        yield ProductModel(laws, random_hermitian(rng, 1 + trial % 3, (math.prod(arities),)))


def test_slices_and_the_plan_keep_the_moveaxis_layout():
    # the cached weights are the per-call products, the values the bytes of
    # the moveaxis view, and the plan gathers the same slices
    for model in _mixed_arity_models():
        plan = resampling_plan(model.sizes)
        assert plan.rows.size == model.n * model.joint_size
        ends = []
        for i, law in enumerate(model.laws):
            want = moveaxis_slices(model, i)
            got = model.slices(i)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            cut = plan.rows[i * model.joint_size:(i + 1) * model.joint_size].reshape(-1, law.size)
            assert model.values[cut].tobytes() == want[2].tobytes()
            k, l = plan.pairs[i]
            assert [(int(a), int(b)) for a, b in zip(k, l)] == list(
                itertools.combinations(range(law.size), 2)
            )
            ends.append(np.stack([cut[:, k].ravel(), cut[:, l].ravel()]))
        assert np.array_equal(plan.ends, np.concatenate([np.empty((2, 0), int)] + ends, axis=1))


def test_the_cut_builds_no_plan(monkeypatch):
    # a plan holds joint * sum(sizes) indices and every input's pair ends;
    # the cut and everything above it take only the one input's rows
    def refuse(sizes):
        raise AssertionError(f"plan built for {sizes}")

    monkeypatch.setattr(models, "_build_plan", refuse)
    monkeypatch.setattr(models, "_cached_plan", refuse)
    laws = [FiniteLaw.uniform(tuple(range(300)))] * 2
    model = ProductModel(laws, np.arange(1.0, 90001.0).reshape(-1, 1, 1))
    for i in range(2):
        weights, probs, values = model.slices(i)
        assert values.shape == (300, 300, 1, 1) and values.flags.c_contiguous
        assert conditional_phi_entropy(XLOGX, model, i).entropies.shape == (300,)
    assert check_subadditivity(XLOGX, model).passed
    assert check_char_g(XLOGX, model).passed


def test_plans_are_kept_per_sizes_up_to_the_byte_bound(monkeypatch):
    monkeypatch.setattr(models, "_cached_plan", functools.lru_cache(maxsize=4)(models._build_plan))
    small = resampling_plan((2, 3, 1))
    assert resampling_plan((2, 3, 1)) is small
    assert not small.rows.flags.writeable and not small.ends.flags.writeable
    # 2^13 fair bits hold 2^13 * 26 indices, more than the bound: built per call
    bits = (2,) * 13
    assert 2**13 * 26 * np.dtype(np.intp).itemsize > PLAN_CACHE_BYTES
    assert resampling_plan(bits) is not resampling_plan(bits)
    assert models._cached_plan.cache_info().currsize == 1
    for arity in range(2, 8):
        resampling_plan((arity,))
    assert models._cached_plan.cache_info().currsize == 4
