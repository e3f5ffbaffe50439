"""Product models: the joint table of Z, guarded and validated once when
the model is built."""

import itertools
import math

import numpy as np
import pytest

from matphi.errors import DimensionMismatch, EnumerationTooLarge, NotHermitian
from matphi.fourier import MatrixBooleanFunction, uniform_cube_model
from matphi.models import MAX_ENUMERATION, FiniteLaw, MatrixInputModel, ProductModel
from matphi.sampling import random_boolean_function, random_product_model, rng_for

BITS = FiniteLaw.uniform((0, 1))


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
