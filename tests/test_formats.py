"""JSON file format round trips and rejection of malformed inputs."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matphi.errors import ConfigError
from matphi.formats import (
    boolean_function_from_obj,
    boolean_function_to_obj,
    ensemble_from_obj,
    ensemble_to_obj,
    kernel_from_obj,
    kernel_to_obj,
    matrix_from_obj,
    matrix_to_obj,
    product_model_from_obj,
    product_model_to_obj,
    witness_payload,
)
from matphi.fourier import MatrixBooleanFunction, search_lsi_counterexample
from matphi.holevo import MarkovKernel, random_ensemble
from matphi.models import ProductModel
from matphi.sampling import random_boolean_function, random_hermitian, random_product_model, rng_for


def test_matrix_round_trip():
    rng = rng_for(61, "formats", 0)
    m = random_hermitian(rng, 3)
    obj = matrix_to_obj(m)
    assert obj["d"] == 3
    assert len(obj["re"]) == 9
    assert np.max(np.abs(matrix_from_obj(obj) - m)) < 1e-15


def test_ensemble_round_trip():
    rng = rng_for(61, "formats", 1)
    ens = random_ensemble(rng, 3, 2)
    back = ensemble_from_obj(ensemble_to_obj(ens))
    assert np.allclose(back.probs, ens.probs)
    assert np.max(np.abs(back.states - ens.states)) < 1e-15


def test_kernel_round_trip_with_mu():
    kernel = MarkovKernel(np.array([[0.5, 0.5], [0.2, 0.8]]))
    mu = np.array([0.3, 0.7])
    back, mu_back = kernel_from_obj(kernel_to_obj(kernel, mu))
    assert np.allclose(back.rows, kernel.rows)
    assert np.allclose(mu_back, mu)
    _, none_mu = kernel_from_obj(kernel_to_obj(kernel))
    assert none_mu is None


def test_boolean_function_round_trip():
    rng = rng_for(61, "formats", 2)
    f = MatrixBooleanFunction(3, random_boolean_function(rng, 3, 2))
    obj = boolean_function_to_obj(f)
    assert len(obj["points"]) == 8
    back = boolean_function_from_obj(obj)
    assert np.max(np.abs(back.table - f.table)) < 1e-15


def test_ensemble_with_many_negative_states_is_a_one_line_config_error():
    obj = {"d": 2, "items": [{"p": 1 / 50, "rho": matrix_to_obj(np.diag([1.2, -0.2]))}] * 50}
    with pytest.raises(ConfigError) as err:
        ensemble_from_obj(obj)
    assert "\n" not in str(err.value)
    assert "50 eigenvalue(s)" in str(err.value)
    assert len(err.value.__cause__.offending) == 50


def test_boolean_function_rejects_missing_points():
    rng = rng_for(61, "formats", 3)
    f = MatrixBooleanFunction(2, random_boolean_function(rng, 2, 2))
    obj = boolean_function_to_obj(f)
    obj["points"] = obj["points"][:-1]
    with pytest.raises(ConfigError):
        boolean_function_from_obj(obj)


def test_boolean_function_rejects_bad_bitstring():
    rng = rng_for(61, "formats", 4)
    f = MatrixBooleanFunction(2, random_boolean_function(rng, 2, 2))
    obj = boolean_function_to_obj(f)
    obj["points"][0]["x"] = "2x"
    with pytest.raises(ConfigError):
        boolean_function_from_obj(obj)


def test_product_model_round_trip():
    rng = rng_for(61, "formats", 5)
    model = random_product_model(rng, 2, 2, arity=2)
    obj = product_model_to_obj(model, 2)
    back = product_model_from_obj(obj)
    for (p1, o1), (p2, o2) in zip(model.iter_joint(), back.iter_joint()):
        assert p1 == pytest.approx(p2)
    assert back.values.shape == model.values.shape
    for k in range(model.joint_size):
        assert np.max(np.abs(model.values[k] - back.values[k])) < 1e-15


@pytest.mark.parametrize("n", [7, 1, 0])
def test_product_model_rejects_a_wrong_declared_n(n):
    obj = product_model_to_obj(random_product_model(rng_for(61, "formats", 5), 2, 2), 2)
    obj["n"] = n
    with pytest.raises(ConfigError, match="input laws"):
        product_model_from_obj(obj)


def test_witness_is_boolean_function_plus_search_fields():
    result = search_lsi_counterexample(d=2, n=1, restarts=1, steps=20, seed=0)
    obj = witness_payload(result)
    assert set(obj) == {"n", "d", "points", "found", "objective", "entropy", "energy", "log_d"}
    assert obj["objective"] == result.objective
    assert obj["log_d"] == np.log(2)
    back = boolean_function_from_obj(obj)
    assert np.array_equal(back.table, result.f.table)


FUZZ = settings(max_examples=100, deadline=None, derandomize=True)
_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([-1, 0, 1, 2, 3, 20, 10**400, "1"])
)
_json = st.recursive(
    _leaf,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=16,
)


def _paths(obj, prefix=()):
    """Every key path into a JSON object, the object itself first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, valid):
    """A valid object with one to three entries replaced by any JSON value
    or deleted."""
    obj = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            return draw(_json)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_json)
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.pop(path[-1])
    return obj


_rng = rng_for(61, "formats-fuzz", 0)
VALID = {
    "ensemble": (ensemble_from_obj, ensemble_to_obj(random_ensemble(_rng, 3, 2))),
    "boolean-function": (
        boolean_function_from_obj,
        boolean_function_to_obj(MatrixBooleanFunction(2, random_boolean_function(_rng, 2, 2))),
    ),
    "product-model": (
        product_model_from_obj,
        product_model_to_obj(random_product_model(_rng, 2, 2, arity=2), 2),
    ),
}


@pytest.mark.parametrize("kind", sorted(VALID))
def test_fuzzed_objects_load_or_raise_config_error(kind):
    load, valid = VALID[kind]

    @FUZZ
    @given(_json | _mutated(valid))
    def loads_or_config_error(obj):
        try:
            loaded = load(obj)
        except ConfigError:
            return
        if isinstance(loaded, ProductModel):
            loaded = loaded.to_law()
        for array in vars(loaded).values():
            if isinstance(array, np.ndarray):
                assert np.all(np.isfinite(array)), obj

    loads_or_config_error()


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), None])
@pytest.mark.parametrize("kind", sorted(VALID))
def test_non_finite_matrix_entry_is_a_config_error(kind, entry):
    load, valid = VALID[kind]
    for path in _paths(valid):
        if path[-1:] in (("re",), ("im",)):
            obj = copy.deepcopy(valid)
            parent = obj
            for key in path:
                parent = parent[key]
            parent[-1] = entry
            with pytest.raises(ConfigError):
                load(obj)
