"""JSON file format round trips and rejection of malformed inputs."""

import numpy as np
import pytest

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
        assert np.max(np.abs(model.evaluator(o1) - back.evaluator(o2))) < 1e-15


def test_witness_is_boolean_function_plus_search_fields():
    result = search_lsi_counterexample(d=2, n=1, restarts=1, steps=20, seed=0)
    obj = witness_payload(result)
    assert set(obj) == {"n", "d", "points", "found", "objective", "entropy", "energy", "log_d"}
    assert obj["objective"] == result.objective
    assert obj["log_d"] == np.log(2)
    back = boolean_function_from_obj(obj)
    assert np.array_equal(back.table, result.f.table)
