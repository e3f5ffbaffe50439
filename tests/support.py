"""Test-only constructors and reference helpers shared by the test modules."""

import numpy as np

from matphi.errors import NotHermitian
from matphi.fourier import MatrixBooleanFunction
from matphi.holevo import CQEnsemble, MarkovKernel, _average_state, _bayes_inverse
from matphi.linalg import _require_hermitian_stack, positive_part
from matphi.models import DiscreteRandomMatrix, ProductModel
from matphi.phifun import PhiFunction
from matphi.sampling import random_complex_gaussian

SQUARE = PhiFunction.power(2.0).scalar()


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-distributed d x d unitary: QR of a complex Gaussian matrix
    with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(random_complex_gaussian(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def law_from_pairs(pairs) -> DiscreteRandomMatrix:
    """The law of (probability, matrix) pairs."""
    probs = np.array([p for p, _ in pairs], dtype=float)
    values = np.stack([np.asarray(v, dtype=complex) for _, v in pairs])
    return DiscreteRandomMatrix(probs, values)


def law_from_scalars(pairs) -> DiscreteRandomMatrix:
    """The law of (probability, scalar) pairs as 1 x 1 matrices."""
    return law_from_pairs([(p, np.array([[complex(v)]])) for p, v in pairs])


def constant_function(n: int, value) -> MatrixBooleanFunction:
    """The cube function equal to ``value`` at all 2^n points."""
    value = np.asarray(value, dtype=complex)
    return MatrixBooleanFunction(n, np.stack([value] * (2**n)))


def average_state(ens: CQEnsemble) -> np.ndarray:
    """sum_x mu(x) rho_x of an ensemble."""
    return _average_state(ens.probs, ens.states)


def backward_channel(mu: np.ndarray, kernel: MarkovKernel) -> MarkovKernel:
    """Bayes inverse K*(x|y) = K(y|x) mu(x) / (mu K)(y), rows indexed by y."""
    return MarkovKernel(_bayes_inverse(mu, kernel)[1])


def require_hermitian(a) -> np.ndarray:
    """Validate and return the (exactly) hermitized copy of one matrix ``a``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    return _require_hermitian_stack(a)


def negative_part(a) -> np.ndarray:
    """(A)_- = (-A)_+, so that A = (A)_+ - (A)_-, matrix by matrix."""
    return positive_part(-np.asarray(a, dtype=complex))


def moveaxis_slices(model: ProductModel, i: int):
    """ProductModel.slices computed afresh: the other inputs' weights
    multiplied one input at a time, and the table's own moveaxis view or
    copy."""
    weights = np.ones(())
    for law in model.laws[:i] + model.laws[i + 1:]:
        weights = np.multiply.outer(weights, law.probs)
    table = model.values.reshape(*model.sizes, *model.values.shape[1:])
    table = np.moveaxis(table, i, model.n - 1)
    return weights.ravel(), model.laws[i].probs, table.reshape(-1, *table.shape[model.n - 1:])
