"""Seeded instance generators.

Randomness is derived from a splittable counter scheme keyed by
(seed, label, index) so that serial and parallel executions of the same
configuration see identical streams.
"""

from __future__ import annotations

import zlib

import numpy as np

from .linalg import hermitian_part
from .models import DiscreteRandomMatrix, FiniteLaw, ProductModel

PSD_EIGEN_FLOOR = 1e-3
PSD_NORM_CAP = 10.0
BLOCK_ENTRIES = 2**16  # complex entries in one stacked evaluation of a search or sweep


def rng_for(seed: int, label: str, index: int = 0) -> np.random.Generator:
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), key, int(index)]))


def climb(value, propose, score, accept, step, floor, steps, shrink, grow=1.0):
    """Lock-step hill climbs of restarts whose states the callbacks own;
    takes the start values, -inf meaning none, and returns the final ones.
    At every step, propose(live, step_live) draws a move for each live
    restart from that restart's own generator, so a restart climbs alike
    alone or stacked; score(live, move) values the moved states without
    writing them, and accept(won, kept, move) writes the rows kept of the
    move into the restarts won, and nothing else. A kept move grows the
    step by grow, capped at the starting step; a rejected one shrinks it
    by shrink. Restarts stop below floor."""
    value = np.array(value, dtype=float)
    start, step = float(step), np.full(len(value), float(step))
    live = np.arange(len(value))
    for _ in range(steps):
        if not live.size:
            break
        move = propose(live, step[live])
        cand_value = score(live, move)
        up = cand_value > value[live]
        won = live[up]
        accept(won, up, move)
        value[won] = cand_value[up]
        step[won] = np.minimum(grow * step[won], start)
        step[live[~up]] *= shrink
        live = live[step[live] >= floor]
    return value


def random_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, d: int, shape: tuple = ()) -> np.ndarray:
    """Hermitian part of a complex Gaussian d x d matrix, or a stack of
    them on the leading axes ``shape``; each matrix reads a real then an
    imaginary block, the stream of one call per matrix."""
    g = rng.standard_normal((*shape, 2, d, d))
    return hermitian_part(g[..., 0, :, :] + 1j * g[..., 1, :, :])


def random_unit_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    h = random_hermitian(rng, d)
    return h / float(np.linalg.norm(h))


def random_psd(rng: np.random.Generator, d: int, shape: tuple = ()) -> np.ndarray:
    """G†G + PSD_EIGEN_FLOOR*I with complex Gaussian G, rescaled so the
    Schatten-2 norm stays below PSD_NORM_CAP; keeps spectra and the
    divided-difference tables that inverse derivatives divide by well
    conditioned. A stack on the leading axes ``shape`` is drawn at once
    and reads the stream of one call per matrix; each matrix is rescaled
    by its own ``np.linalg.norm``, so it rounds as it does alone."""
    g = rng.standard_normal((*shape, 2, d, d))
    g = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    m = hermitian_part(g.conj().swapaxes(-1, -2) @ g) + PSD_EIGEN_FLOOR * np.eye(d)
    for x in m.reshape(-1, d, d):
        norm = float(np.linalg.norm(x))
        if norm > PSD_NORM_CAP:
            x[...] = x * (PSD_NORM_CAP / norm) + PSD_EIGEN_FLOOR * np.eye(d)
    return m


def random_pd(rng: np.random.Generator, d: int, floor: float = 0.1) -> np.ndarray:
    return random_psd(rng, d) + floor * np.eye(d)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    m = random_psd(rng, d)
    return m / float(np.trace(m).real)


def random_probability_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.random(k) + 0.05
    return v / v.sum()


def random_kernel(rng: np.random.Generator, nx: int, ny: int) -> np.ndarray:
    rows = rng.random((nx, ny)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def random_law(
    rng: np.random.Generator, d: int, size: int, psd: bool = True, pd_floor: float = 0.0
) -> DiscreteRandomMatrix:
    probs = random_probability_vector(rng, size)
    values = (random_psd if psd else random_hermitian)(rng, d, (size,))
    return DiscreteRandomMatrix(probs, values + pd_floor * np.eye(d) if psd else values)


def random_product_model(
    rng: np.random.Generator, d: int, n: int, arity: int = 2, psd: bool = True
) -> ProductModel:
    """Random value table over independent labelled inputs."""
    laws = [
        FiniteLaw(random_probability_vector(rng, arity), tuple(range(arity)))
        for _ in range(n)
    ]
    return ProductModel(laws, (random_psd if psd else random_hermitian)(rng, d, (arity**n,)))


def random_boolean_function(
    rng: np.random.Generator, n: int, d: int, psd: bool = True
) -> np.ndarray:
    """Table of 2^n Hermitian (or PSD) values for a cube function."""
    return (random_psd if psd else random_hermitian)(rng, d, (2**n,))
