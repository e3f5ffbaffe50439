"""Test-only constructors and reference helpers shared by the test modules."""

import numpy as np

from matphi.errors import NotHermitian
from matphi.fourier import (
    MatrixBooleanFunction,
    check_bonami_beckner,
    check_log_sobolev,
    check_phi_sobolev,
    fourier_transform,
    inverse_fourier,
    noise_operator,
    parseval_check,
)
from matphi.frechet import (
    _in_turn,
    _inverse_table,
    _operands,
    _schur,
    _second,
    dd1_table,
    dd2_table,
    inverse_derivative_superoperator,
)
from matphi.holevo import CQEnsemble, MarkovKernel, _average_state, _bayes_inverse
from matphi.fourier import _square_entropy
from matphi.linalg import (
    NONNEGATIVE,
    _require_hermitian_stack,
    eigenvalues,
    hermitian_part,
    positive_part,
    psd_power,
    schatten_norm,
    spectral_map,
)
from matphi.models import DiscreteRandomMatrix, ProductModel, weighted_sum
from matphi.phifun import PhiFunction
from matphi.report import MAX_WITNESSES, CheckReport, matrix_to_obj, relative_tol, verdict
from matphi.sampling import (
    random_boolean_function,
    random_complex_gaussian,
    random_pd,
    random_probability_vector,
    random_product_model,
    random_psd,
    random_unit_hermitian,
    rng_for,
)

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


# The per-trial characterization sweeps as they ran before their trials were
# judged in stacks: the sweep loop, the single-instance kernels and the
# bodies, each trial judged alone. The stacked sweeps must report the same
# bytes.

def reference_sweep(label, body, trials, seed, tol=None, **fields) -> CheckReport:
    """``report.sweep`` as a per-probe fold."""
    violations = []
    max_gap = -np.inf
    for trial in range(trials):
        outcomes = body(rng_for(seed, label, trial), trial)
        if isinstance(outcomes, CheckReport):
            outcomes = (outcomes.max_gap, outcomes.tol, None)
        if isinstance(outcomes, tuple):
            outcomes = [outcomes]
        for gap, probe_tol, witness in outcomes:
            max_gap = np.maximum(max_gap, gap)  # NaN stays
            if not gap <= (probe_tol if tol is None else tol) and len(violations) < MAX_WITNESSES:
                violations.append({**(witness or {}), "gap": float(gap), "trial": trial})
    return CheckReport(
        check=label, passed=not violations, max_gap=float(max_gap), trials=trials, seed=seed,
        violations=violations, **fields,
    )


def reference_phi_entropy(phi, law) -> float:
    scalar = phi.scalar()
    values, mean = law.values, law.mean()
    w = scalar.admit(eigenvalues(np.concatenate([values, mean[None]])))
    traces = scalar.fn(w).sum(axis=-1) / w.shape[-1]
    return float(weighted_sum(law.probs, traces[:-1], 0) - traces[-1])


def reference_bregman_maps(phi, u, v):
    pair = np.stack([u, v])
    if pair.ndim != 3:
        raise NotHermitian(f"expected two square matrices, got shape {pair.shape[1:]}")
    u, v = _require_hermitian_stack(pair)
    scalar, psi = phi.scalar(), phi.psi()
    w, q = np.linalg.eigh(np.stack([u, u + v]))
    phi_w, w = scalar.fn(scalar.admit(w)), psi.admit(w)
    rotated = q.conj().swapaxes(-1, -2) @ v @ q
    first = (psi.fn(w) * rotated.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)
    a_val = phi_w[1].sum() - phi_w[0].sum() - first[0]
    c_val = (dd1_table(psi, w[0]) * np.abs(rotated[0]) ** 2).sum()
    return float(a_val), float(first[1] - first[0]), float(c_val)


def reference_joint_convexity_probes(map_fn, pairs, rng):
    (u1, v1), (u2, v2) = pairs
    ends = map_fn(u1, v1), map_fn(u2, v2)
    probes = []
    for t in (0.5, float(rng.uniform(0.05, 0.95))):
        lhs = t * ends[0] + (1.0 - t) * ends[1]
        rhs = map_fn(t * u1 + (1 - t) * u2, t * v1 + (1 - t) * v2)
        gap, probe_tol = rhs - lhs, relative_tol(1e-8, lhs, rhs)
        witness = None
        if gap > probe_tol:
            witness = {"t": t, "u1": matrix_to_obj(u1), "v1": matrix_to_obj(v1),
                       "u2": matrix_to_obj(u2), "v2": matrix_to_obj(v2)}
        probes.append((gap, probe_tol, witness))
    return probes


def reference_char_a_probe(psi, d, rng):
    a = random_pd(rng, d)
    b = random_pd(rng, d)
    inv = inverse_derivative_superoperator(psi, np.stack([a, b, 0.5 * (a + b)]))
    diff = hermitian_part(inv[2] - 0.5 * (inv[0] + inv[1]))
    lam = float(eigenvalues(diff)[0])
    probe_tol = relative_tol(1e-8, max(float(np.linalg.norm(m)) for m in inv))
    witness = None
    if -lam > probe_tol:
        witness = {"min_eigenvalue": lam, "a": matrix_to_obj(a), "b": matrix_to_obj(b)}
    return -lam, probe_tol, witness


def reference_char_e(phi, a, h, k):
    """(lhs, rhs, tol) of ``entropy.check_char_e``."""
    if phi.is_affine:
        return 0.0, 0.0, relative_tol(1e-6)
    psi = phi.psi()
    a, h, k = _operands(a, h, k)
    fd_step = 1e-4 * (1.0 + float(np.linalg.norm(a)))
    w, u = np.linalg.eigh(np.stack([a, a + fd_step * k, a - fd_step * k]))
    inv = _inverse_table(psi, w[0])
    t2 = dd2_table(psi, _in_turn(psi.admit, w))
    tinv_h = _schur(u[0], inv, h)
    second, plus, minus = _second(u, t2, k, tinv_h)
    d3_psi = (plus - minus) / (2.0 * fd_step)
    lhs_mat, inner = _schur(u[0], inv, np.stack([d3_psi, second]))
    lhs = float(np.trace(h @ lhs_mat).real)
    rhs_mat = _schur(u[0], inv, _second(u[0], t2[0], k, inner))
    rhs = 2.0 * float(np.trace(h @ rhs_mat).real)
    return lhs, rhs, relative_tol(1e-6, lhs, rhs)


def reference_char_h(phi, z1, z2, t) -> CheckReport:
    mixed = DiscreteRandomMatrix(z1.probs, t * z1.values + (1 - t) * z2.values)
    lhs = reference_phi_entropy(phi, mixed)
    rhs = t * reference_phi_entropy(phi, z1) + (1 - t) * reference_phi_entropy(phi, z2)
    return verdict(
        "char-h", lhs - rhs, relative_tol(1e-9, lhs, rhs), phi=phi.label, d=z1.d,
        details={"lhs": lhs, "rhs": rhs, "t": t},
    )


def reference_duality_lower_bound(phi, z_law, t_law) -> float:
    psi_t = phi.psi().apply(np.concatenate([t_law.values, t_law.mean()[None]]))
    terms = np.einsum("kij,kji->k", psi_t[:-1] - psi_t[-1], z_law.values - t_law.values)
    return float(z_law.expect(terms.real)) / z_law.d + reference_phi_entropy(phi, t_law)


def reference_expected_entropy(phi, model, i) -> float:
    """The expected entropy of the i-th input's slice laws, one law at a
    time over the moveaxis slices."""
    weights, probs, values = moveaxis_slices(model, i)
    entropies = [reference_phi_entropy(phi, DiscreteRandomMatrix(probs, v)) for v in values]
    return float(np.dot(weights, entropies))


def reference_subadditivity(phi, model):
    """(lhs, rhs) of ``entropy.check_subadditivity``: H(Z), then the
    inputs' expected conditional entropies summed in input order."""
    lhs = reference_phi_entropy(phi, model.to_law())
    return lhs, sum(reference_expected_entropy(phi, model, i) for i in range(model.n))


def reference_char_g(phi, model):
    """(lhs, rhs) of ``entropy.check_char_g``: the expected entropy of the
    second input's slice laws, then the entropy of the slices averaged
    over the first input."""
    weights, probs, rows = moveaxis_slices(model, 1)
    cond = reference_expected_entropy(phi, model, 1)
    mixed = DiscreteRandomMatrix(probs, weighted_sum(weights, rows, 3))
    return cond, reference_phi_entropy(phi, mixed)


def _reference_bregman(index):
    def body(rng, trial, phi, d):
        u1, v1, u2, v2 = random_psd(rng, d, (4,))
        pairs = (u1 + 0.05 * np.eye(d), v1), (u2 + 0.05 * np.eye(d), v2)
        return reference_joint_convexity_probes(
            lambda u, v: reference_bregman_maps(phi, u, v)[index], pairs, rng
        )

    return body


def _reference_char_e(rng, trial, phi, d):
    a = random_pd(rng, d, floor=0.3)
    h = random_unit_hermitian(rng, d)
    k = random_unit_hermitian(rng, d)
    lhs, rhs, tol = reference_char_e(phi, a, h, k)
    witness = None
    if not rhs - lhs <= tol:
        witness = {"lhs": lhs, "rhs": rhs, "a": matrix_to_obj(a),
                   "h": matrix_to_obj(h), "k": matrix_to_obj(k)}
    return rhs - lhs, tol, witness


def _reference_char_f(rng, trial, phi, d):
    scalar = phi.scalar()
    t = float(rng.uniform(0.05, 0.95))

    def f_t(u, v):
        w = scalar.admit(eigenvalues(np.stack([u, v, t * u + (1 - t) * v])))
        traces = scalar.fn(w).sum(axis=-1)
        return float(t * traces[0] + (1 - t) * traces[1] - traces[2])

    pairs = tuple((random_pd(rng, d, 0.05), random_pd(rng, d, 0.05)) for _ in range(2))
    return [
        (gap, tol, witness and {**witness, "f_t": t})
        for gap, tol, witness in reference_joint_convexity_probes(f_t, pairs, rng)
    ]


def _reference_law(rng, probs, d, floor=0.0):
    return DiscreteRandomMatrix(probs, random_psd(rng, d, (len(probs),)) + floor * np.eye(d))


def _reference_char_h(rng, trial, phi, d):
    probs = random_probability_vector(rng, 3)
    z1, z2 = _reference_law(rng, probs, d), _reference_law(rng, probs, d)
    return reference_char_h(phi, z1, z2, float(rng.uniform()))


def _reference_char_i(rng, trial, phi, d):
    probs = random_probability_vector(rng, 3)
    z = _reference_law(rng, probs, d)
    t = _reference_law(rng, probs, d, floor=0.05)
    bound = reference_duality_lower_bound(phi, z, t)
    h = reference_phi_entropy(phi, z)
    return bound - h, relative_tol(1e-9, bound, h), None


# the n of the model sweeps at the default config.n = 3, clamped
REFERENCE_N = {"char-g": 2, "char-j": 3}


def _reference_char_g(rng, trial, phi, d):
    cond, avg = reference_char_g(phi, random_product_model(rng, d, REFERENCE_N["char-g"]))
    return avg - cond, relative_tol(1e-9, cond, avg), None


def _reference_char_j(rng, trial, phi, d):
    lhs, rhs = reference_subadditivity(phi, random_product_model(rng, d, REFERENCE_N["char-j"]))
    return lhs - rhs, relative_tol(1e-9, lhs, rhs), None


REFERENCE_BODIES = {
    "char-a": lambda rng, trial, phi, d: reference_char_a_probe(phi.psi(), d, rng),
    "char-b": _reference_bregman(0),
    "char-c": _reference_bregman(1),
    "char-d": _reference_bregman(2),
    "char-e": _reference_char_e,
    "char-f": _reference_char_f,
    "char-g": _reference_char_g,
    "char-h": _reference_char_h,
    "char-i": _reference_char_i,
    "char-j": _reference_char_j,
}


def reference_characterizations(name, phi, d, seed, trial_counts, tol=None) -> list:
    """The per-trial reports of a stacked characterization sweep at phi
    and an already clamped d, one per trial count; each trial is judged
    once, for all counts."""
    body, outcomes = REFERENCE_BODIES[name], {}

    def cached(rng, trial):
        if trial not in outcomes:
            outcomes[trial] = body(rng, trial, phi, d)
        return outcomes[trial]

    return [
        reference_sweep(
            name, cached, trials, seed, tol=tol, phi=phi.label, d=d, n=REFERENCE_N.get(name)
        )
        for trials in trial_counts
    ]


# The hypercube sweeps as they ran before their trials were judged in
# stacks: each trial's function built, transformed and checked alone by the
# public entries. The stacked sweeps must report the same bytes.

def cube_function(rng, n, d, psd) -> MatrixBooleanFunction:
    """The cube function of the table that the suites draw from rng."""
    return MatrixBooleanFunction(n, random_boolean_function(rng, n, d, psd=psd))


def _reference_round_trip(rng, trial, run):
    f = cube_function(rng, run.n, run.d, psd=False)
    back = inverse_fourier(fourier_transform(f))
    dev = float(np.max(np.abs(back.table - f.table)))
    return dev, relative_tol(1e-12, float(np.max(np.abs(f.table)))), None


def _reference_noise_composition(rng, trial, run):
    table = fourier_transform(cube_function(rng, run.n, run.d, psd=False))
    gamma, delta = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
    twice = noise_operator(noise_operator(table, gamma), delta)
    once = noise_operator(table, gamma * delta)
    dev = float(np.max(np.abs(twice.coeffs - once.coeffs)))
    return dev, relative_tol(1e-12, float(np.max(np.abs(table.coeffs)))), None


def _reference_cycling_p(check, ps):
    """Body of a hypercube inequality ``check(f, p)`` whose exponent
    cycles through ps with the trial index."""

    def body(rng, trial, run):
        f = cube_function(rng, run.n, run.d, psd=True)
        p = ps[trial % len(ps)]
        rep = check(f, p)
        return rep.max_gap, rep.tol, {"p": p}

    return body


CUBE_BODIES = {
    "fourier-round-trip": _reference_round_trip,
    "parseval": lambda rng, trial, run: parseval_check(
        cube_function(rng, run.n, run.d, psd=False)
    ),
    "noise-composition": _reference_noise_composition,
    "bonami-beckner": _reference_cycling_p(check_bonami_beckner, (1.0, 1.25, 1.5, 1.75, 2.0)),
    "phi-sobolev": _reference_cycling_p(check_phi_sobolev, (1.1, 1.5, 1.9)),
    "log-sobolev": lambda rng, trial, run: check_log_sobolev(
        cube_function(rng, run.n, run.d, psd=True)
    ),
}


# The hypercube kernels as they computed one table before they took stacks.
# The public entries must keep their bits, and through them, the sweeps.

def parent_fwht(a):
    """Walsh-Hadamard butterflies along axis 0, one reshaped pass per level."""
    a, h, m = a.copy(), 1, a.shape[0]
    while h < m:
        blocks = a.reshape(m // (2 * h), 2, h, *a.shape[1:])
        a = np.stack([blocks[:, 0] + blocks[:, 1], blocks[:, 0] - blocks[:, 1]], axis=1)
        a = a.reshape(m, *a.shape[3:])
        h *= 2
    return a


def _parent_popcounts(n):
    return np.array([bin(s).count("1") for s in range(2**n)])


def _parent_trace(a) -> float:
    return float(np.trace(a).real) / a.shape[0]


def parent_noise(coeffs, n, gamma):
    weights = np.asarray(float(gamma) ** _parent_popcounts(n), dtype=float)
    return coeffs * weights[:, None, None]


def parent_parseval(f):
    """(gap, tol) of ``parseval_check``."""
    coeffs = parent_fwht(f.table) / 2**f.n
    lhs = np.mean(np.einsum("kij,kjl->kil", f.table, f.table), axis=0)
    rhs = np.einsum("kij,kjl->il", coeffs, coeffs)
    tol = relative_tol(1e-10, float(np.max(np.abs(f.table))) ** 2)
    return float(np.max(np.abs(lhs - rhs))), tol


def parent_energy(f) -> float:
    coeffs = parent_fwht(f.table) / 2**f.n
    traces = np.einsum("kij,kji->k", coeffs, coeffs).real
    return float(_parent_popcounts(f.n) @ traces) / f.d


def parent_bonami_beckner(f, p):
    coeffs = parent_fwht(f.table) / 2**f.n
    weights = (p - 1.0) ** _parent_popcounts(f.n)
    lhs = float(np.sqrt(weights @ schatten_norm(coeffs, p, normalized=True) ** 2))
    return lhs, float(np.mean(schatten_norm(f.table, p, normalized=True) ** p)) ** (1.0 / p)


def parent_phi_sobolev(values, energy, p):
    f2_mean = np.mean(np.einsum("kij,kjl->kil", values, values), axis=0)
    fp = spectral_map(lambda w: NONNEGATIVE.admit(w) ** p, hermitian_part(values))
    lhs = _parent_trace(f2_mean) - _parent_trace(psd_power(fp.mean(axis=0), 2.0 / p))
    dim_factor = values.shape[-1] ** (1.0 - 2.0 / p)
    return lhs, (2.0 - p) * energy * dim_factor + _parent_trace(f2_mean) * (1.0 - dim_factor)


def parent_log_sobolev(values, energy):
    NONNEGATIVE.admit(eigenvalues(values))
    f2_mean = np.mean(np.einsum("kij,kjl->kil", values, values), axis=0)
    rhs = 2.0 * energy + np.log(values.shape[-1]) * _parent_trace(f2_mean)
    return float(_square_entropy(values)), rhs
