"""Random-instance generators shared across test modules."""

from __future__ import annotations

import math

import numpy as np

from lpow import (
    DensityMatrix,
    WitnessReport,
    bell_operator_matrix,
    cond_joint_prob,
    lhv_bound,
    lpo_project,
    marginal_means,
    preset_functional,
    scenario_from_directions,
)
from lpow.bell import _sign_vertices
from lpow.linalg import PAULIS, kron
from lpow.states import first_moments
from lpow.witness import DEGENERATE_NORM, MERMIN_SIGNS


def ginibre_state(rng: np.random.Generator, dims: tuple[int, ...] = (2, 2)) -> DensityMatrix:
    """Random full-rank density matrix G G^dag / Tr(G G^dag)."""
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    # Symmetrize away the last bits of float noise so validation stays tight.
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, dims)


def random_pure_state(rng: np.random.Generator, dims: tuple[int, ...] = (2, 2)) -> DensityMatrix:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def random_product_state(rng: np.random.Generator, n_parties: int = 2) -> DensityMatrix:
    from lpow import make_state

    kets = []
    for _ in range(n_parties):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        kets.append(v / np.linalg.norm(v))
    return make_state("pure_product", kets=kets)


def random_directions(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_scenario(rng: np.random.Generator, m: int = 2, n: int = 2):
    return scenario_from_directions(random_directions(rng, m), random_directions(rng, n))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish 3x3 rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_orthogonal_scenario(rng: np.random.Generator, m: int = 3, n: int = 3):
    rot_a = random_rotation(rng)
    rot_b = random_rotation(rng)
    return scenario_from_directions(rot_a.T[:m], rot_b.T[:n], orthogonal=True)


def random_effect(rng: np.random.Generator, d: int = 4) -> np.ndarray:
    """Random POVM effect with spectrum inside [0, 1]."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g @ g.conj().T
    h = h / (np.linalg.eigvalsh(h).max() + 1e-9)
    return 0.5 * (h + h.conj().T)


# Reference see-saw: the plain alternating loop, one map per round, as it ran
# before the SQUAREM cycles and before each block update became one
# Kronecker-map product and before the round's value was read off the last
# update. Every update is an einsum over the (restarts, k, 3) direction
# batches and every round is scored by a separate three-operand evaluation.

_Z = np.array([0.0, 0.0, 1.0])


def _reference_normalize_rows(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(norms > 1e-14, v / np.where(norms == 0.0, 1.0, norms), fallback)


def reference_masked_normalize_rows(v: np.ndarray) -> np.ndarray:
    """The library's row normalization as it was before its fast path: a masked divide by the reduced norms."""
    norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    out = np.empty_like(v)
    out[...] = _Z
    return np.divide(v, norms, out=out, where=norms > 1e-14)


def reference_seesaw(update_a, update_b, value, n: int, cfg):
    """Lockstep block ascent scored by ``value(a_dirs, b_dirs)`` each round."""
    rng = np.random.default_rng(cfg.seed)
    b_dirs = _reference_normalize_rows(rng.normal(size=(cfg.restarts, n, 3)), _Z)
    values = np.full(cfg.restarts, -np.inf)
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        a_dirs = update_a(b_dirs)
        b_dirs = update_b(a_dirs)
        new_values = value(a_dirs, b_dirs)
        converged = bool(np.all(new_values - values <= cfg.value_tolerance))
        values = np.maximum(values, new_values)
        if converged:
            break
    best = int(np.argmax(values))
    return a_dirs[best], b_dirs[best], float(values[best]), iterations, converged


def reference_functional_seesaw(rho: DensityMatrix, f, cfg):
    """Tr(rho B) see-saw with einsum gradient updates and a separate batch value."""
    r_a, r_b, t = first_moments(rho)

    def update_a(b_dirs):
        grad = np.einsum("mn,rny->rmy", f.alpha, b_dirs @ t.T) + f.beta[:, None] * r_a[None, None, :]
        return _reference_normalize_rows(grad, _Z)

    def update_b(a_dirs):
        # g_y = sum_x alpha_xy T^T a_x. The library loop once contracted
        # alpha^T here, which agrees only for symmetric alpha and fails on
        # non-square alpha.
        grad = np.einsum("mn,rmy->rny", f.alpha, a_dirs @ t) + f.gamma[:, None] * r_b[None, None, :]
        return _reference_normalize_rows(grad, _Z)

    def batch_value(a_d, b_d):
        a = a_d @ r_a
        b = b_d @ r_b
        c = np.einsum("rmx,xy,rny->rmn", a_d, t, b_d)
        return np.einsum("mn,rmn->r", f.alpha, c) + a @ f.beta + b @ f.gamma

    return reference_seesaw(update_a, update_b, batch_value, f.shape[1], cfg)


def reference_setting_forms(r, w, q) -> np.ndarray:
    """The 3x3 forms M_k = sym(r w_k^T) + q_k r r^T, batched over w (..., k, 3)."""
    rw = r[:, None] * w[..., None, :]
    return 0.5 * (rw + rw.swapaxes(-1, -2)) + q[:, None, None] * np.outer(r, r)


def reference_top_eigenpairs(r, w, q) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvectors (..., k, 3) and eigenvalues (..., k) of the forms, by batched eigh."""
    values, vectors = np.linalg.eigh(reference_setting_forms(r, w, q))
    return vectors[..., -1], values[..., -1]


def reference_witness_seesaw(rho: DensityMatrix, f, cfg):
    """Free two-sided witness see-saw: eigh eigenvector updates, value from the directions."""
    r_a, r_b, t = first_moments(rho)

    def update_a(b_dirs):
        w = (f.alpha * (b_dirs @ r_b)[:, None, :]) @ (b_dirs @ t.T)
        return reference_top_eigenpairs(r_a, w, f.beta)[0]

    def update_b(a_dirs):
        w = (f.alpha.T * (a_dirs @ r_a)[:, None, :]) @ (a_dirs @ t)
        return reference_top_eigenpairs(r_b, w, f.gamma)[0]

    def value_from_dirs(a_dirs, b_dirs):
        a = a_dirs @ r_a
        b = b_dirs @ r_b
        c = np.einsum("rmx,xy,rny->rmn", a_dirs, t, b_dirs)
        return (
            np.einsum("xy,rx,ry,rxy->r", f.alpha, a, b, c)
            + (a**2) @ f.beta
            + (b**2) @ f.gamma
        )

    return reference_seesaw(update_a, update_b, value_from_dirs, f.shape[1], cfg)


# Explicit oracles: the trace and perceived-operator evaluations that the
# first-moment formulas of marginal_means, asym_value_fixed, sym_value_fixed
# and lpo_correlator must reproduce. They work on 2x2 and 4x4 matrices and
# draw no random numbers.


def trace_means(rho: DensityMatrix, s):
    """Tables a_x = Tr(rho_A A_x), b_y = Tr(rho_B B_y), C_xy = Tr[rho (A_x x B_y)]."""
    rho_a = rho.marginal(0).matrix
    rho_b = rho.marginal(1).matrix
    a = np.array([np.trace(rho_a @ o.matrix).real for o in s.alice])
    b = np.array([np.trace(rho_b @ o.matrix).real for o in s.bob])
    c = np.array(
        [
            [np.trace(rho.matrix @ kron(ax.matrix, by.matrix)).real for by in s.bob]
            for ax in s.alice
        ]
    )
    return a, b, c


def assert_means_match_traces(rho: DensityMatrix, s, tol: float = 1e-12) -> None:
    means = marginal_means(rho, s)
    a, b, c = trace_means(rho, s)
    assert np.abs(means.a - a).max() <= tol
    assert np.abs(means.b - b).max() <= tol
    assert np.abs(means.c - c).max() <= tol


def operator_asym_value(rho: DensityMatrix, f, s) -> float:
    """Tr[(rho_A x rho_B) B(s)] with the assembled 4x4 Bell operator."""
    rho_prod = kron(rho.marginal(0).matrix, rho.marginal(1).matrix)
    return float(np.trace(rho_prod @ bell_operator_matrix(f, s)).real)


def perceived_product(x: np.ndarray, rho: DensityMatrix) -> float:
    """Tr[rho (X)^A x (X)^B] with both perceived operators projected explicitly."""
    xa = lpo_project(x, rho, 0).matrix
    xb = lpo_project(x, rho, 1).matrix
    return float(np.trace(rho.matrix @ kron(xa, xb)).real)


def perceived_sym_value(rho: DensityMatrix, f, s) -> float:
    """Two-sided witness as the coefficient-weighted sum of perceived products."""
    m, n = f.shape
    i2 = np.eye(2)
    explicit = 0.0
    for x in range(m):
        for y in range(n):
            if f.alpha[x, y] == 0.0:
                continue
            explicit += f.alpha[x, y] * perceived_product(
                kron(s.alice[x].matrix, s.bob[y].matrix), rho
            )
    for x in range(m):
        if f.beta[x] != 0.0:
            explicit += f.beta[x] * perceived_product(kron(s.alice[x].matrix, i2), rho)
    for y in range(n):
        if f.gamma[y] != 0.0:
            explicit += f.gamma[y] * perceived_product(kron(i2, s.bob[y].matrix), rho)
    return explicit


def explicit_lpo_correlator(ax, by, rho: DensityMatrix) -> float:
    """Perceived correlator as the explicit product of the projected ax x by."""
    return perceived_product(kron(ax.matrix, by.matrix), rho)


# Vertex-scan oracles: the sign-vertex scans that lhv_bound, asym_sup and the
# Mermin witness ran before they shared the vertex kernel, as they were.


def reference_lhv_bound(f) -> float:
    """Max of F over the 2^n b-side sign vertices, the best a taken per vertex."""
    signs = _sign_vertices(f.shape[1])
    values = np.abs(signs @ f.alpha.T + f.beta).sum(axis=1) + signs @ f.gamma
    return float(values.max())


def reference_asym_sup(rho: DensityMatrix, f):
    """One-sided witness by scoring all 2^(m+n) (a, b) sign vertices.

    Returns the report (ties to the first maximum in lexicographic sign
    order) and the value of every vertex.
    """
    m, n = f.shape
    signs = _sign_vertices(m + n)
    r_a, r_b, _ = first_moments(rho)
    norm_a = float(np.linalg.norm(r_a))
    norm_b = float(np.linalg.norm(r_b))
    a = norm_a * signs[:, None, :m]
    b = norm_b * signs[:, m:, None]
    # Row and column stacks multiply in bilinear_value's order, so each
    # vertex scores exactly as bilinear_value would score it.
    values = (a @ f.alpha @ b)[:, 0, 0] + (a @ f.beta)[:, 0] + (f.gamma @ b)[:, 0]
    best = int(np.argmax(values))
    best_value = values[best]
    best_signs = signs[best]
    unit_a = r_a / norm_a if norm_a > DEGENERATE_NORM else _Z
    unit_b = r_b / norm_b if norm_b > DEGENERATE_NORM else _Z
    scenario = scenario_from_directions(
        [s * unit_a for s in best_signs[:m]],
        [s * unit_b for s in best_signs[m:]],
    )
    report = WitnessReport(
        value=float(best_value),
        optimizing_scenario=scenario,
        bounds=(("lhv", lhv_bound(f)),),
        restarts_used=0,
        converged=True,
    )
    return report, values


def reference_mermin_vertex_max(norms) -> float:
    """Max of the Mermin combination over per-party mean boxes [-|r_J|, |r_J|]^2.

    The combination is multilinear, so the maximum sits at a sign vertex.
    """
    signs = _sign_vertices(6)
    means = [norms[party] * signs[:, 2 * party : 2 * party + 2] for party in range(3)]
    index = {"x": 0, "y": 1}
    values = sum(
        sign * means[0][:, index[la]] * means[1][:, index[lb]] * means[2][:, index[lc]]
        for (la, lb, lc), sign in MERMIN_SIGNS.items()
    )
    return float(values.max())


# Moment and trace oracles: the explicit paths that first_moments,
# bloch_vector, correlation_matrix, the Mermin correlator, partial_trace and
# the probability forms took before they read one cached gather, as they
# were. They must agree with the library bit for bit, except the
# probability forms, which moved to affine images of the correlator forms.


def reference_ket(*bits: int) -> np.ndarray:
    """Computational-basis ket as the Kronecker product of one-qubit kets."""
    v = np.array([1.0 + 0j])
    for b in bits:
        e = np.zeros(2, dtype=complex)
        e[int(b)] = 1.0
        v = np.kron(v, e)
    return v


def reference_bloch_vector(rho) -> np.ndarray:
    """Pauli expectation 3-vector of a single-qubit state."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("bloch_vector needs a single-qubit state")
    return np.array([np.trace(m @ p).real for p in PAULIS])


def reference_correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 table of Pauli-Pauli expectations of a two-qubit state."""
    if rho.dims != (2, 2):
        raise ValueError("correlation_matrix needs a two-qubit state")
    m = rho.matrix
    return np.array(
        [[np.trace(m @ kron(PAULIS[i], PAULIS[j])).real for j in range(3)] for i in range(3)]
    )


def reference_mermin_correlator(rho: DensityMatrix, obs) -> float:
    op = kron(*[o.matrix for o in obs])
    return float(np.trace(rho.matrix @ op).real)


def _strides(dims: tuple[int, ...]) -> list[int]:
    # Composite basis index is a0*(d1*d2*...) + a1*(d2*...) + ...
    out = []
    acc = 1
    for d in reversed(dims):
        out.append(acc)
        acc *= d
    return list(reversed(out))


def _offsets(dims: tuple[int, ...], subsystems: tuple[int, ...], strides: list[int]) -> np.ndarray:
    """Global-index contribution of every multi-index over the given subsystems."""
    sub_dims = tuple(dims[i] for i in subsystems)
    size = math.prod(sub_dims) if sub_dims else 1
    if not sub_dims:
        return np.zeros(1, dtype=np.intp)
    digits = np.unravel_index(np.arange(size), sub_dims)
    out = np.zeros(size, dtype=np.intp)
    for digit, subsystem in zip(digits, subsystems):
        out += digit * strides[subsystem]
    return out


def reference_partial_trace(m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    The matrix is addressed through explicit multi-index strides of the
    factorization, so the routine works for any subsystem dimensions and
    any subset of kept parties (order of ``keep`` is normalized to
    ascending, matching the tensor-factor convention).
    """
    m = np.asarray(m, dtype=complex)
    total = math.prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match factorization {dims}")
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep {keep} out of range for {len(dims)} subsystems")
    comp = tuple(i for i in range(len(dims)) if i not in keep)
    strides = _strides(dims)
    kept_off = _offsets(dims, keep, strides)
    comp_off = _offsets(dims, comp, strides)
    rows = kept_off[:, None] + comp_off[None, :]
    return m[rows[:, None, :], rows[None, :, :]].sum(axis=2)


def reference_i3322_probability_value(rho: DensityMatrix, s) -> float:
    """Probability-form 3-setting inequality value (classical bound 0).

    Built from the correlator tables through the joint-probability identity;
    satisfies the correlator-form relation C = 4 (I + 1).
    """
    if len(s.alice) != 3 or len(s.bob) != 3:
        raise ValueError("i3322_probability_value needs 3 settings per party")
    means = marginal_means(rho, s)
    alpha = preset_functional("c3322").alpha

    def p_joint(x: int, y: int) -> float:
        return cond_joint_prob(0, 0, means.a[x], means.b[y], means.c[x, y])

    joint = sum(
        alpha[x, y] * p_joint(x, y) for x in range(3) for y in range(3) if alpha[x, y] != 0.0
    )
    p_a1 = 0.5 * (1.0 + means.a[0])
    p_b1 = 0.5 * (1.0 + means.b[0])
    p_b2 = 0.5 * (1.0 + means.b[1])
    return float(joint - p_a1 - 2.0 * p_b1 - p_b2)


def reference_i2222_probability_value(rho: DensityMatrix, s) -> float:
    """Probability-form 2-setting inequality value (classical bound 0).

    Equals S/4 - 1/2 for the CHSH combination S at the same settings.
    """
    if len(s.alice) != 2 or len(s.bob) != 2:
        raise ValueError("i2222_probability_value needs 2 settings per party")
    means = marginal_means(rho, s)

    def p_joint(x: int, y: int) -> float:
        return cond_joint_prob(0, 0, means.a[x], means.b[y], means.c[x, y])

    joint = p_joint(0, 0) + p_joint(0, 1) + p_joint(1, 0) - p_joint(1, 1)
    p_a1 = 0.5 * (1.0 + means.a[0])
    p_b1 = 0.5 * (1.0 + means.b[0])
    return float(joint - p_a1 - p_b1)
