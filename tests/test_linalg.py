import itertools

import numpy as np
import pytest

from lpow.linalg import (
    I2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    is_hermitian,
    kron,
    partial_trace,
    singular_values,
)
from util import reference_partial_trace


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def reference_partial_trace_einsum(m, dims, keep):
    """Independent reshape/einsum implementation to check against."""
    n = len(dims)
    keep = tuple(sorted(keep))
    tensor = m.reshape(dims + dims)
    letters = "abcdefgh"
    row = "".join(letters[i] for i in range(n))
    col = "".join(letters[i].upper() if i in keep else letters[i] for i in range(n))
    out = "".join(letters[i] for i in keep) + "".join(letters[i].upper() for i in keep)
    sub = f"{row}{col}->{out}"
    d_keep = int(np.prod([dims[i] for i in keep]))
    return np.einsum(sub, tensor).reshape(d_keep, d_keep)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_X, I2)
    assert np.allclose(SIGMA_Y @ SIGMA_Y, I2)
    assert np.allclose(SIGMA_Z @ SIGMA_Z, I2)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    for p in PAULIS:
        assert is_hermitian(p)
        assert abs(np.trace(p)) < 1e-15


def test_dagger_and_is_hermitian(rng):
    m = random_complex(rng, 4)
    assert np.allclose(dagger(m), m.conj().T)
    assert is_hermitian(m + dagger(m))
    assert not is_hermitian(m + dagger(m) + 1e-6 * 1j * np.eye(4))


def test_kron_matches_numpy(rng):
    a, b, c = (random_complex(rng, 2) for _ in range(3))
    assert np.allclose(kron(a), a)
    assert np.allclose(kron(a, b), np.kron(a, b))
    assert np.allclose(kron(a, b, c), np.kron(np.kron(a, b), c))


def test_partial_trace_of_product_factorizes(rng):
    a = random_complex(rng, 2)
    b = random_complex(rng, 3)
    m = np.kron(a, b)
    assert np.allclose(partial_trace(m, (2, 3), (0,)), a * np.trace(b))
    assert np.allclose(partial_trace(m, (2, 3), (1,)), b * np.trace(a))


def test_partial_trace_matches_einsum_reference(rng):
    for dims in [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)]:
        d = int(np.prod(dims))
        m = random_complex(rng, d)
        n = len(dims)
        for r in range(1, n):
            for keep in itertools.combinations(range(n), r):
                got = partial_trace(m, dims, keep)
                want = reference_partial_trace_einsum(m, dims, keep)
                assert np.allclose(got, want), (dims, keep)


@pytest.mark.parametrize(
    "dims",
    [(2,), (2, 2), (2, 2, 2), (2, 3), (3, 2), (2, 2, 2, 2), (3, 2, 2), (2, 3, 4)],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_partial_trace_bytes_match_strided_gather(rng, dims):
    # The reshaped diagonal must add each entry's terms in the order of the
    # strided index gather it replaced, for every subset of kept parties.
    n = len(dims)
    for _ in range(200):
        m = random_complex(rng, int(np.prod(dims)))
        for r in range(1, n + 1):
            for keep in itertools.combinations(range(n), r):
                got = partial_trace(m, dims, keep)
                assert got.tobytes() == reference_partial_trace(m, dims, keep).tobytes(), (dims, keep)


def test_partial_trace_keep_everything_is_identity_map(rng):
    m = random_complex(rng, 4)
    assert np.allclose(partial_trace(m, (2, 2), (0, 1)), m)


def test_partial_trace_keep_order_is_normalized(rng):
    m = random_complex(rng, 8)
    a = partial_trace(m, (2, 2, 2), (0, 2))
    b = partial_trace(m, (2, 2, 2), (2, 0))
    assert np.array_equal(a, b)


def test_partial_trace_preserves_trace(rng):
    m = random_complex(rng, 12)
    for keep in [(0,), (1,), (0, 1)]:
        out = partial_trace(m, (3, 4), keep)
        assert abs(np.trace(out) - np.trace(m)) < 1e-10


def test_partial_trace_tripartite_product(rng):
    a, b, c = (random_complex(rng, 2) for _ in range(3))
    m = np.kron(np.kron(a, b), c)
    got = partial_trace(m, (2, 2, 2), (0, 2))
    assert np.allclose(got, np.kron(a, c) * np.trace(b))


def test_partial_trace_input_validation():
    m = np.eye(4)
    with pytest.raises(ValueError, match="does not match"):
        partial_trace(m, (2, 3), (0,))
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(m, (2, 2), ())
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(m, (2, 2), (2,))


def test_singular_values_descending_and_match_hermitian_spectrum(rng):
    m = random_complex(rng, 4)
    h = m + dagger(m)
    sv = singular_values(h)
    assert np.all(np.diff(sv) <= 1e-12)
    eig = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
    assert np.allclose(sv, eig)
