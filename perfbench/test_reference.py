"""Self-test of the benchmark's own reference computations.

Run with ``python3 perfbench/test_reference.py`` or
``python3 -m pytest perfbench/test_reference.py`` from the repository root.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from lpow.states import make_state  # noqa: E402

TOL = 1e-12


def _close(a, b, tol=TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


def test_transition_closed_form_matches_pauli_traces():
    for p in np.linspace(0.0, 1.0, 11):
        traced = ref.pauli_moments(make_state("transition", p=float(p)).matrix)
        for got, want in zip(traced, ref.transition_moments(float(p))):
            assert _close(got, want)


def test_cg_closed_form_matches_pauli_traces():
    for theta in np.linspace(0.02, 1.55, 12):
        lam = ref.cg_lambda(float(theta))
        traced = ref.pauli_moments(make_state("cg", theta=float(theta), lam=lam).matrix)
        for got, want in zip(traced, ref.cg_moments(float(theta), lam)):
            assert _close(got, want)


def test_cg_lambda_puts_m_at_one_and_agrees_with_lpow():
    for theta in np.linspace(0.02, 1.55, 12):
        lam = ref.cg_lambda(float(theta))
        assert 0.0 < lam <= 1.0
        _, _, t = ref.cg_moments(float(theta), lam)
        assert abs(ref.m_value(t) - 1.0) <= 1e-12
        traced = ref.pauli_moments(make_state("cg", theta=float(theta)).matrix)
        assert abs(ref.m_value(traced[2]) - 1.0) <= 1e-9


def test_two_sided_formula_matches_explicit_traces():
    rng = np.random.default_rng(7)
    alpha = ref.C3322_ALPHA
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        a_dirs = rng.normal(size=(3, 3))
        a_dirs /= np.linalg.norm(a_dirs, axis=1, keepdims=True)
        b_dirs = rng.normal(size=(3, 3))
        b_dirs /= np.linalg.norm(b_dirs, axis=1, keepdims=True)
        moments = ref.pauli_moments(rho)
        args = (alpha, ref.C3322_BETA, ref.C3322_GAMMA)
        first = ref.two_sided_value(*args, *moments, a_dirs, b_dirs)
        traced = ref.two_sided_by_traces(rho, *args, a_dirs, b_dirs)
        assert abs(first - traced) <= 1e-12


def test_windows_are_ordered():
    for p in np.linspace(0.0, 1.0, 11):
        floor, cap = ref.i3322_window(*ref.transition_moments(float(p)))
        assert floor <= cap + TOL
        lo, hi = ref.s_chsh_lpo_window_transition(float(p))
        assert lo <= hi
    assert abs(ref.m_value(ref.transition_moments(0.0)[2]) - math.sqrt(2.0)) <= TOL


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
