"""The see-saw kernel against the plain reference loop kept in ``util``.

``bell._seesaw`` accelerates the plain alternating loop with safeguarded
SQUAREM extrapolation, so its map-call counts differ from the reference's
round counts, and a lane it keeps may climb past where the plain loop
stopped. What must hold: both runs stop by their tolerance, the optimizer's
value is never lower than the reference's beyond 1e-12, and the reported
scenario reproduces the reported value to 1e-10. The map-call counts are
pinned separately. The CHSH and ``c3322`` coefficient matrices and the
correlation matrices of the figure families are all symmetric, so the
Ginibre states (non-symmetric T) and the non-square, non-symmetric 2x3
functional are what tell alpha from alpha^T and T from T^T in the update
maps.
"""

import numpy as np
import pytest

import lpow.bell
from lpow import (
    BellFunctional,
    OptimizerConfig,
    functional_value,
    optimize_functional_value,
    preset_functional,
    sym_sup,
    sym_value_fixed,
)
from lpow.bell import _Z, _optimize_functional_values, _seesaw
from lpow.states import cg, cg_lambda, maximally_mixed, singlet, transition, werner
from lpow.sweeps import point_seed
from util import ginibre_state, reference_functional_seesaw, reference_witness_seesaw

VALUE_TOL = 1e-12
SCENARIO_TOL = 1e-10

SKEW_2X3 = BellFunctional(
    alpha=np.array([[1.0, 0.5, -0.75], [0.25, -1.0, 0.6]]),
    beta=np.array([0.3, -0.2]),
    gamma=np.array([-0.4, 0.15, 0.35]),
    name="skew_2x3",
)


def assert_functional_not_below_reference(rho, f, cfg, opt=None):
    opt = opt or optimize_functional_value(
        rho, f, restarts=cfg.restarts, seed=cfg.seed, max_iterations=cfg.max_iterations
    )
    _, _, value, _, converged = reference_functional_seesaw(rho, f, cfg)
    assert opt.converged and converged
    assert opt.value >= value - VALUE_TOL
    assert abs(functional_value(rho, f, opt.scenario) - opt.value) <= SCENARIO_TOL
    return opt


def assert_witness_not_below_reference(rho, f, cfg):
    report = sym_sup(rho, f, "free", cfg)
    if report.restarts_used == 0:
        # The geometry cap pinned the witness to zero; nothing was optimized.
        assert report.value == 0.0
        return
    _, _, value, _, converged = reference_witness_seesaw(rho, f, cfg)
    assert report.converged and converged
    assert report.value >= value - VALUE_TOL
    assert abs(sym_value_fixed(rho, f, report.optimizing_scenario) - report.value) <= SCENARIO_TOL


def test_cg_figure_grid_matches_reference():
    f = preset_functional("c3322")
    map_calls = []
    for index, theta in enumerate(np.linspace(0.02, 0.78, 61)):
        cfg = OptimizerConfig(restarts=64, seed=point_seed(2, index))
        opt = assert_functional_not_below_reference(cg(theta, cg_lambda(theta)), f, cfg)
        map_calls.append(opt.iterations)
    # The plain loop needs 31,338 rounds on this grid, 7,891 of them at
    # theta = 0.02, where the near-product lanes crawl.
    assert (sum(map_calls), map_calls[0]) == (3414, 303)


def test_transition_grid_matches_reference():
    c3322 = preset_functional("c3322")
    chsh = preset_functional("chsh")
    for index, p in enumerate(np.linspace(0.0, 1.0, 21)):
        cfg = OptimizerConfig(restarts=64, seed=point_seed(4, index))
        rho = transition(p)
        assert_functional_not_below_reference(rho, c3322, cfg)
        assert_witness_not_below_reference(rho, chsh, cfg)


@pytest.mark.parametrize("name", ["chsh", "c3322", "skew_2x3"])
def test_ginibre_states_match_reference(name):
    f = SKEW_2X3 if name == "skew_2x3" else preset_functional(name)
    rng = np.random.default_rng(515)
    for index in range(20):
        rho = ginibre_state(rng)
        cfg = OptimizerConfig(restarts=32, seed=index)
        assert_functional_not_below_reference(rho, f, cfg)
        assert_witness_not_below_reference(rho, f, cfg)


def test_rejected_extrapolations_keep_the_plain_ascent(monkeypatch):
    # Every extrapolated point is retracted to all +z rows instead, so the
    # safeguard must refuse each extrapolation that scores below the plain
    # second map; the values stay monotone and reach the reference optimum,
    # for states run alone and stacked as groups of one call.
    def scrambled(update_a, update_b, a_dirs, b_dirs, cfg, retract):
        def to_z(dirs):
            return np.broadcast_to(_Z, dirs.shape)

        return _seesaw(update_a, update_b, a_dirs, b_dirs, cfg, to_z)

    monkeypatch.setattr(lpow.bell, "_seesaw", scrambled)
    f = preset_functional("c3322")
    rng = np.random.default_rng(44)
    states = [ginibre_state(rng) for _ in range(5)]
    cfgs = [OptimizerConfig(restarts=16, seed=index) for index in range(5)]
    for rho, cfg, opt in zip(states, cfgs, _optimize_functional_values(states, f, cfgs)):
        alone = assert_functional_not_below_reference(rho, f, cfg)
        assert_functional_not_below_reference(rho, f, cfg, opt)
        assert (opt.value, opt.iterations) == (alone.value, alone.iterations)


class TestDegenerateGradients:
    @pytest.mark.parametrize("rho", [werner(0.0), maximally_mixed()], ids=["werner0", "mixed"])
    def test_zero_moments_fall_back_to_z(self, rho):
        # Every gradient is zero: each direction falls back to +z, the value
        # is exactly zero, and the second map's zero gain stops the first
        # cycle before it extrapolates, as it stops the plain loop.
        opt = optimize_functional_value(rho, preset_functional("c3322"), restarts=16, seed=1)
        assert opt.value == 0.0
        assert opt.iterations == 2
        assert opt.converged
        z = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(opt.scenario.alice_directions, np.tile(z, (3, 1)))
        assert np.array_equal(opt.scenario.bob_directions, np.tile(z, (3, 1)))

    def test_singlet_with_marginal_coefficients(self):
        # r_A = r_B = 0 while T != 0: the beta and gamma terms of c3322 add
        # nothing, and the correlator part alone reaches 5.
        cfg = OptimizerConfig(restarts=16, seed=3)
        opt = assert_functional_not_below_reference(singlet(), preset_functional("c3322"), cfg)
        assert abs(opt.value - 5.0) < 1e-6

    def test_zero_column_falls_back_in_every_round(self, rng):
        # Bob's last setting carries no coefficient, so its gradient is zero
        # on every restart and in every round; its fallback +z adds nothing
        # to the value read off the update.
        f = BellFunctional(
            alpha=np.array([[1.0, -0.5, 0.0], [0.75, 1.0, 0.0]]),
            beta=np.array([0.4, 0.0]),
            gamma=np.array([0.2, -0.3, 0.0]),
        )
        rho = ginibre_state(rng)
        opt = assert_functional_not_below_reference(rho, f, OptimizerConfig(restarts=16, seed=2))
        assert np.array_equal(opt.scenario.bob_directions[2], [0.0, 0.0, 1.0])
