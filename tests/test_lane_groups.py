"""Stacked see-saw groups against one optimization per state.

``bell._optimize_functional_values`` and ``witness._sym_sup_fields`` run
many states as groups of one ``bell._seesaw`` call, each group a state's
restarts; a group that stops leaves the batch. Each state's result must be
bit for bit the one it gets alone, whatever the other groups are: the same
value, direction bytes, map count and ``converged``, in the full grid, the
reversed grid and a subset. The grids are the cg and transition figure
grids with their per-point seeds, and 20 Ginibre states.
"""

import numpy as np
import pytest

import lpow.bell
import lpow.witness
from lpow import OptimizerConfig, optimize_functional_value, preset_functional, sym_sup
from lpow.bell import _optimize_functional_values
from lpow.states import cg, cg_lambda, transition
from lpow.sweeps import point_seed
from lpow.witness import WitnessReport, _sym_sup_fields
from util import ginibre_state


def cg_grid():
    return [(cg(t, cg_lambda(t)), point_seed(2, i)) for i, t in enumerate(np.linspace(0.02, 0.78, 61))]


def transition_grid():
    return [(transition(p), point_seed(4, i)) for i, p in enumerate(np.linspace(0.0, 1.0, 101))]


def ginibre_states():
    rng = np.random.default_rng(515)
    return [(ginibre_state(rng), index) for index in range(20)]


GRIDS = {"cg": cg_grid, "transition": transition_grid, "ginibre": ginibre_states}
ORDERS = {
    "full": lambda n: list(range(n)),
    "reversed": lambda n: list(range(n - 1, -1, -1)),
    "subset": lambda n: list(range(1, n, 3)),
}


def run_functional(states, cfgs):
    return _optimize_functional_values(states, preset_functional("c3322"), cfgs)


def run_witness(states, cfgs):
    fields = _sym_sup_fields(states, preset_functional("chsh"), "free", cfgs)
    return [WitnessReport(**entry) for entry in fields]


def alone_functional(rho, cfg):
    return optimize_functional_value(rho, preset_functional("c3322"), restarts=cfg.restarts, seed=cfg.seed)


def alone_witness(rho, cfg):
    return sym_sup(rho, preset_functional("chsh"), "free", cfg)


OPTIMIZERS = {
    "c3322_functional": (run_functional, alone_functional),
    "chsh_sym_sup": (run_witness, alone_witness),
}


def result_key(result):
    """Everything a caller sees of one state's result, as exact bytes."""
    if hasattr(result, "iterations"):
        scenario, tail = result.scenario, (result.iterations, result.converged)
    else:
        scenario, tail = result.optimizing_scenario, (result.restarts_used, result.converged, result.bounds)
    directions = None
    if scenario is not None:
        directions = (scenario.alice_directions.tobytes(), scenario.bob_directions.tobytes())
    return (result.value.hex(), directions, *tail)


@pytest.fixture
def seesaw_groups(monkeypatch):
    """Every group tuple the see-saw returns, map count included, call by call."""
    calls = []
    seesaw = lpow.bell._seesaw

    def recording(*args):
        groups = seesaw(*args)
        calls.append([(a.tobytes(), b.tobytes(), v.hex(), maps, conv) for a, b, v, maps, conv in groups])
        return groups

    monkeypatch.setattr(lpow.bell, "_seesaw", recording)
    monkeypatch.setattr(lpow.witness, "_seesaw", recording)
    return calls


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("grid", GRIDS)
def test_each_group_matches_its_state_alone(grid, optimizer, seesaw_groups):
    run, alone = OPTIMIZERS[optimizer]
    points = GRIDS[grid]()
    cfgs = [OptimizerConfig(seed=seed) for _, seed in points]
    expected, groups_alone = [], []
    for (rho, _), cfg in zip(points, cfgs):
        seesaw_groups.clear()
        expected.append(result_key(alone(rho, cfg)))
        # A state whose cap pins the witness to zero runs no group.
        groups_alone.append(seesaw_groups[0][0] if seesaw_groups else None)
    assert sum(g is not None for g in groups_alone) >= len(points) - 1
    for order in ORDERS.values():
        index = order(len(points))
        seesaw_groups.clear()
        stacked = run([points[i][0] for i in index], [cfgs[i] for i in index])
        assert [result_key(r) for r in stacked] == [expected[i] for i in index]
        assert len(seesaw_groups) == 1
        assert seesaw_groups[0] == [groups_alone[i] for i in index if groups_alone[i] is not None]


def test_groups_retire_at_different_map_counts(seesaw_groups):
    # A product state stops after the first cycle's two maps, cg at 0.02
    # crawls for 300, and the others stop in between, so lanes leave the
    # batch at every stage while the rest run on.
    points = [(transition(1.0), 7), *cg_grid()[:6]]
    cfgs = [OptimizerConfig(restarts=16, seed=seed) for _, seed in points]
    stacked = run_functional([rho for rho, _ in points], cfgs)
    maps = [group[3] for group in seesaw_groups[0]]
    assert maps[:2] == [2, 300] and len(set(maps)) == len(maps)
    for (rho, _), cfg, opt in zip(points, cfgs, stacked):
        assert result_key(opt) == result_key(alone_functional(rho, cfg))


def test_configs_must_differ_only_in_seed():
    rho = transition(0.4)
    with pytest.raises(ValueError, match="but seed"):
        run_functional([rho, rho], [OptimizerConfig(restarts=8), OptimizerConfig(restarts=16)])
    with pytest.raises(ValueError, match="but seed"):
        run_witness([rho, rho], [OptimizerConfig(max_iterations=50), OptimizerConfig()])
