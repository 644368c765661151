"""The see-saw map's calling conventions, pinned bit for bit.

The orthogonal witness map forms every contraction with a per-group matrix as one
``(groups, rows, i) @ (groups, i, j)`` product (``witness._group_product``)
instead of the broadcast per-row product it replaced; these tests pin that
the two agree to the last bit, so a numpy or BLAS change that breaks it
fails here first. ``bell._seesaw`` narrows the per-group constants with the
batches when a group retires, and asks ``update_b`` for no value where none
is read: the first map of every cycle after the first.
"""

import itertools

import numpy as np
import pytest

import lpow.bell
import lpow.witness
from lpow import OptimizerConfig, preset_functional
from lpow.bell import _optimize_functional_values
from lpow.states import cg, cg_lambda, ket, transition
from lpow.sweeps import point_seed
from lpow.witness import WitnessReport, _group_product, _sym_sup_fields
from util import reference_ket


def hexes(x: np.ndarray) -> list[str]:
    return [float(v).hex() for v in x.ravel()]


@pytest.mark.parametrize("groups", [1, 3, 6])
@pytest.mark.parametrize("restarts", [1, 16, 64])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("j", [1, 3])
def test_group_product_matches_broadcast_product(groups, restarts, k, j):
    rng = np.random.default_rng(1000 * groups + 10 * restarts + k + j)
    x = rng.normal(size=(groups, restarts, k, 3))
    t = rng.normal(size=(groups, 3, j))
    r = rng.normal(size=(groups, 3))
    # The layouts the witness map uses: a plain matrix, a transposed view, a
    # column view of stacked vectors, a unit column, and each narrowed to a
    # subset of groups as when a group retires.
    mats = [t, t.swapaxes(1, 2) if j == 3 else t]
    if j == 1:
        mats += [r[..., None], (r / np.linalg.norm(r, axis=1, keepdims=True))[..., None]]
    keep = np.arange(groups) % 2 == 0
    for mat in mats:
        assert hexes(_group_product(x, mat)) == hexes(x @ mat[:, None])
        narrowed, y = mat[keep], x[keep]
        assert hexes(_group_product(y, narrowed)) == hexes(y @ narrowed[:, None])


@pytest.mark.parametrize("groups", [1, 3, 6])
@pytest.mark.parametrize("restarts", [1, 16, 64])
@pytest.mark.parametrize("k", [2, 3])
def test_rank_one_products_match_broadcast_products(groups, restarts, k):
    # Per-row scalars times a per-group unit row, formed as K = 1 products.
    rng = np.random.default_rng(7 * groups + restarts + k)
    scalars = rng.normal(size=(groups, restarts, k, 1))
    r = rng.normal(size=(groups, 3))
    rows = (r / np.linalg.norm(r, axis=1, keepdims=True))[:, None, :]
    assert hexes(_group_product(scalars, rows)) == hexes(scalars * rows[:, None])


def cg_points(count):
    return [(cg(t, cg_lambda(t)), point_seed(2, i)) for i, t in enumerate(np.linspace(0.02, 0.78, 61)[:count])]


def run_functional(states, cfgs):
    return [(o.value.hex(), o.iterations, o.converged) for o in _optimize_functional_values(
        states, preset_functional("c3322"), cfgs
    )]


def run_witness(states, cfgs):
    fields = _sym_sup_fields(states, preset_functional("chsh"), "free", cfgs)
    return [(WitnessReport(**e).value.hex(), e["converged"]) for e in fields]


def wrap_updates(monkeypatch, wrap):
    """Run every ``_seesaw`` call with its updates passed through ``wrap``."""
    seesaw = lpow.bell._seesaw

    def wrapped(update_a, update_b, *args):
        return seesaw(*wrap(update_a, update_b), *args)

    monkeypatch.setattr(lpow.bell, "_seesaw", wrapped)
    monkeypatch.setattr(lpow.witness, "_seesaw", wrapped)


def transition_points():
    return [(transition(p), point_seed(4, i)) for i, p in enumerate(np.linspace(0.0, 1.0, 101))][1::12]


@pytest.mark.parametrize(
    "run, points",
    [(run_functional, lambda: [(transition(1.0), 7), *cg_points(6)]), (run_witness, transition_points)],
    ids=["functional", "witness"],
)
def test_constants_narrow_with_the_batches(monkeypatch, run, points):
    # Groups retire at several map counts: for c3322 a product state stops
    # after two maps, cg at 0.02 crawls on alone and the others stop in
    # between; the witness's transition points stop after 9 to 24 maps.
    points = points()
    states = [rho for rho, _ in points]
    cfgs = [OptimizerConfig(restarts=16, seed=seed) for _, seed in points]
    expected = run(states, cfgs)
    counts = []

    def check(consts, a_dirs, b_dirs):
        groups = len(b_dirs)
        assert a_dirs is None or len(a_dirs) == groups
        assert consts and all(len(c) == groups for c in consts)
        counts.append(groups)

    def wrap(update_a, update_b):
        def checked_a(consts, a_dirs, b_dirs):
            check(consts, a_dirs, b_dirs)
            return update_a(consts, a_dirs, b_dirs)

        def checked_b(consts, a_dirs, b_dirs, valued):
            check(consts, a_dirs, b_dirs)
            return update_b(consts, a_dirs, b_dirs, valued)

        return checked_a, checked_b

    wrap_updates(monkeypatch, wrap)
    assert run(states, cfgs) == expected
    assert counts[0] == len(points) and counts[-1] == 1
    assert len(set(counts)) >= 3 and counts == sorted(counts, reverse=True)


def record_valued(monkeypatch, flags, always=False):
    """Record each ``update_b`` call's ``valued``; with ``always``, compute every value anyway."""

    def wrap(update_a, update_b):
        def recording_b(consts, a_dirs, b_dirs, valued):
            flags.append(valued)
            b_dirs, values = update_b(consts, a_dirs, b_dirs, valued or always)
            assert (values is None) == (not valued and not always)
            return b_dirs, values

        return update_a, recording_b

    wrap_updates(monkeypatch, wrap)


@pytest.mark.parametrize("run", [run_functional, run_witness], ids=["functional", "witness"])
def test_no_value_on_the_first_map_of_a_later_cycle(monkeypatch, run):
    # Map i is the first of a cycle after the first when i >= 3 and i % 3 == 0,
    # unless it is one of the plain maps that fill a cap. cg at 0.02 runs past
    # a cap of 10 maps: three cycles, then one plain map. Stacked with a
    # product state, which retires after two maps, the pattern is unchanged.
    (rho, seed), = cg_points(1)
    cases = [
        ([rho], [OptimizerConfig(restarts=16, seed=seed, max_iterations=10)], 9),
        ([rho], [OptimizerConfig(restarts=16, seed=seed)], None),
        ([transition(1.0), rho], [OptimizerConfig(restarts=16, seed=s) for s in (7, seed)], None),
    ]
    for states, cfgs, tail in cases:
        flags = []
        record_valued(monkeypatch, flags)
        skipped = run(states, cfgs)
        monkeypatch.undo()
        tail = len(flags) if tail is None else tail
        assert len(flags) > 10 or tail == 9
        assert flags == [not (3 <= i < tail and i % 3 == 0) for i in range(len(flags))]
        # Computing every value anyway changes no value, map count or flag.
        forced = []
        record_valued(monkeypatch, forced, always=True)
        assert run(states, cfgs) == skipped
        monkeypatch.undo()
        assert forced == flags


def test_ket_matches_kronecker_product():
    for n in range(5):
        for bits in itertools.product((0, 1), repeat=n):
            assert ket(*bits).tobytes() == reference_ket(*bits).tobytes()
            assert ket(*bits).dtype == reference_ket(*bits).dtype


@pytest.mark.parametrize("bits", [(2,), (0, -1), (0.5,)])
def test_ket_rejects_non_bits(bits):
    with pytest.raises(ValueError, match="ket bits must be 0 or 1"):
        ket(*bits)
