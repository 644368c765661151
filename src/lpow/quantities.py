"""Named scalar quantities computable from a state, shared by reports and sweeps."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, bloch_vector, horodecki
from .bell import (
    chsh_settings,
    normalized_value,
    optimize_functional_value,
    preset_functional,
)
from .witness import (
    OptimizerConfig,
    bound_geometry_free,
    mermin_lpo_witness,
    mermin_value,
    sym_sup,
    sym_value_fixed,
)


@dataclass(frozen=True)
class QuantityResult:
    name: str
    value: float
    bounds: tuple[tuple[str, float], ...]
    converged: bool


def _horodecki(rho, cache):
    if "horodecki" not in cache:
        cache["horodecki"] = horodecki(rho)
    return cache["horodecki"]


def _c3322_optimum(rho, cfg, cache):
    if "c3322_opt" not in cache:
        cache["c3322_opt"] = optimize_functional_value(
            rho,
            preset_functional("c3322"),
            restarts=cfg.restarts,
            seed=cfg.seed,
            max_iterations=cfg.max_iterations,
            value_tolerance=cfg.value_tolerance,
        )
    return cache["c3322_opt"]


def _s_chsh(rho, cfg, cache):
    h = _horodecki(rho, cache)
    return 2.0 * h.m_value, (("lhv", 2.0), ("quantum_max", 2.0 * math.sqrt(2.0))), True


def _s_chsh_lpo(rho, cfg, cache):
    report = sym_sup(rho, preset_functional("chsh"), "free", cfg)
    return report.value, report.bounds, report.converged


def _i3322_tilde(rho, cfg, cache):
    opt = _c3322_optimum(rho, cfg, cache)
    return opt.value / 4.0, (("lhv", 1.0),), opt.converged


def _c3322(rho, cfg, cache):
    opt = _c3322_optimum(rho, cfg, cache)
    return opt.value, (("lhv", 4.0),), opt.converged


def _i2222_tilde(rho, cfg, cache):
    h = _horodecki(rho, cache)
    return h.m_value, (("lhv", 1.0), ("quantum_max", math.sqrt(2.0))), True


def _i2222_lpo_tilde(rho, cfg, cache):
    chsh = preset_functional("chsh")
    raw = sym_value_fixed(rho, chsh, chsh_settings()) / 4.0 - 0.5
    value = normalized_value("i2222_lpo_tilde", raw)
    cap = bound_geometry_free(rho, chsh) / 2.0
    return value, (("geometry_free", cap),), True


def _horodecki_m(rho, cfg, cache):
    return _horodecki(rho, cache).m_value, (("lhv", 1.0),), True


def _bloch_norm(party: int):
    def evaluate(rho, cfg, cache):
        return float(np.linalg.norm(bloch_vector(rho.marginal(party)))), (("unit", 1.0),), True

    return evaluate


def _mermin(rho, cfg, cache):
    return mermin_value(rho), (("lhv", 2.0), ("quantum_max", 4.0)), True


def _mermin_lpo(rho, cfg, cache):
    report = mermin_lpo_witness(rho, "asym_sup")
    return report.value, report.bounds, report.converged


@dataclass(frozen=True)
class _Quantity:
    """A registry entry: the state it needs, its evaluator, and whether its bounds cap it.

    The state must have exactly ``parties`` qubits, or, with ``at_least``,
    at least ``parties`` parties of any dimension. The evaluator maps
    (rho, cfg, cache) to (value, bounds, converged).
    """

    parties: int
    evaluate: Callable
    witness: bool = False
    at_least: bool = False


# One table, in report order. A witness quantity's emitted bounds are true
# caps on its value; the others carry reference thresholds such as the
# classical bound, which values may exceed.
_REGISTRY = {
    "s_chsh": _Quantity(2, _s_chsh),
    "s_chsh_lpo": _Quantity(2, _s_chsh_lpo, witness=True),
    "i3322_tilde": _Quantity(2, _i3322_tilde),
    "c3322": _Quantity(2, _c3322),
    "i2222_tilde": _Quantity(2, _i2222_tilde),
    "i2222_lpo_tilde": _Quantity(2, _i2222_lpo_tilde, witness=True),
    "horodecki_m": _Quantity(2, _horodecki_m),
    "bloch_norm_a": _Quantity(0, _bloch_norm(0), at_least=True),
    "bloch_norm_b": _Quantity(2, _bloch_norm(1), at_least=True),
    "mermin": _Quantity(3, _mermin),
    "mermin_lpo": _Quantity(3, _mermin_lpo, witness=True),
}
_COUNT_WORDS = {2: "two", 3: "three"}

QUANTITY_NAMES = tuple(_REGISTRY)
WITNESS_QUANTITIES = tuple(name for name, q in _REGISTRY.items() if q.witness)


def _compute(name: str, rho: DensityMatrix, cfg: OptimizerConfig, cache) -> QuantityResult:
    """Evaluate one registered quantity, reusing intermediates stored in ``cache``."""
    q = _REGISTRY.get(name)
    if q is None:
        raise ValueError(f"unknown quantity name {name!r}")
    if q.at_least and rho.n_parties < q.parties:
        raise ValueError(f"quantity {name!r} needs at least {_COUNT_WORDS[q.parties]} parties")
    if not q.at_least and rho.dims != (2,) * q.parties:
        raise ValueError(f"quantity {name!r} needs a {_COUNT_WORDS[q.parties]}-qubit state")
    return QuantityResult(name, *q.evaluate(rho, cfg, cache))


def compute_quantities(
    names, rho: DensityMatrix, cfg: OptimizerConfig | None = None
) -> list[QuantityResult]:
    """Evaluate the named quantities, sharing expensive intermediates."""
    names = list(names)
    unknown = [n for n in names if n not in QUANTITY_NAMES]
    if unknown:
        raise ValueError(f"unknown quantity name(s): {', '.join(sorted(unknown))}")
    cfg = cfg or OptimizerConfig()
    cache: dict[str, object] = {}
    return [_compute(name, rho, cfg, cache) for name in names]


def compute_quantity(name: str, rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> QuantityResult:
    return compute_quantities([name], rho, cfg)[0]
