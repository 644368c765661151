import math

import pytest

from lpow import (
    OptimizerConfig,
    QUANTITY_NAMES,
    compute_quantities,
    compute_quantity,
)
from lpow.quantities import WITNESS_QUANTITIES
from lpow.states import ghz, ket, make_state, maximally_mixed, pure_product, sigma_state, singlet, werner
from util import ginibre_state

FAST = OptimizerConfig(restarts=16, seed=0)


class TestRegistry:
    def test_registered_names(self):
        assert QUANTITY_NAMES == (
            "s_chsh",
            "s_chsh_lpo",
            "i3322_tilde",
            "c3322",
            "i2222_tilde",
            "i2222_lpo_tilde",
            "horodecki_m",
            "bloch_norm_a",
            "bloch_norm_b",
            "mermin",
            "mermin_lpo",
        )
        assert set(WITNESS_QUANTITIES) <= set(QUANTITY_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown quantity"):
            compute_quantities(["s_chsh", "bogus"], singlet())

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="three-qubit"):
            compute_quantity("mermin", singlet())
        with pytest.raises(ValueError, match="two-qubit"):
            compute_quantity("s_chsh", ghz())


class TestTwoQubitQuantities:
    def test_chsh_family_shares_the_horodecki_value(self):
        rho = sigma_state()
        res = {
            r.name: r
            for r in compute_quantities(["s_chsh", "horodecki_m", "i2222_tilde"], rho, FAST)
        }
        m = res["horodecki_m"].value
        assert res["s_chsh"].value == 2.0 * m
        assert res["i2222_tilde"].value == m
        assert res["s_chsh"].bounds == (("lhv", 2.0), ("quantum_max", 2.0 * math.sqrt(2.0)))

    def test_i3322_tilde_is_quarter_of_c3322(self):
        rho = werner(0.9)
        res = {r.name: r for r in compute_quantities(["c3322", "i3322_tilde"], rho, FAST)}
        assert res["i3322_tilde"].value == res["c3322"].value / 4.0

    def test_werner_closed_forms(self):
        for p in (0.2, 0.8):
            rho = werner(p)
            res = {
                r.name: r
                for r in compute_quantities(
                    ["s_chsh", "i3322_tilde", "s_chsh_lpo", "bloch_norm_a"], rho, FAST
                )
            }
            assert abs(res["s_chsh"].value - 2.0 * math.sqrt(2.0) * p) < 1e-9
            assert abs(res["i3322_tilde"].value - 5.0 * p / 4.0) < 1e-6
            assert res["s_chsh_lpo"].value == 0.0
            assert res["bloch_norm_a"].value == 0.0

    def test_sigma_state_values(self):
        rho = sigma_state()
        res = {
            r.name: r
            for r in compute_quantities(
                ["bloch_norm_a", "bloch_norm_b", "horodecki_m"], rho, FAST
            )
        }
        assert abs(res["bloch_norm_a"].value - 0.66) < 1e-12
        assert abs(res["bloch_norm_b"].value - 0.36) < 1e-12
        assert res["horodecki_m"].value < 1.0

    def test_i2222_lpo_tilde_on_pure_products(self):
        # Normalized form equals S_lpo/2 at the canonical settings; for a
        # product state with A-side Bloch angles (theta, beta) and B along z
        # this reduces to sin(2 theta)^2 cos(beta)^2 / 2.
        rho = pure_product([ket(0), ket(0)])
        r = compute_quantity("i2222_lpo_tilde", rho, FAST)
        assert r.value == 0.0
        assert r.bounds == (("geometry_free", 2.0),)
        for theta, beta in ((0.4, 0.0), (0.7, 1.1)):
            rho = make_state("classical", theta=theta, beta=beta)
            r = compute_quantity("i2222_lpo_tilde", rho, FAST)
            want = math.sin(2.0 * theta) ** 2 * math.cos(beta) ** 2 / 2.0
            assert abs(r.value - want) < 1e-12

    def test_witness_quantities_respect_emitted_bounds(self, rng):
        for _ in range(5):
            rho = ginibre_state(rng)
            for r in compute_quantities(
                [q for q in WITNESS_QUANTITIES if q != "mermin_lpo"], rho, FAST
            ):
                for _, bound in r.bounds:
                    assert r.value <= bound + 1e-8
        for _ in range(5):
            rho3 = ginibre_state(rng, dims=(2, 2, 2))
            r = compute_quantity("mermin_lpo", rho3, FAST)
            for _, bound in r.bounds:
                assert r.value <= bound + 1e-8


class TestBlochNorms:
    def test_any_qubit_count(self):
        one = make_state("pure_product", theta_a=0.7)
        assert compute_quantity("bloch_norm_a", one).value == 0.9999999999999999
        with pytest.raises(ValueError, match="at least two"):
            compute_quantity("bloch_norm_b", one)
        four = pure_product([ket(0), ket(1), ket(0), ket(1)])
        res = compute_quantities(["bloch_norm_a", "bloch_norm_b"], four)
        assert [r.value for r in res] == [1.0, 1.0]
        assert compute_quantity("bloch_norm_a", maximally_mixed(4)).value == 0.0


class TestThreeQubitQuantities:
    def test_ghz_values(self):
        res = {r.name: r for r in compute_quantities(["mermin", "mermin_lpo"], ghz(), FAST)}
        assert abs(res["mermin"].value - 4.0) < 1e-12
        assert res["mermin_lpo"].value == 0.0

    def test_pure_product_lpo_at_classical_bound(self):
        rho = pure_product([ket(0), ket(0), ket(0)])
        r = compute_quantity("mermin_lpo", rho, FAST)
        assert r.value == 2.0
        assert r.bounds == (("lhv", 2.0),)
