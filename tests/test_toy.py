"""Bit-pair toy model: preparations, oracle permutations, equivalence."""

from fractions import Fraction
from itertools import product

import pytest

from cforacle import (
    DomainError,
    FunctionDistribution,
    FunctionTable,
    UnsupportedTableError,
    apply_oracle_mixture,
    scenario_probability_exact,
    scenario_probability_simulated,
    toy_measure,
    toy_prepare,
    toy_scenario_probability,
    verify_binary_equivalence,
)
from cforacle import toy
from cforacle.identify import scenario_coefficient
from cforacle.toy import ToyEpistemicState, _toy_image, equivalence_grid
from conftest import CONST0, CONST1, FLIP, IDENTITY, binary_distribution
from reference import is_valid_epistemic_state

F = Fraction
ALL_ONTIC_STATES = tuple(product((0, 1), repeat=4))
UNIFORM_2X2 = FunctionDistribution.uniform(2, 2)


def oracle_map(table):
    """Where the toy oracle of a binary ``table`` sends each ontic state."""
    return {s: _toy_image(table.outputs, s) for s in ALL_ONTIC_STATES}


class TestPreparations:
    def test_z0_support(self):
        state = toy_prepare("z0")
        assert set(state.support()) == {
            (0, x1, 0, x2) for x1 in (0, 1) for x2 in (0, 1)
        }
        assert all(p == F(1, 4) for p in state.probs.values())

    def test_plus_support(self):
        state = toy_prepare("plus")
        assert set(state.support()) == {
            (z1, 0, 0, x2) for z1 in (0, 1) for x2 in (0, 1)
        }

    def test_all_preparations_are_valid_epistemic_states(self):
        for prep in ("z0", "z1", "plus"):
            assert is_valid_epistemic_state(toy_prepare(prep))

    def test_unknown_preparation(self):
        with pytest.raises(DomainError):
            toy_prepare("minus")


class TestOraclePermutations:
    def test_identity_table_acts_as_cnot(self):
        assert oracle_map(IDENTITY)[(1, 0, 0, 1)] == (1, 1, 1, 1)

    def test_const0_is_identity_permutation(self):
        mapping = oracle_map(CONST0)
        assert all(mapping[s] == s for s in ALL_ONTIC_STATES)

    def test_const1_flips_z2(self):
        assert oracle_map(CONST1)[(0, 1, 0, 0)] == (0, 1, 1, 0)

    def test_flip_is_z2_flip_after_cnot(self):
        cnot = oracle_map(IDENTITY)
        flip_perm = oracle_map(FLIP)
        for s in ALL_ONTIC_STATES:
            z1, x1, z2, x2 = cnot[s]
            assert flip_perm[s] == (z1, x1, z2 ^ 1, x2)

    def test_each_table_acts_as_its_gate_on_every_state(self):
        def cnot(s):
            return (s[0], s[1] ^ s[3], s[2] ^ s[0], s[3])

        def flip_z2(s):
            return (s[0], s[1], s[2] ^ 1, s[3])

        gates = {
            CONST0: lambda s: s,
            IDENTITY: cnot,
            FLIP: lambda s: flip_z2(cnot(s)),
            CONST1: flip_z2,
        }
        for table, gate in gates.items():
            mapping = oracle_map(table)
            assert sorted(mapping.values()) == list(ALL_ONTIC_STATES)
            assert mapping == {s: gate(s) for s in ALL_ONTIC_STATES}

    def test_mixture_averages_the_permutations(self):
        for pf in equivalence_grid(num_mixtures=10):
            for prep in ("z0", "z1", "plus"):
                state = toy_prepare(prep)
                expected = {}
                for table, w in pf.weights.items():
                    mapping = oracle_map(table)
                    for s, p in state.probs.items():
                        expected[mapping[s]] = expected.get(mapping[s], 0) + w * p
                mixed = apply_oracle_mixture(state, pf).probs
                assert mixed == dict(sorted(expected.items()))

    def test_oracles_preserve_epistemic_validity(self):
        for prep in ("z0", "z1", "plus"):
            state = toy_prepare(prep)
            for index in range(4):
                table = FunctionTable.from_index(2, 2, index)
                pf = FunctionDistribution.point_mass(table)
                assert is_valid_epistemic_state(apply_oracle_mixture(state, pf))

    def test_non_binary_table_rejected(self):
        pf = FunctionDistribution.point_mass(FunctionTable.identity(3))
        with pytest.raises(UnsupportedTableError, match="2 -> 2 model"):
            apply_oracle_mixture(toy_prepare("z0"), pf)


class TestMeasurements:
    def test_computational_readout_point_identity(self):
        pf = FunctionDistribution.point_mass(IDENTITY)
        state = apply_oracle_mixture(toy_prepare("z0"), pf)
        assert toy_measure(state, "y_computational") == (F(1), F(0))

    def test_bell_parity_const0(self):
        pf = FunctionDistribution.point_mass(CONST0)
        state = apply_oracle_mixture(toy_prepare("plus"), pf)
        outcomes = toy_measure(state, "bell_parity")
        assert outcomes[(0, 0)] == F(1, 4)
        assert sum(outcomes.values()) == 1

    def test_bell_parity_flip_never_lands_on_correlated_outcome(self):
        pf = FunctionDistribution.point_mass(FLIP)
        state = apply_oracle_mixture(toy_prepare("plus"), pf)
        assert toy_measure(state, "bell_parity")[(0, 0)] == 0

    def test_unknown_setting(self):
        with pytest.raises(DomainError):
            toy_measure(toy_prepare("z0"), "x_computational")


class TestEquivalence:
    def test_uniform_bell_scenario(self):
        pf = FunctionDistribution.uniform(2, 2)
        assert toy_scenario_probability(pf, "plus_bell") == F(3, 8)
        assert scenario_probability_exact(pf, "plus_bell") == F(3, 8)

    def test_constants_mixture_basis_scenario(self):
        pf = binary_distribution(F(1, 2), 0, 0, F(1, 2))
        assert toy_scenario_probability(pf, "basis0") == F(1, 2)
        assert scenario_probability_exact(pf, "basis0") == F(1, 2)

    def test_point_identity_bell(self):
        pf = FunctionDistribution.point_mass(IDENTITY)
        assert toy_scenario_probability(pf, "plus_bell") == 1

    @pytest.mark.parametrize(
        "entry",
        [
            lambda name: scenario_coefficient(IDENTITY, name),
            lambda name: scenario_probability_exact(UNIFORM_2X2, name),
            lambda name: scenario_probability_simulated(UNIFORM_2X2, name),
            lambda name: toy_scenario_probability(UNIFORM_2X2, name),
        ],
        ids=["scenario_coefficient", "scenario_probability_exact",
             "scenario_probability_simulated", "toy_scenario_probability"],
    )
    @pytest.mark.parametrize("name", ["basis2", "", None, "BASIS0"])
    def test_unknown_scenario_gives_one_message(self, entry, name):
        with pytest.raises(DomainError) as excinfo:
            entry(name)
        assert str(excinfo.value) == f"unknown scenario {name!r}"

    def test_grid_size(self):
        grid = equivalence_grid()
        assert len(grid) == 14
        assert all(pf.n_x == pf.n_y == 2 for pf in grid)

    def test_full_equivalence_report(self):
        report = verify_binary_equivalence()
        assert len(report.comparisons) == 42
        assert report.all_equal
        assert report.mismatches() == []
        rows = report.to_json_list()
        assert all(
            set(row) == {"scenario", "pF", "quantum", "toy", "equal"}
            for row in rows
        )

    def test_each_preparation_and_measurement_pass_runs_once(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(toy, "toy_prepare", counting("prepare", toy_prepare))
        monkeypatch.setattr(toy, "binary_forward_measurements", counting(
            "measurements", toy.binary_forward_measurements
        ))
        assert verify_binary_equivalence().all_equal
        assert calls.count("prepare") == 3
        assert calls.count("measurements") == len(equivalence_grid()) == 14

    def test_report_matches_the_one_scenario_entries(self):
        for c in verify_binary_equivalence().comparisons:
            assert c.quantum == scenario_probability_exact(c.pF, c.scenario)
            assert c.toy == toy_scenario_probability(c.pF, c.scenario)

    def test_state_validation(self):
        from cforacle import ValidationError

        with pytest.raises(ValidationError):
            ToyEpistemicState({(0, 0, 0, 0): F(1, 2)})

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), None, "abc", "1/0"])
    def test_unreadable_probability_is_a_validation_error(self, p):
        from cforacle import ValidationError

        with pytest.raises(ValidationError, match="exact rational"):
            ToyEpistemicState({(0, 0, 0, 0): p})

    def test_state_given_twice_is_rejected(self):
        from cforacle import ValidationError

        # the bytes key is a second, distinct name for the state (0, 0, 0, 0)
        with pytest.raises(ValidationError, match="duplicate"):
            ToyEpistemicState({(0, 0, 0, 0): F(1), bytes(4): F(1)})

    def test_state_bits_rejected_not_truncated(self):
        from cforacle import ValidationError

        for state in ((0.5, 0, 0, 0.9), (0, 0, "1", 0), 5):
            with pytest.raises(ValidationError, match="non-integer ontic state"):
                ToyEpistemicState({state: 1})
        for state in ((0, 0, 0), (0, 0, 0, 0, 0), (0, 2, 0, 0), (0, 0, -1, 0)):
            with pytest.raises(ValidationError, match="bad ontic state"):
                ToyEpistemicState({state: 1})
        state = ToyEpistemicState({(1, True, 0, 0): 1})
        assert state.support() == ((1, 1, 0, 0),)
