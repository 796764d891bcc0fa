"""Density-matrix oracle simulation and the binary identification solve."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cforacle import (
    Amplitudes,
    CounterfactualQuery,
    DensityMatrix,
    DomainError,
    ExtractionError,
    FunctionDistribution,
    FunctionTable,
    MeasurementEffect,
    MeasurementInconsistencyError,
    ValidationError,
    bell_effect,
    binary_forward_measurements,
    build_rho_xy,
    computational_effect,
    extract_two_way,
    joint_counterfactual,
    measure,
    scenario_probability_exact,
    scenario_probability_simulated,
    solve_binary_pF,
    tomography_sweep,
)
from cforacle import ConfoundedModel, core, identify, load_model, quantum, rational, toy
from cforacle.identify import scenario_coefficient
from cforacle.reproduce import uniform_ternary_model
from conftest import (
    CONST0,
    CONST1,
    FLIP,
    IDENTITY,
    binary_distribution,
    random_distribution,
)
from reference import (
    binary_matrix,
    binary_solve_by_elimination,
    joint_rho,
    loop_extract_two_way,
    loop_tomography_sweep,
)

F = Fraction
INV_SQRT2 = 1 / math.sqrt(2)
DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "cforacle" / "data"
SRC = str(Path(quantum.__file__).resolve().parents[1])
RHO_8X3_DIGEST = "9b63028ef481a157253151f57692ef757ecca79a1dc759be41cc0dab65c2a2b4"


def probe_model(spec):
    """The uniform model of ``spec`` = (n_x, n_y), or the bundled model file
    ``spec`` (a confounded one by its response marginal)."""
    if isinstance(spec, tuple):
        return FunctionDistribution.uniform(*spec)
    model = load_model(DATA_DIR / spec)
    if isinstance(model, ConfoundedModel):
        return model.response_marginal()
    return model


def post_oracle_projector(table, alpha):
    """rho of a point mass on ``table``: |psi><psi| of the post-oracle state."""
    return build_rho_xy(FunctionDistribution.point_mass(table), alpha).entries


class TestApplyOracle:
    def test_identity_on_superposition_gives_max_entanglement(self):
        rho = post_oracle_projector(IDENTITY, Amplitudes.uniform(2))
        psi = np.array([INV_SQRT2, 0, 0, INV_SQRT2])
        assert np.allclose(rho, np.outer(psi, psi), atol=1e-12)

    def test_const1_on_basis_input(self):
        rho = post_oracle_projector(CONST1, Amplitudes.basis(2, 0))
        psi = np.zeros(4)
        psi[1] = 1.0  # |0>|1> at index 0*2+1
        assert np.allclose(rho, np.outer(psi, psi), atol=1e-12)

    def test_flip_on_superposition(self):
        rho = post_oracle_projector(FLIP, Amplitudes.uniform(2))
        psi = np.array([0, INV_SQRT2, INV_SQRT2, 0])
        assert np.allclose(rho, np.outer(psi, psi), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            post_oracle_projector(IDENTITY, Amplitudes.uniform(3))


class TestBuildRho:
    def test_uniform_binary_elements(self, uniform_binary):
        rho = build_rho_xy(uniform_binary, Amplitudes.uniform(2))
        assert rho.entries[0, 0] == pytest.approx(0.25, abs=1e-12)
        # <0,0|rho|1,0> = (1/2) p(f(0)=0, f(1)=0) = (1/2)(1/4)
        assert rho.entries[0, 2] == pytest.approx(0.125, abs=1e-12)

    def test_point_mass_is_projector(self):
        rho = build_rho_xy(
            FunctionDistribution.point_mass(IDENTITY), Amplitudes.uniform(2)
        )
        # rho^2 = rho, so its purity trace(rho^2) is trace(rho) = 1
        assert np.allclose(rho.entries @ rho.entries, rho.entries, atol=1e-12)

    def test_convexity(self):
        p = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
        q = binary_distribution(F(1, 2), 0, F(1, 2), 0)
        lam = F(2, 5)
        mixed = FunctionDistribution(
            2,
            2,
            {
                t: lam * p.probability(t) + (1 - lam) * q.probability(t)
                for t in set(p.support()) | set(q.support())
            },
        )
        alpha = Amplitudes.uniform(2)
        rho_mix = build_rho_xy(mixed, alpha)
        combo = (
            float(lam) * build_rho_xy(p, alpha).entries
            + (1 - float(lam)) * build_rho_xy(q, alpha).entries
        )
        assert np.max(np.abs(rho_mix.entries - combo)) <= 1e-12

    def test_diagonal_reproduces_weighted_conditionals(self):
        from cforacle import conditional

        pf = binary_distribution(F(1, 10), F(2, 5), F(3, 10), F(1, 5))
        alpha = Amplitudes(np.array([0.6, 0.8]))
        rho = build_rho_xy(pf, alpha)
        for x in range(2):
            cond = conditional(pf, x)
            for y in range(2):
                i = x * 2 + y
                expected = abs(alpha.alpha[x]) ** 2 * float(cond[y])
                assert abs(rho.entries[i, i].real - expected) <= 1e-12

    def test_invariants_validated(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))
        bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="semidefinite"):
            DensityMatrix(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: Amplitudes(np.array([1.0, bad])),
            lambda bad: DensityMatrix(np.array([[1.0, 0.0], [0.0, bad]])),
            lambda bad: MeasurementEffect(np.array([[1.0, 0.0], [0.0, bad]])),
        ],
        ids=["Amplitudes", "DensityMatrix", "MeasurementEffect"],
    )
    def test_non_finite_entries_rejected(self, build, bad):
        with pytest.raises(ValidationError, match="finite"):
            build(bad)

    # sha256 of the matrix bytes under the uniform probe: each marginal
    # correctly rounded, times the amplitude products, with no BLAS sum (see
    # TestRhoFromTheJoints); the tomography output is printed from these bytes
    @pytest.mark.parametrize("model, digest", [
        ((6, 4), "6a197b1854189cb2a00226defb6e0f1e266fb506539b0dc410724deff088f896"),
        ((8, 3), RHO_8X3_DIGEST),
        ("appE.json",
         "5eb227b7b3b0c7a1e47fea4338aa2afddafd8c4937c516ade780f7ef59859308"),
        ("modelA.json", "b18ef81dcca02372ce0ac7898c5f51b9fd92c30f5b41fd6d884afe90cb1943eb"),
        ("modelB.json", "b18ef81dcca02372ce0ac7898c5f51b9fd92c30f5b41fd6d884afe90cb1943eb"),
    ], ids=["uniform 6x4", "uniform 8x3", "appE", "modelA", "modelB"])
    def test_matrix_bytes_match_the_recorded_digest(self, model, digest):
        model = probe_model(model)
        rho = build_rho_xy(model, Amplitudes.uniform(model.n_x))
        assert hashlib.sha256(rho.entries.tobytes()).hexdigest() == digest

    def test_matrix_bytes_do_not_depend_on_the_blas_thread_count(self):
        code = (
            "import hashlib; from cforacle import Amplitudes, FunctionDistribution, "
            "build_rho_xy; rho = build_rho_xy(FunctionDistribution.uniform(8, 3), "
            "Amplitudes.uniform(8)); print(hashlib.sha256(rho.entries.tobytes())"
            ".hexdigest())"
        )
        digests = []
        for threads in ("1", "2", "4"):
            env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, env=env,
                check=False, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.strip())
        assert digests == [RHO_8X3_DIGEST] * 3

    @pytest.mark.parametrize("cells", [1, 7, 80, 81, 324])
    def test_slices_of_tables_sum_to_the_one_slice_matrix(self, monkeypatch, cells):
        rng = random.Random(cells)
        alpha = Amplitudes(np.array([0.5, 0.5j, -0.5, 0.5 * np.exp(0.3j)]))
        models = [FunctionDistribution.uniform(4, 3), random_distribution(rng, 4, 3)]
        whole = [build_rho_xy(model, alpha).entries.tobytes() for model in models]
        sizes = []
        bincount = np.bincount

        def recorded(keys, weights, minlength):
            sizes.append(len(keys) // 4)  # tables in the slice, 4 keys each
            return bincount(keys, weights, minlength)

        monkeypatch.setattr(quantum, "_SLICE_CELLS", cells)
        monkeypatch.setattr(np, "bincount", recorded)
        rows = max(1, cells // 4)
        for model, expected in zip(models, whole):
            sizes.clear()
            assert build_rho_xy(model, alpha).entries.tobytes() == expected
            k = len(model.weights)
            slices = [rows] * (k // rows) + ([k % rows] if k % rows else [])
            assert sizes == [size for size in slices for _ in range(4)]


def complex_amplitudes(n_x, seed):
    """A normalized input state with random complex amplitudes."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=n_x) + 1j * rng.normal(size=n_x)
    return Amplitudes(raw / np.linalg.norm(raw))


def large_denominator_model(rng, n_x, n_y):
    """Weights below 2^62 drawn per table over their sum, so that the
    weights' one denominator is at least 2^53."""
    tables = [FunctionTable.from_index(n_x, n_y, i) for i in range(n_y**n_x)]
    raw = [rng.randrange(1, 1 << 62) for _ in tables]
    return FunctionDistribution(
        n_x, n_y, {t: Fraction(k, sum(raw)) for t, k in zip(tables, raw)}
    )


class TestRhoFromTheJoints:
    """Every entry of rho against the exact joints, rounded once."""

    @pytest.mark.parametrize("amplitudes", ["uniform", "complex"])
    @pytest.mark.parametrize(
        "model", [(6, 4), (8, 3), "appE.json", "modelA.json", "modelB.json"],
        ids=["uniform 6x4", "uniform 8x3", "appE", "modelA", "modelB"],
    )
    def test_pinned_models_bit_for_bit(self, model, amplitudes):
        model = probe_model(model)
        if amplitudes == "uniform":
            alpha = Amplitudes.uniform(model.n_x)
        else:
            alpha = complex_amplitudes(model.n_x, model.n_x)
        rho = build_rho_xy(model, alpha).entries
        assert rho.tobytes() == joint_rho(model, alpha).tobytes()
        assert np.array_equal(rho, rho.conj().T)  # Hermitian exactly, no scrub

    # the float bincounts below 2^53, the Python-int counts at or above it
    @given(
        st.sampled_from([(1, 2), (1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_models_bit_for_bit(self, cards, seed, large, uniform):
        n_x, n_y = cards
        rng = random.Random(seed)
        if large:
            model = large_denominator_model(rng, n_x, n_y)
            assert model._den >= 2**53
        else:
            model = random_distribution(rng, n_x, n_y)
        alpha = Amplitudes.uniform(n_x) if uniform else complex_amplitudes(n_x, seed)
        counted = []
        counts = quantum._marginal_counts

        def recorded(*args):
            counted.append(args)
            return counts(*args)

        quantum._marginal_counts = recorded
        try:
            rho = build_rho_xy(model, alpha).entries
        finally:
            quantum._marginal_counts = counts
        assert len(counted) == large
        assert rho.tobytes() == joint_rho(model, alpha).tobytes()
        assert np.array_equal(rho, rho.conj().T)

    # The state average rounds each of the k table terms and sums them in
    # BLAS order; the marginals round each entry about three times.
    @given(
        st.sampled_from([(1, 2), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (4, 3)]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_the_averaged_state_agrees_within_the_rounding(self, cards, seed):
        n_x, n_y = cards
        model = random_distribution(random.Random(seed), n_x, n_y)
        alpha = complex_amplitudes(n_x, seed)
        averaged = quantum._averaged_state(model, alpha).entries
        built = build_rho_xy(model, alpha).entries
        tolerance = (len(model.weights) + 8) * np.finfo(float).eps
        assert np.max(np.abs(averaged - built)) <= tolerance


class TestExtraction:
    def test_uniform_pf(self, uniform_binary):
        rho = build_rho_xy(uniform_binary, Amplitudes.uniform(2))
        value = extract_two_way(rho, Amplitudes.uniform(2), 0, 1, 0, 0)
        assert value == pytest.approx(0.25, abs=1e-9)

    def test_point_identity(self):
        pf = FunctionDistribution.point_mass(IDENTITY)
        alpha = Amplitudes.uniform(2)
        rho = build_rho_xy(pf, alpha)
        assert extract_two_way(rho, alpha, 0, 1, 0, 1) == pytest.approx(1.0, abs=1e-9)

    def test_ternary_uniform(self):
        pf = uniform_ternary_model()
        alpha = Amplitudes.uniform(3)
        rho = build_rho_xy(pf, alpha)
        value = extract_two_way(rho, alpha, 0, 1, 0, 1)
        assert value == pytest.approx(1 / 9, abs=1e-9)

    def test_diagonal_case(self, uniform_binary):
        alpha = Amplitudes.uniform(2)
        rho = build_rho_xy(uniform_binary, alpha)
        assert extract_two_way(rho, alpha, 0, 0, 0, 0) == pytest.approx(0.5, abs=1e-9)
        assert extract_two_way(rho, alpha, 0, 0, 0, 1) == 0.0

    def test_zero_amplitude_rejected(self, uniform_binary):
        alpha = Amplitudes.basis(2, 0)
        rho = build_rho_xy(uniform_binary, alpha)
        with pytest.raises(ExtractionError):
            extract_two_way(rho, alpha, 0, 1, 0, 0)

    def test_round_trip_against_exact_joints(self):
        pf = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
        alpha = Amplitudes.uniform(2)
        rho = build_rho_xy(pf, alpha)
        for x in range(2):
            for x_prime in range(2):
                if x == x_prime:
                    continue
                for y in range(2):
                    for y_prime in range(2):
                        exact = joint_counterfactual(
                            pf, CounterfactualQuery(((x, y), (x_prime, y_prime)))
                        )
                        value = extract_two_way(rho, alpha, x, x_prime, y, y_prime)
                        assert abs(value - float(exact)) <= 1e-9

    def test_larger_support_round_trip(self):
        # 32-table support exercises the vectorized state assembly
        pf = FunctionDistribution.uniform(5, 2)
        alpha = Amplitudes.uniform(5)
        rho = build_rho_xy(pf, alpha)
        for x, x_prime in ((0, 4), (2, 3)):
            for y in range(2):
                exact = joint_counterfactual(
                    pf, CounterfactualQuery(((x, y), (x_prime, y)))
                )
                value = extract_two_way(rho, alpha, x, x_prime, y, y)
                assert abs(value - float(exact)) <= 1e-9

    def test_tomography_sweep_matches_joints(self, uniform_binary):
        alpha = Amplitudes.uniform(2)
        rho = build_rho_xy(uniform_binary, alpha)
        rows = tomography_sweep(rho, alpha)
        assert len(rows) == 4 + 4  # 4 diagonal one-way rows + 4 pair rows
        for x, x_prime, y, y_prime, value in rows:
            if x == x_prime:
                continue
            exact = joint_counterfactual(
                uniform_binary, CounterfactualQuery(((x, y), (x_prime, y_prime)))
            )
            assert abs(value - float(exact)) <= 1e-9


# each array-valued type, a valid array for it, and the field that holds it
ARRAY_VALUES = {
    "Amplitudes": (Amplitudes, lambda: np.full(2, INV_SQRT2, dtype=complex), "alpha"),
    "DensityMatrix": (DensityMatrix, lambda: np.eye(2, dtype=complex) / 2, "entries"),
    "MeasurementEffect": (
        MeasurementEffect, lambda: np.eye(2, dtype=complex), "operator",
    ),
}


class TestArrayValues:
    @pytest.mark.parametrize("kind", ARRAY_VALUES)
    def test_equality_and_hash_are_identity(self, kind):
        cls, make, _ = ARRAY_VALUES[kind]
        array = make()
        first, second = cls(array), cls(array)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    @pytest.mark.parametrize("kind", ARRAY_VALUES)
    def test_the_callers_array_is_copied(self, kind):
        cls, make, field = ARRAY_VALUES[kind]
        array = make()
        value = cls(array)
        array[0, ...] = 5
        assert np.array_equal(getattr(value, field), make())

    @pytest.mark.parametrize("kind", ARRAY_VALUES)
    def test_the_array_is_read_only(self, kind):
        cls, make, field = ARRAY_VALUES[kind]
        with pytest.raises(ValueError, match="read-only"):
            getattr(cls(make()), field)[0, ...] = 5

    def test_a_checked_state_reads_the_same_after_a_write_attempt(self, uniform_binary):
        alpha = Amplitudes.uniform(2)
        rho = build_rho_xy(uniform_binary, alpha)
        assert extract_two_way(rho, alpha, 0, 1, 1, 0) == pytest.approx(0.25)
        with pytest.raises(ValueError, match="read-only"):
            rho.entries[1, 2] = 0.1
        assert extract_two_way(rho, alpha, 0, 1, 1, 0) == pytest.approx(0.25)


class TestMeasurement:
    def test_basis_probe_statistics(self):
        pf = binary_distribution(F(1, 10), F(2, 5), F(3, 10), F(1, 5))
        rho0 = build_rho_xy(pf, Amplitudes.basis(2, 0))
        effect = computational_effect(2, 2, 0)
        expected = float(pf.probability(CONST0) + pf.probability(IDENTITY))
        assert measure(rho0, effect) == pytest.approx(expected, abs=1e-10)
        rho1 = build_rho_xy(pf, Amplitudes.basis(2, 1))
        expected1 = float(pf.probability(CONST0) + pf.probability(FLIP))
        assert measure(rho1, effect) == pytest.approx(expected1, abs=1e-10)

    def test_bell_probe_statistics(self):
        pf = binary_distribution(F(1, 10), F(2, 5), F(3, 10), F(1, 5))
        rho = build_rho_xy(pf, Amplitudes.uniform(2))
        expected = float(
            pf.probability(IDENTITY)
            + F(1, 4) * (pf.probability(CONST0) + pf.probability(CONST1))
        )
        assert measure(rho, bell_effect()) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self, uniform_binary):
        rho = build_rho_xy(uniform_binary, Amplitudes.uniform(2))
        with pytest.raises(ValidationError):
            measure(rho, MeasurementEffect(np.eye(9)))

    def test_effect_validation(self):
        with pytest.raises(ValidationError):
            MeasurementEffect(2.0 * np.eye(2))

    def test_simulated_matches_exact_scenarios(self):
        pf = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
        for scenario in ("basis0", "basis1", "plus_bell"):
            exact = float(scenario_probability_exact(pf, scenario))
            simulated = scenario_probability_simulated(pf, scenario)
            assert abs(exact - simulated) <= 1e-12


IDENTITY_RHO = build_rho_xy(
    FunctionDistribution.point_mass(IDENTITY), Amplitudes.uniform(2)
)
# |psi><psi| of (|0, 0> + i |1, 0>)/sqrt(2): a valid state, but no oracle
# output, whose (0 0, 1 0) element is imaginary
PHASED_PSI = np.array([1, 0, 1j, 0]) * INV_SQRT2
PHASED_RHO = DensityMatrix(np.outer(PHASED_PSI, PHASED_PSI.conj()))
# Hermitian within OPERATOR_TOL, but with trace(effect . rho) imaginary
# beyond it on the uniform pure state
SKEWED_EFFECT = MeasurementEffect(0.5 * np.eye(4) + 0.4e-10j * np.ones((4, 4)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Amplitudes(np.array([1.0, 1.0])), ValidationError, "normalized"),
        (lambda: extract_two_way(IDENTITY_RHO, Amplitudes.uniform(3), 0, 1, 0, 0),
         ValidationError, "does not divide"),
        (lambda: extract_two_way(PHASED_RHO, Amplitudes.uniform(2), 0, 1, 0, 0),
         ExtractionError, "imaginary part"),
        (lambda: extract_two_way(
            IDENTITY_RHO, Amplitudes(np.array([0.6, 0.8])), 0, 0, 0, 0),
         ExtractionError, "outside [0, 1]"),
        (lambda: measure(DensityMatrix(np.full((4, 4), 0.25)), SKEWED_EFFECT),
         ValidationError, "measurement probability has imaginary part"),
        (lambda: MeasurementEffect(np.array([[0.5, 0.1], [0.0, 0.5]])),
         ValidationError, "effect operator not Hermitian"),
        (lambda: DensityMatrix(np.zeros((0, 0))), ValidationError, "nonempty"),
        (lambda: MeasurementEffect(np.zeros((2, 3))), ValidationError, "square"),
        (lambda: tomography_sweep(IDENTITY_RHO, Amplitudes.uniform(8)),
         ValidationError, "does not divide"),
        (lambda: Amplitudes("abc"), ValidationError,
         "amplitudes must be complex numbers: complex() arg is a malformed string"),
        (lambda: DensityMatrix([[1, "x"], [0, 0]]), ValidationError,
         "density matrix must be complex numbers"),
        (lambda: MeasurementEffect([[1, 0], [0]]), ValidationError,
         "effect operator must be complex numbers"),
        (lambda: scenario_coefficient(FunctionTable(3, 2, (0, 0, 0)), "basis0"),
         DomainError, "require a 2 -> 2 table"),
        (lambda: scenario_probability_exact(
            FunctionDistribution.uniform(3, 2), "basis0"),
         DomainError, "require a 2 -> 2 model"),
    ],
    ids=["amplitude norm", "amplitudes do not divide", "imaginary marginal",
         "marginal above 1", "imaginary Born probability", "effect not Hermitian",
         "empty matrix", "effect not square", "sweep amplitudes longer than rho",
         "amplitudes text", "density matrix text", "effect ragged",
         "coefficient of a 3 -> 2 table",
         "probability of a 3 -> 2 model"],
)
def test_each_check_refuses_with_its_message(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert message in str(excinfo.value)


def sweep_bits(sweep, rho, alpha):
    """``sweep``'s rows with each value as ``float.hex`` (which tells -0.0
    from 0.0), or the type and message of what it raised."""
    try:
        rows = sweep(rho, alpha)
    except (ExtractionError, ValidationError) as exc:
        return type(exc), str(exc)
    return [(*key, float(value).hex()) for *key, value in rows]


# |psi><psi| of (|0, 0> - |1, 1>)/sqrt(2): its diagonal reads 1 under the
# uniform probe, and its (0 0, 1 1) element reads -1
ANTI_PSI = np.array([1, 0, 0, -1]) * INV_SQRT2
ANTI_RHO = DensityMatrix(np.outer(ANTI_PSI, ANTI_PSI.conj()))


class TestSweepAgainstTheLoop:
    """The one-pass sweep against the per-key loop it replaced."""

    @pytest.mark.parametrize(
        "model", [(6, 4), (8, 3), "appE.json", "modelA.json", "modelB.json"],
        ids=["uniform 6x4", "uniform 8x3", "appE", "modelA", "modelB"],
    )
    def test_uniform_probe_values_repeat_bit_for_bit(self, model):
        model = probe_model(model)
        alpha = Amplitudes.uniform(model.n_x)
        rho = build_rho_xy(model, alpha)
        bits = sweep_bits(tomography_sweep, rho, alpha)
        assert bits == sweep_bits(loop_tomography_sweep, rho, alpha)
        assert len(bits) == model.n_x * model.n_y + math.comb(model.n_x, 2) * (
            model.n_y**2
        )

    # Complex amplitudes, some of them zero: the products alpha_x *
    # conj(alpha_x') are rounded as the scalar ones, so every value repeats
    # bit for bit here too, and every refusal with the loop's message.
    @given(
        st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 2), (2, 3), (4, 2)]),
        st.integers(0, 2**32 - 1),
        st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_complex_amplitudes_repeat_bit_for_bit(self, cards, seed, zero_share):
        rng = np.random.default_rng(seed)
        n_x, n_y = cards
        raw = rng.normal(size=n_x) + 1j * rng.normal(size=n_x)
        raw[rng.random(n_x) < zero_share / 4] = 0
        if not raw.any():
            raw[0] = 1
        alpha = Amplitudes(raw / np.linalg.norm(raw))
        model = random_distribution(random.Random(seed), n_x, n_y)
        rho = build_rho_xy(model, alpha)
        bits = sweep_bits(tomography_sweep, rho, alpha)
        assert bits == sweep_bits(loop_tomography_sweep, rho, alpha)
        for key in itertools.product(range(n_x), range(n_x), range(n_y), range(n_y)):
            one = sweep_bits(lambda r, a: [(extract_two_way(r, a, *key),)], rho, alpha)
            loop = sweep_bits(
                lambda r, a: [(loop_extract_two_way(r, a, *key),)], rho, alpha
            )
            assert one == loop

    @pytest.mark.parametrize(
        "rho, alpha, message",
        [
            (IDENTITY_RHO, Amplitudes.basis(2, 0),
             "cannot extract at inputs (1, 1): zero amplitude"),
            (PHASED_RHO, Amplitudes.uniform(2),
             "extracted value has imaginary part -1; "
             "matrix is not a valid oracle output"),
            (IDENTITY_RHO, Amplitudes(np.array([0.6, 0.8])),
             "extracted value 1.3888888888888886 outside [0, 1] beyond tolerance"),
            (ANTI_RHO, Amplitudes.uniform(2),
             "extracted value -1.0 outside [0, 1] beyond tolerance"),
        ],
        ids=["zero amplitude", "imaginary part", "diagonal above 1",
             "off the diagonal below 0"],
    )
    def test_first_bad_key_raises_what_the_loop_raises(self, rho, alpha, message):
        bits = sweep_bits(tomography_sweep, rho, alpha)
        assert bits == (ExtractionError, message)
        assert bits == sweep_bits(loop_tomography_sweep, rho, alpha)

    def test_no_numpy_warning_escapes(self, uniform_binary):
        rho = build_rho_xy(uniform_binary, Amplitudes.uniform(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExtractionError, match="zero amplitude"):
                tomography_sweep(rho, Amplitudes.basis(2, 1))


class TestSolveBinary:
    def test_uniform_from_forward_values(self, uniform_binary):
        stats = binary_forward_measurements(uniform_binary)
        assert stats == (F(1, 2), F(1, 2), F(3, 8))
        assert solve_binary_pF(*stats) == uniform_binary

    def test_point_identity(self):
        pf = solve_binary_pF(1, 0, 1)
        assert pf == FunctionDistribution.point_mass(IDENTITY)

    def test_distinguishes_equal_conditional_mixtures(self):
        mix_if = binary_distribution(0, F(1, 2), F(1, 2), 0)
        mix_consts = binary_distribution(F(1, 2), 0, 0, F(1, 2))
        assert binary_forward_measurements(mix_if) == (F(1, 2), F(1, 2), F(1, 2))
        assert binary_forward_measurements(mix_consts) == (
            F(1, 2),
            F(1, 2),
            F(1, 4),
        )
        assert solve_binary_pF(F(1, 2), F(1, 2), F(1, 2)) == mix_if
        assert solve_binary_pF(F(1, 2), F(1, 2), F(1, 4)) == mix_consts

    def test_round_trip_on_random_rational_models(self):
        import random

        rng = random.Random(515)
        for _ in range(50):
            raw = [rng.randint(0, 9) for _ in range(4)]
            if sum(raw) == 0:
                continue
            pf = binary_distribution(*[F(k, sum(raw)) for k in raw])
            assert solve_binary_pF(*binary_forward_measurements(pf)) == pf

    def test_inconsistent_statistics_rejected(self):
        with pytest.raises(MeasurementInconsistencyError) as excinfo:
            solve_binary_pF(1, 1, 1)
        assert excinfo.value.residual > 0

    def test_float_inputs_accepted(self, uniform_binary):
        pf = solve_binary_pF(0.5, 0.5, 0.375)
        for table in uniform_binary.support():
            assert abs(float(pf.probability(table)) - 0.25) <= 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, None, "abc", "1/0"])
    def test_unreadable_statistic_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError, match="exact rational"):
            solve_binary_pF(bad, 0, 0)


def _solve_outcome(solve, statistics):
    """A solve's distribution, or its error message and residual."""
    try:
        return solve(*statistics)
    except MeasurementInconsistencyError as exc:
        return str(exc), exc.residual


class TestSolveBinaryAgainstElimination:
    """The cached-inverse solve against the per-call elimination it replaced."""

    @pytest.mark.parametrize("seed", [0, toy.GRID_SEED])
    def test_equivalence_grid_exact_and_as_floats(self, seed):
        for model in toy.equivalence_grid(196, seed):
            exact = binary_forward_measurements(model)
            for statistics in (exact, [float(v) for v in exact]):
                got = _solve_outcome(solve_binary_pF, statistics)
                assert got == _solve_outcome(binary_solve_by_elimination, statistics)
            assert solve_binary_pF(*exact) == model

    @pytest.mark.parametrize("statistics", [(1, 1, 1), (0, 0, 0), (F(1, 2), 0, 1)])
    def test_same_error_on_inconsistent_statistics(self, statistics):
        got = _solve_outcome(solve_binary_pF, statistics)
        assert isinstance(got, tuple) and got[1] > F(1, 10**9)
        assert got == _solve_outcome(binary_solve_by_elimination, statistics)

    @pytest.mark.parametrize("excess", [F(1, 10**9), F(1, 10**9) + F(1, 10**30)])
    @pytest.mark.parametrize("shape", ["below 0", "above 1"])
    def test_both_sides_of_the_tolerance(self, excess, shape):
        # a solution vector with one component at -excess (and, for
        # "above 1", one at 1 + excess), pushed forward to its statistics
        if shape == "below 0":
            vector = [-excess, F(1, 2) + excess, F(1, 2), F(0)]
        else:
            vector = [1 + excess, -excess, F(0), F(0)]
        statistics = [
            sum(a * v for a, v in zip(row, vector)) for row in binary_matrix()[:3]
        ]
        got = _solve_outcome(solve_binary_pF, statistics)
        assert got == _solve_outcome(binary_solve_by_elimination, statistics)
        rejected = excess > F(1, 10**9)
        assert isinstance(got, tuple) == rejected
        if rejected:
            assert got[1] == excess

    def test_cached_inverse_is_exact(self):
        *_, rows, den = identify._binary_system()
        columns = list(zip(*binary_matrix()))
        product = [
            [sum(F(a, den) * b for a, b in zip(row, column)) for column in columns]
            for row in rows
        ]
        assert product == [[int(i == j) for j in range(4)] for i in range(4)]

    def test_no_elimination_or_enumeration_after_the_first_call(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        uniform = FunctionDistribution.uniform(2, 2)
        monkeypatch.setattr(rational, "rref", counting("rref", rational.rref))
        counted = counting("enumerate_functions", core.enumerate_functions)
        for module in (core, identify):
            monkeypatch.setattr(module, "enumerate_functions", counted)
        identify._binary_system.cache_clear()
        statistics = (F(1, 2), F(1, 2), F(3, 8))
        solve_binary_pF(*statistics)
        assert "rref" in calls and "enumerate_functions" in calls
        calls.clear()
        for _ in range(3):
            assert solve_binary_pF(*statistics) == uniform
        assert calls == []

    def test_the_result_keys_are_the_cached_tables(self):
        tables, *_ = identify._binary_system()
        assert [t.index for t in tables] == [0, 1, 2, 3]
        for model in toy.equivalence_grid(20, 7):
            recovered = solve_binary_pF(*binary_forward_measurements(model))
            assert recovered == model
            assert all(
                any(table is cached for cached in tables)
                for table in recovered.support()
            )
