"""Epistemically restricted bit-pair model of the binary oracle scenario.

Each two-level register is modeled by two classical bits (z, x); an agent
may know at most one of them, so states of maximal knowledge are uniform
distributions over 4-element affine subspaces of the 16 ontic states.
The four binary oracles act as reversible phase-space permutations, and
all three probe scenarios of the coherent-oracle analysis come out with
exactly the rational outcome probabilities that :mod:`identify` computes
for them, with no density matrix.  The identification advantage over
single classical queries therefore does not require quantum theory
itself in the binary case.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    FunctionDistribution,
    FunctionTable,
    _checked_weights,
    _exact_str,
    _set_weights,
    _trusted,
)
from .errors import DomainError, UnsupportedTableError, ValidationError
from .identify import BINARY_SCENARIOS, _scenario_position, binary_forward_measurements
from .modelio import table_to_digits

#: Ontic state layout: (z1, x1, z2, x2).  Register 1 carries the input
#: variable, register 2 the output ancilla (prepared at z2 = 0).
OnticState = tuple[int, int, int, int]

PREPARATIONS = ("z0", "z1", "plus")
MEASUREMENT_SETTINGS = ("y_computational", "bell_parity")

#: Seed for the mixed-distribution test grid in verify_binary_equivalence.
GRID_SEED = 1148


def _ontic(state) -> OnticState:
    """``state`` as a tuple of four bits."""
    try:
        state = tuple(map(operator.index, state))
    except TypeError as exc:
        raise ValidationError(f"non-integer ontic state {state!r}") from exc
    if len(state) != 4 or any(b not in (0, 1) for b in state):
        raise ValidationError(f"bad ontic state {state}")
    return state


@dataclass(frozen=True)
class ToyEpistemicState:
    """A probability distribution over the 16 ontic states.

    ``_nums`` holds ``probs``, in the same order, as integers over the one
    denominator ``_den``, as on :class:`FunctionDistribution`.
    """

    probs: dict[OnticState, Fraction]
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_weights(self, "probs", _checked_weights(
            self.probs, "ontic probabilities", _ontic, order=lambda state: state
        ))

    def support(self) -> tuple[OnticState, ...]:
        return tuple(self.probs.keys())


def toy_prepare(x_prep: str) -> ToyEpistemicState:
    """Joint preparation of the input register and the output ancilla.

    z0 / z1 fix the input z bit; "plus" fixes the input x bit to 0 and
    leaves z uniform.  The ancilla always has z2 = 0 with x2 uniform.
    """
    if x_prep == "z0":
        states = [(0, x1, 0, x2) for x1 in (0, 1) for x2 in (0, 1)]
    elif x_prep == "z1":
        states = [(1, x1, 0, x2) for x1 in (0, 1) for x2 in (0, 1)]
    elif x_prep == "plus":
        states = [(z1, 0, 0, x2) for z1 in (0, 1) for x2 in (0, 1)]
    else:
        raise DomainError(
            f"unknown preparation {x_prep!r}; expected one of {PREPARATIONS}"
        )
    quarter = Fraction(1, 4)
    return ToyEpistemicState({s: quarter for s in states})


def _toy_image(outputs: tuple[int, ...], s: OnticState) -> OnticState:
    """Where the oracle of the binary table ``outputs`` sends ``s``: z2
    takes f(z1), and x1 takes x2 when f is balanced."""
    z1, x1, z2, x2 = s
    balanced = outputs[0] ^ outputs[1]
    return (z1, x1 ^ (balanced & x2), z2 ^ outputs[z1], x2)


def apply_oracle_mixture(
    state: ToyEpistemicState, pF: FunctionDistribution
) -> ToyEpistemicState:
    """Average the four oracle permutations over the table distribution."""
    if pF.n_x != 2 or pF.n_y != 2:
        raise UnsupportedTableError("toy oracle mixtures require a 2 -> 2 model")
    # integers over the product of the two denominators
    out: dict[OnticState, int] = {}
    for table, w in zip(pF.weights, pF._nums):
        for s, p in zip(state.probs, state._nums):
            image = _toy_image(table.outputs, s)
            out[image] = out.get(image, 0) + w * p
    # ontic states sort in their canonical order, as tuples
    items = sorted(out.items())
    return _trusted(ToyEpistemicState, "probs", items, pF._den * state._den)


def toy_measure(state: ToyEpistemicState, setting: str):
    """Read out a toy measurement.

    y_computational returns (p(z2=0), p(z2=1)).  bell_parity returns the
    distribution over the joint parities (z1 xor z2, x1 xor x2); the
    (0, 0) outcome is the analogue of the maximally correlated Bell
    projection.
    """
    states, den = zip(state.probs, state._nums), state._den
    if setting == "y_computational":
        p0 = Fraction(sum(p for s, p in states if s[2] == 0), den)
        return (p0, 1 - p0)
    if setting == "bell_parity":
        outcomes = {(pz, px): 0 for pz in (0, 1) for px in (0, 1)}
        for (z1, x1, z2, x2), p in states:
            outcomes[(z1 ^ z2, x1 ^ x2)] += p
        return {outcome: Fraction(p, den) for outcome, p in outcomes.items()}
    raise DomainError(
        f"unknown setting {setting!r}; expected one of {MEASUREMENT_SETTINGS}"
    )


#: Each binary probe scenario, in ``BINARY_SCENARIOS`` order, as a
#: preparation, a measurement setting and the outcome read.
_SCENARIO_PROBES = (
    ("z0", "y_computational", 0),
    ("z1", "y_computational", 0),
    ("plus", "bell_parity", (0, 0)),
)


def _probe_probability(
    prepared: ToyEpistemicState, setting: str, outcome, pF: FunctionDistribution
) -> Fraction:
    """The probability of reading ``outcome`` under ``setting`` once the
    oracle mixture of ``pF`` has acted on the ``prepared`` state."""
    return toy_measure(apply_oracle_mixture(prepared, pF), setting)[outcome]


def toy_scenario_probability(pF: FunctionDistribution, scenario: str) -> Fraction:
    """Toy-model outcome probability of one of the binary probe scenarios,
    each a preparation, a measurement setting and the outcome read."""
    preparation, setting, outcome = _SCENARIO_PROBES[_scenario_position(scenario)]
    return _probe_probability(toy_prepare(preparation), setting, outcome, pF)


@dataclass(frozen=True)
class ToyComparison:
    scenario: str
    pF: FunctionDistribution
    quantum: Fraction
    toy: Fraction

    @property
    def equal(self) -> bool:
        return self.quantum == self.toy


@dataclass
class ToyEquivalenceReport:
    comparisons: list[ToyComparison]

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.comparisons)

    def mismatches(self) -> list[ToyComparison]:
        return [c for c in self.comparisons if not c.equal]

    def to_json_list(self) -> list[dict]:
        return [
            {
                "scenario": c.scenario,
                "pF": {table_to_digits(t): _exact_str(w) for t, w in c.pF.weights.items()},
                "quantum": _exact_str(c.quantum),
                "toy": _exact_str(c.toy),
                "equal": c.equal,
            }
            for c in self.comparisons
        ]


def equivalence_grid(num_mixtures: int = 10, seed: int = GRID_SEED):
    """The fixed test grid: all four point masses plus seeded random
    rational mixtures."""
    grid = [
        FunctionDistribution.point_mass(FunctionTable.from_index(2, 2, i))
        for i in range(4)
    ]
    rng = random.Random(seed)
    while len(grid) < 4 + num_mixtures:
        raw = [rng.randint(0, 12) for _ in range(4)]
        total = sum(raw)
        if total == 0:
            continue
        grid.append(
            FunctionDistribution.from_vector(2, 2, [Fraction(k, total) for k in raw])
        )
    return grid


def verify_binary_equivalence() -> ToyEquivalenceReport:
    """Compare toy against exact coherent-probe probabilities on the full
    grid x scenario matrix.  Every comparison is an exact rational
    equality; mismatches are collected, never swallowed.  Each preparation
    is built once, and each model's three coherent-probe probabilities
    come from one pass over its tables."""
    probes = [
        (toy_prepare(preparation), setting, outcome)
        for preparation, setting, outcome in _SCENARIO_PROBES
    ]
    comparisons = []
    for pF in equivalence_grid():
        exact = binary_forward_measurements(pF)
        for scenario, quantum, probe in zip(BINARY_SCENARIOS, exact, probes):
            comparisons.append(
                ToyComparison(scenario, pF, quantum, _probe_probability(*probe, pF))
            )
    return ToyEquivalenceReport(comparisons)
