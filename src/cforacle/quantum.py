"""Coherent oracle simulation on the composite input/output register.

The oracle is the isometry |x> -> |x>|f(x)| applied to a superposed
input; averaging over the table distribution yields a joint density
matrix whose off-diagonal blocks carry every pairwise output marginal
p(f(x)=y, f(x')=y'), and :func:`build_rho_xy` builds it from those
marginals.  Reading them back out (tomography) is what single classical
queries cannot do.  The binary probe scenarios are simulated here; their
exact probabilities and solve are in :mod:`identify`.

Composite indexing convention throughout: basis state |x>|y> sits at
index x * n_y + y (input register most significant).

Float checks allow three round-offs: ``STATE_TOL`` in a state's norm,
trace and Hermitian part and for a zero amplitude, ``OPERATOR_TOL`` in an
operator's spectrum and a Born probability, and ``EXTRACTION_TOL`` in a
marginal read off rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FunctionDistribution,
    _as_index,
    _cardinalities,
    _check_size,
    _describe_int,
)
from .errors import ExtractionError, ValidationError
from .identify import _marginal_counts, _scenario_position
# the binary solve is also read as quantum.*, by perfbench and its tracer
from .identify import binary_forward_measurements, solve_binary_pF

STATE_TOL = 1e-12
OPERATOR_TOL = 1e-10
EXTRACTION_TOL = 1e-9

#: Output cells per slice of :func:`_pairwise_marginals`: a slice holds
#: max(1, _SLICE_CELLS // n_x) tables, so no temporary grows with the model.
_SLICE_CELLS = 1 << 18


def _complex_array(value, what: str) -> np.ndarray:
    """A read-only complex copy of ``value``, so that neither the caller nor
    a reader can change it once checked; else ValidationError (numpy raises
    ValueError, TypeError or OverflowError on what it cannot read)."""
    try:
        arr = np.array(value, dtype=complex)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"{what} must be complex numbers: {exc}") from exc
    arr.flags.writeable = False
    return arr


# The array-valued types below compare and hash by identity (eq=False):
# the generated field-wise ``==`` and hash are undefined on an ndarray.
@dataclass(frozen=True, eq=False)
class Amplitudes:
    """A pure input-register state: one complex amplitude per input value."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = _complex_array(self.alpha, "amplitudes")
        object.__setattr__(self, "alpha", arr)
        # NaN would pass every tolerance test below: comparisons with it are false
        if arr.ndim != 1 or arr.size < 1 or not np.isfinite(arr).all():
            raise ValidationError("amplitudes must form a nonempty finite vector")
        norm = float(np.sum(np.abs(arr) ** 2))
        if abs(norm - 1.0) > STATE_TOL:
            raise ValidationError(
                f"amplitudes must be normalized, got |alpha|^2 = {norm!r}"
            )

    @classmethod
    def uniform(cls, n_x: int) -> "Amplitudes":
        n_x, _ = _cardinalities(n_x, 1)  # an input register only
        _check_size("amplitudes of the input register", n_x)
        return cls(np.full(n_x, 1.0 / np.sqrt(n_x), dtype=complex))

    @classmethod
    def basis(cls, n_x: int, x: int) -> "Amplitudes":
        n_x, _ = _cardinalities(n_x, 1)
        _check_size("amplitudes of the input register", n_x)
        vec = np.zeros(n_x, dtype=complex)
        vec[_as_index(x, "input", n_x)] = 1.0
        return cls(vec)

    @property
    def n_x(self) -> int:
        return int(self.alpha.size)


def _hermitian_spectrum(arr: np.ndarray, what: str, tol: float) -> np.ndarray:
    """The spectrum of ``arr``'s Hermitian part, once ``arr`` is a nonempty
    finite square matrix Hermitian within ``tol``; else ValidationError."""
    square = arr.ndim == 2 and arr.shape[0] == arr.shape[1]
    if not (square and arr.size and np.isfinite(arr).all()):
        raise ValidationError(f"{what} must be square, nonempty and finite")
    herm = float(np.max(np.abs(arr - arr.conj().T)))
    if herm > tol:
        raise ValidationError(f"{what} not Hermitian: max |A - A^dag| = {herm:g}")
    return np.linalg.eigvalsh((arr + arr.conj().T) / 2)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix on the composite register."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _complex_array(self.entries, "density matrix")
        object.__setattr__(self, "entries", arr)
        eigs = _hermitian_spectrum(arr, "density matrix", STATE_TOL)
        trace = complex(np.trace(arr))
        if abs(trace - 1.0) > STATE_TOL:
            raise ValidationError(f"trace must be 1, got {trace!r}")
        min_eig = float(eigs.min())
        if min_eig < -OPERATOR_TOL:
            raise ValidationError(
                f"not positive semidefinite: min eigenvalue {min_eig:g}"
            )

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True, eq=False)
class MeasurementEffect:
    """A POVM effect: Hermitian with spectrum inside [0, 1]."""

    operator: np.ndarray

    def __post_init__(self):
        arr = _complex_array(self.operator, "effect operator")
        object.__setattr__(self, "operator", arr)
        eigs = _hermitian_spectrum(arr, "effect operator", OPERATOR_TOL)
        if float(eigs.min()) < -OPERATOR_TOL or float(eigs.max()) > 1 + OPERATOR_TOL:
            raise ValidationError(
                f"effect eigenvalues outside [0, 1]: [{eigs.min():g}, {eigs.max():g}]"
            )

    @property
    def dim(self) -> int:
        return int(self.operator.shape[0])


def _conjugate_products(a: np.ndarray, b: np.ndarray, scale=1.0) -> np.ndarray:
    """a * conj(b) * scale, broadcast, from float products each rounded once
    as in the scalar product: numpy's complex array product may fuse them,
    which would make a * conj(a) complex and rho not Hermitian exactly."""
    product = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    product.real = (a.real * b.real + a.imag * b.imag) * scale
    product.imag = (a.imag * b.real - a.real * b.imag) * scale
    return product


def _pairwise_marginals(pF: FunctionDistribution) -> np.ndarray:
    """P[x n_y + y, x' n_y + y'] = p(f(x)=y, f(x')=y'), correctly rounded:
    sums of the numerators ``_nums``, divided once by ``_den``.  The sums
    are float64 bincounts, one per input x and slice of tables, exact while
    ``_den < 2^53`` as no partial sum exceeds ``_den``; else Python ints."""
    n_x, n_y, den = pF.n_x, pF.n_y, pF._den
    dim = n_x * n_y
    if den >= 1 << 53:
        _, two = _marginal_counts(pF, [divmod(k, n_x) for k in range(n_x**2)])
        p = np.array([[count / den for count in row] for cell in two for row in cell])
        return p.reshape(n_x, n_x, n_y, n_y).transpose(0, 2, 1, 3).reshape(dim, dim)
    store = pF._output_store()
    outputs = np.frombuffer(store, dtype=store.typecode).reshape(-1, n_x)
    nums = np.array(pF._nums, dtype=np.float64)
    rows = max(1, _SLICE_CELLS // n_x)
    counts = np.zeros((n_x, n_y * dim))
    for start in range(0, len(nums), rows):
        out = outputs[start:start + rows].astype(np.intp)
        columns = out + np.arange(0, dim, n_y)  # x' n_y + f(x')
        weights = np.repeat(nums[start:start + rows], n_x)
        for x in range(n_x):
            keys = (out[:, x, None] * dim + columns).ravel()
            counts[x] += np.bincount(keys, weights, minlength=n_y * dim)
    return counts.reshape(dim, dim) / den


def build_rho_xy(pF: FunctionDistribution, alpha: Amplitudes) -> DensityMatrix:
    """The post-oracle pure states averaged over the table distribution.

    Matrix element <x, y| rho |x', y'> is alpha_x * conj(alpha_x') *
    p(f(x)=y, f(x')=y'), formed so from the correctly rounded marginals with
    no BLAS sum: rho is Hermitian exactly.  Raises :class:`EnumerationCapError`,
    before allocating, when the matrix would have more entries than the cap.
    """
    if alpha.n_x != pF.n_x:
        raise ValidationError(
            f"amplitude vector has {alpha.n_x} entries, model expects {pF.n_x}"
        )
    dim = pF.n_x * pF.n_y
    shown = _describe_int(dim)
    _check_size(f"entries of a {shown} x {shown} density matrix", dim, 2)
    a = np.repeat(alpha.alpha, pF.n_y)
    return DensityMatrix(_conjugate_products(a[:, None], a, _pairwise_marginals(pF)))


def _averaged_state(pF: FunctionDistribution, alpha: Amplitudes) -> DensityMatrix:
    """rho as the weighted sum of every table's post-oracle state, in one
    matrix product, for small models: not from the marginals, so that
    ``reproduce model_ab``'s equal states are not its equal joints again."""
    n_x, n_y = pF.n_x, pF.n_y
    store = pF._output_store()
    outputs = np.frombuffer(store, dtype=store.typecode).reshape(-1, n_x)
    psi = np.zeros((len(outputs), n_x * n_y), dtype=complex)
    psi[np.arange(len(outputs))[:, None], np.arange(n_x) * n_y + outputs] = alpha.alpha
    rho = (psi.T * [num / pF._den for num in pF._nums]) @ psi.conj()
    return DensityMatrix((rho + rho.conj().T) / 2)  # scrub float round-off asymmetry


def _register_sizes(rho: DensityMatrix, alpha: Amplitudes) -> tuple[int, int]:
    """``(n_x, n_y)`` of the composite register: n_x from the amplitudes,
    n_y from rho's side, which n_x must divide; else ValidationError."""
    n_x = alpha.n_x
    n_y = rho.dim // n_x
    if n_x * n_y != rho.dim:
        raise ValidationError("amplitude count does not divide the matrix dimension")
    return n_x, n_y


def _extract(
    rho: DensityMatrix,
    alpha: Amplitudes,
    n_y: int,
    keys: np.ndarray,
) -> list[float]:
    """p(f(x)=y, f(x')=y') off the density matrix for each row
    ``(x, x', y, y')`` of ``keys``, in-range indices: the one extraction
    rule, over all keys at once.

    The (x y, x' y') element is divided by alpha_x * conj(alpha_x'), which
    requires both amplitudes to be nonzero; a diagonal element by
    |alpha_x|^2 in real arithmetic, as a complex over a float divides.
    For x == x' only y == y' has support; other outputs read 0.  The first
    key that fails a check, in order, raises that check's error.
    """
    x, x_prime, y, y_prime = keys.T
    amplitudes = alpha.alpha.tolist()
    # |alpha_x| and |alpha_x|^2 as Python computes them, one per input
    sizes = np.array([abs(a) for a in amplitudes])
    squares = np.array([abs(a) ** 2 for a in amplitudes])
    zero = (sizes[x] < STATE_TOL) | (sizes[x_prime] < STATE_TOL)
    element = rho.entries[x * n_y + y, x_prime * n_y + y_prime]
    product = _conjugate_products(alpha.alpha[x], alpha.alpha[x_prime])
    # a divisor of 1 where an amplitude is zero, so that no division warns
    cross = element / np.where(zero, 1, product)
    square = np.where(zero, 1, squares[x])
    diagonal = x == x_prime
    unsupported = diagonal & (y != y_prime)
    real = np.where(
        unsupported, 0.0, np.where(diagonal, element.real / square, cross.real)
    )
    imag = np.where(diagonal, element.imag / square, cross.imag)
    imaginary = ~unsupported & (np.abs(imag) > EXTRACTION_TOL)
    outside = (real < -EXTRACTION_TOL) | (real > 1 + EXTRACTION_TOL)
    bad = np.flatnonzero(zero | imaginary | outside)
    if bad.size:
        k = bad[0]
        if zero[k]:
            raise ExtractionError(
                f"cannot extract at inputs ({x[k]}, {x_prime[k]}): zero amplitude"
            )
        if imaginary[k]:
            raise ExtractionError(
                f"extracted value has imaginary part {float(imag[k]):g}; "
                "matrix is not a valid oracle output"
            )
        raise ExtractionError(
            f"extracted value {float(real[k])!r} outside [0, 1] beyond tolerance"
        )
    # min(1.0, max(0.0, v)) per key, -0.0 read as 0.0
    return np.where(real > 0, np.where(real < 1, real, 1.0), 0.0).tolist()


def extract_two_way(
    rho: DensityMatrix,
    alpha: Amplitudes,
    x: int,
    x_prime: int,
    y: int,
    y_prime: int,
) -> float:
    """Read p(f(x)=y, f(x')=y') off the density matrix.

    Divides the (x y, x' y') element by alpha_x * conj(alpha_x'), which
    requires both amplitudes to be nonzero.  For x == x' the diagonal
    block only supports y == y', giving back the one-way marginal.
    """
    n_x, n_y = _register_sizes(rho, alpha)
    x, x_prime = _as_index(x, "x", n_x), _as_index(x_prime, "x_prime", n_x)
    y, y_prime = _as_index(y, "y", n_y), _as_index(y_prime, "y_prime", n_y)
    return _extract(rho, alpha, n_y, np.array([[x, x_prime, y, y_prime]]))[0]


def measure(rho: DensityMatrix, effect: MeasurementEffect) -> float:
    """Born probability trace(effect . rho), clamped to [0, 1]."""
    if rho.dim != effect.dim:
        raise ValidationError(
            f"dimension mismatch: rho is {rho.dim}, effect is {effect.dim}"
        )
    value = complex(np.trace(effect.operator @ rho.entries))
    if abs(value.imag) > OPERATOR_TOL:
        raise ValidationError(
            f"measurement probability has imaginary part {value.imag:g}"
        )
    return min(1.0, max(0.0, value.real))


def computational_effect(n_x: int, n_y: int, y: int) -> MeasurementEffect:
    """Project the output register onto |y>, ignoring the input register."""
    n_x, n_y = _cardinalities(n_x, n_y)
    y = _as_index(y, "outcome", n_y)
    dim = n_x * n_y
    shown = _describe_int(dim)
    _check_size(f"entries of a {shown} x {shown} effect", dim, 2)
    op = np.zeros((dim, dim), dtype=complex)
    for x in range(n_x):
        op[x * n_y + y, x * n_y + y] = 1.0
    return MeasurementEffect(op)


def bell_effect() -> MeasurementEffect:
    """Rank-one projector onto the Bell state (|00> + |11>)/sqrt(2) (dim 4)."""
    vec = np.sqrt(0.5) * np.array((1, 0, 0, 1), dtype=complex)
    return MeasurementEffect(np.outer(vec, vec.conj()))


def scenario_probability_simulated(
    pF: FunctionDistribution, scenario: str
) -> float:
    """The same probability through the full density-matrix pipeline."""
    alpha, effect = (
        (Amplitudes.basis(2, 0), computational_effect(2, 2, 0)),
        (Amplitudes.basis(2, 1), computational_effect(2, 2, 0)),
        (Amplitudes.uniform(2), bell_effect()),
    )[_scenario_position(scenario)]
    return measure(build_rho_xy(pF, alpha), effect)


def tomography_sweep(
    rho: DensityMatrix, alpha: Amplitudes
) -> list[tuple[int, int, int, int, float]]:
    """Extract every pairwise marginal from the density matrix.

    Emits (x, x', y, y', value) rows: all output pairs for x < x', and
    the diagonal one-way marginals for x == x' (y == y' only).
    """
    n_x, n_y = _register_sizes(rho, alpha)
    # (x, x, y, y) for every input and output, then (x, x', y, y') for
    # x < x' and every pair of outputs
    x, y = np.divmod(np.arange(n_x * n_y), n_y)
    first, second = np.triu_indices(n_x, 1)
    out, out_prime = np.divmod(np.arange(n_y * n_y), n_y)
    keys = np.concatenate([
        np.column_stack([x, x, y, y]),
        np.column_stack([
            first.repeat(n_y * n_y), second.repeat(n_y * n_y),
            np.tile(out, first.size), np.tile(out_prime, first.size),
        ]),
    ])
    values = _extract(rho, alpha, n_y, keys)
    return [(*key, value) for key, value in zip(keys.tolist(), values)]
