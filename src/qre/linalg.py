"""Dense complex Hermitian linear algebra.

Spectral decompositions, generalized matrix powers, tensor-product
bookkeeping, partial traces, Schatten norms, and the seeded random
ensembles used by the verification harness.  Everything here is plain
numpy; matrices are ``complex128`` ndarrays unless wrapped in
:class:`PsdOperator` / :class:`DensityMatrix`, which cache one spectral
decomposition for reuse downstream.

Tensor plans are compiled once: a keep set, normalized to sorted distinct
integers, keys one cache of plans per ``dims`` per process, shared by every
space with equal dims; a plan holds the normalized keep tuple, the
``subspace`` and the einsum operands of ``partial_trace`` and ``embed``.  The
cached identity factors are read-only; the arrays ``partial_trace`` and
``embed`` return are always fresh and writable, also for a keep set covering
every factor (where einsum alone would return a view of the input).

Spectral work is stacked where that changes no bit: ``PsdOperator.stack``
(and ``DensityMatrix.stack``) decomposes a ``(N, d, d)`` stack with one
``eigh``, checks it whole and keeps it read-only, its members views of its
rows that the kernels read back (``_gathered``); ``PsdOperator.marginals``
traces and decomposes the marginals of several operators as one stack,
``generalized_powers`` raises a stack of decomposed operators to a grid of
exponents (``PsdOperator.powers`` is its call on a list of operators, the
one spelling outside this module, and ``PsdOperator.power`` its read for one
operator and one exponent; powers are never memoised), ``partial_trace`` and
``embed`` take leading stack axes, ``op_norm`` and ``trace_norm`` a stack of
matrices (one batched SVD, the one path for a matrix too) and ``_kron`` two
stacks.  Each stacked result is bit-identical to the one-at-a-time result:
LAPACK and BLAS run on every member exactly as they would alone, every power is
raised with a scalar exponent, a partial trace or a trace norm sums a member's
entries in the order it would alone, and the only other reductions are exact maxima.
A campaign finishes a block of trials' draws this way, their Gram products
(``_gram_states``) and Haar QRs (``_haar_unitaries``) included, and
``run_single`` still replays any campaign line byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, InvalidRank, NotPSD, ShapeMismatch

EPS = float(np.finfo(np.float64).eps)

# Tolerances, relative to matrix scale unless noted.
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
ORTHO_TOL = 1e-10
RECONSTRUCT_TOL = 1e-8
DEGENERACY_TOL = 1e-9


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*)/2, of each matrix of a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, unwrapping spectral wrappers."""
    if isinstance(m, PsdOperator):
        return m.mat
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_matrices(ms) -> np.ndarray:
    """Square matrices of one shape as one complex ``(N, d, d)`` stack, read-only if gathered."""
    if len(ms) and all(isinstance(m, PsdOperator) for m in ms):
        return _gathered(ms, "mat")[0]
    return np.array([as_matrix(m) for m in ms])


def assert_hermitian(m) -> np.ndarray:
    """Return m as ndarray, raising InvalidMatrix unless m is finite and m = m* (HERMITICITY_TOL);
    of each member of a ``(N, d, d)`` stack too, in one check whose first failing member raises."""
    a = np.asarray(m, dtype=np.complex128) if np.ndim(m) == 3 else as_matrix(m)
    _checked_spectra(a if a.ndim == 3 else a[None], psd=False, decompose=False)
    return a


def spectral_decompose(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian m, or of
    each member of a ``(N, d, d)`` stack (each checked as alone; one ``eigh``)."""
    if np.ndim(m) == 3:
        return _checked_spectra(np.asarray(m, dtype=np.complex128), psd=False)
    w, v = _checked_spectra(as_matrix(m)[None], psd=False)
    return w[0], v[0]


def default_cutoff(eigs: np.ndarray):
    """Numerical-rank threshold d * eps * max |eigenvalue|; of each spectrum of a stack, a list."""
    return (eigs.shape[-1] * EPS * np.abs(eigs).max(axis=-1, initial=0.0)).tolist()


def _singular_values(m) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a ``(..., d, d)`` stack (one SVD)."""
    a = m.mat if isinstance(m, PsdOperator) else np.asarray(m, dtype=np.complex128)
    return np.linalg.svd(a, compute_uv=False)


def trace_norm(m):
    """Sum of singular values; for a ``(..., d, d)`` stack, one per matrix (one batched SVD)."""
    return _singular_values(m).sum(axis=-1)


def hs_norm(m) -> float:
    # Frobenius norm; cheaper than the SVD route and equal to it.
    return float(np.linalg.norm(as_matrix(m)))


def op_norm(m):
    """Largest singular value; for a ``(..., d, d)`` stack, one per matrix (one batched SVD)."""
    return _singular_values(m).max(axis=-1, initial=0.0)


def _kron(a, b) -> np.ndarray:
    """``np.kron`` of two matrices or of each pair of stack members, as its broadcast product."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        *a.shape[:-2], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


class _Plan(NamedTuple):
    """One keep set over one ``dims``, compiled into its einsum operands."""

    keep: tuple[int, ...]
    sub: "FactorizedSpace"
    traced: tuple                     # stack axes, then row + col indices; traced factors share one
    kept: tuple                       # stack axes, then kept row + col indices (embed's input)
    embed_rest: tuple                 # (read-only eye, its indices) per other factor, then out
    whole: bool                       # keeps every factor: einsum returns a view


@functools.lru_cache(maxsize=None)
def _compile_plan(dims: tuple[int, ...], keep: tuple[int, ...]) -> _Plan:
    n = len(dims)
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ShapeMismatch(f"keep set {keep} invalid for {n} factors")
    rest = []
    for i in range(n):
        if i not in keep:
            eye = np.eye(dims[i])
            eye.flags.writeable = False
            rest += [eye, (i, i + n)]
    return _Plan(
        keep=keep,
        sub=FactorizedSpace(tuple(dims[k] for k in keep)),
        traced=(...,) + tuple(range(n)) + tuple(i + n if i in keep else i for i in range(n)),
        kept=(...,) + keep + tuple(k + n for k in keep),
        embed_rest=tuple(rest) + ((...,) + tuple(range(2 * n)),),
        whole=len(keep) == n,
    )


@dataclass(frozen=True)
class FactorizedSpace:
    """Ordered tensor factorization of a Hilbert space, e.g. (2, 2, 2) for A|B|C.

    The plan of each keep set is compiled once per ``dims`` and shared by
    every space with those dims.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            dims = ()
        if not dims or min(dims) < 1:
            raise ShapeMismatch(f"factor dims must be positive integers, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))     # not a field

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def check(self, m) -> np.ndarray:
        a = as_matrix(m)
        if a.shape[0] != self.dim:
            raise ShapeMismatch(f"matrix dim {a.shape[0]} != product of factors {self.dims}")
        return a

    def psd(self, m) -> "PsdOperator":
        """Dimension-checked ``PsdOperator``; an operator passed in is returned as is."""
        a = self.check(m)
        return m if isinstance(m, PsdOperator) else PsdOperator(a)

    def _plan(self, keep) -> _Plan:
        """The compiled plan of ``keep``, an index or indices in any order, repeats allowed."""
        try:
            keep = {operator.index(k) for k in (keep if hasattr(keep, "__iter__") else (keep,))}
        except TypeError:
            raise ShapeMismatch(f"keep entries must be integers, got {keep}") from None
        return _compile_plan(self.dims, tuple(sorted(keep)))

    def normalize_keep(self, keep) -> tuple[int, ...]:
        return self._plan(keep).keep

    def subspace(self, keep) -> "FactorizedSpace":
        return self._plan(keep).sub

    def _operand(self, m) -> np.ndarray:
        """A matrix on this space, or a ``(..., d, d)`` stack of them, as complex128."""
        if not (isinstance(m, np.ndarray) and m.ndim > 2):
            return self.check(m)
        a = m.astype(np.complex128, copy=False)
        if a.shape[-2:] != (self.dim,) * 2:
            raise ShapeMismatch(f"stack of shape {a.shape} does not act on {self.dims}")
        return a

    def partial_trace(self, m, keep) -> np.ndarray:
        """Trace out every factor not in ``keep``; result ordered by kept factors.

        ``m`` may be a ``(..., d, d)`` stack; each member is traced as it
        would be alone (the stack axes stay outermost in the einsum).
        """
        plan = self._plan(keep)
        a = self._operand(m)
        lead = a.shape[:-2]
        t = a.reshape(lead + self.dims * 2)
        out = np.einsum(t, plan.traced, plan.kept).reshape(lead + (plan.sub.dim,) * 2)
        return out.copy() if plan.whole else out

    def embed(self, op, slots) -> np.ndarray:
        """Tensor ``op`` (acting on the given factor slots, ascending) with identities elsewhere.

        ``op`` may be a ``(..., d, d)`` stack; each member is embedded as it
        would be alone (embedding only multiplies by identity entries).
        """
        plan = self._plan(slots)
        a = plan.sub._operand(op)
        lead = a.shape[:-2]
        t = a.reshape(lead + plan.sub.dims * 2)
        out = np.einsum(t, plan.kept, *plan.embed_rest).reshape(lead + (self.dim,) * 2)
        return out.copy() if plan.whole else out


def _stack_of(a, w, v) -> dict:
    return {"mat": a, "eigs": w, "vecs": v, "cutoff": np.array(default_cutoff(w))}


def _gathered(ops, *names) -> list[np.ndarray]:
    """The ``names`` arrays of ``ops`` in order: one fancy index into their one stack (or that
    stack itself, if ``ops`` is all of it in order), or an array of the rows of mixed stacks."""
    stack = ops[0]._stack
    if any(op._stack is not stack for op in ops):
        return [np.array([op._stack[name][op._index] for op in ops]) for name in names]
    at = [op._index for op in ops]
    whole = at == list(range(len(stack["mat"])))
    return [stack[name] if whole else stack[name][at] for name in names]


class PsdOperator:
    """Positive semi-definite operator with a cached spectral decomposition.

    ``eigs`` is ascending and ``vecs`` holds orthonormal eigenvector columns;
    ``cutoff`` is the numerical-rank threshold used for generalized inverses.
    ``mat``, ``eigs`` and ``vecs`` are row ``_index`` of the arrays of the stack
    decomposed with it, ``_stack`` (a dict, with ``cutoff`` and the ``clustered``
    spectra).  Immutable: its marginals are memoised, its powers raised afresh.
    """

    __slots__ = ("mat", "eigs", "vecs", "cutoff", "_stack", "_index", "_memo")

    _STATE = False      # whether construction checks a state (DensityMatrix)

    def __init__(self, mat):
        a = as_matrix(mat)[None]       # the stacked constructor, on a stack of one (not copied)
        self._adopt(_stack_of(a, *_checked_spectra(a, self._STATE)), 0)

    def _adopt(self, stack, i):
        self.mat, self.eigs, self.vecs = stack["mat"][i], stack["eigs"][i], stack["vecs"][i]
        self.cutoff, self._stack, self._index, self._memo = float(stack["cutoff"][i]), stack, i, {}
        return self

    @classmethod
    def wrap(cls, m) -> "PsdOperator":
        return m if isinstance(m, PsdOperator) else cls(m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(self.eigs.sum())

    def power(self, beta: float) -> np.ndarray:
        """This operator raised to ``beta`` by ``generalized_powers``."""
        return generalized_powers(self.vecs, self.eigs, self.cutoff, (beta,))[0]

    @classmethod
    def stack(cls, mats) -> list["PsdOperator"]:
        """Operators of a ``(N, d, d)`` stack, decomposed with one ``eigh``.

        Each member is bit-identical to ``cls(mats[i])`` and runs its checks
        (those of a state for ``DensityMatrix``); a bad member raises what it
        would raise on its own.  The stack keeps one copy of ``mats`` and its
        ``eigh``, read-only, and each member's arrays are views of its row.
        """
        a = np.array(mats, dtype=np.complex128)
        w, v = _checked_spectra(a, cls._STATE)
        for x in (a, w, v):
            x.flags.writeable = False
        stack = _stack_of(a, w, v)
        return [cls.__new__(cls)._adopt(stack, i) for i in range(len(a))]

    def marginal(self, space: FactorizedSpace, keep) -> "PsdOperator":
        """The partial trace onto the ``keep`` factors of ``space``, as an operator."""
        return PsdOperator.marginals([self], space, keep)[0]

    @staticmethod
    def marginals(ops, space: FactorizedSpace, keep) -> list["PsdOperator"]:
        """``op.marginal(space, keep)`` of each of ``ops``, memoised on each operator.

        The marginals not yet memoised are traced as one stack and decomposed
        with one ``eigh`` (``PsdOperator.stack``), bit-equal to one at a time.
        """
        key = ("marginal", space.dims, space.normalize_keep(keep))
        todo = list({id(op): op for op in ops if key not in op._memo}.values())
        if todo:
            mats = _as_matrices(todo)
            for op, marg in zip(todo, PsdOperator.stack(space.partial_trace(mats, key[2]))):
                op._memo[key] = marg
        return [op._memo[key] for op in ops]

    @staticmethod
    def powers(ops, betas) -> np.ndarray:
        """``generalized_powers`` of ``ops`` (of one dimension) in one call, ``(N, G, d, d)``."""
        return generalized_powers(*_gathered(ops, "vecs", "eigs", "cutoff"), betas)

    def support_projector(self) -> np.ndarray:
        return self.power(0.0)

    def min_positive_eig(self) -> float:
        above = self.eigs[self.eigs > self.cutoff]
        if len(above) == 0:
            raise NotPSD("operator has no eigenvalue above cutoff")
        return float(above[0])

    def max_eig(self) -> float:
        return float(self.eigs[-1])

    def rank(self) -> int:
        return int((self.eigs > self.cutoff).sum())


def generalized_powers(vecs, eigs, cutoffs, betas) -> np.ndarray:
    """Each operator of a stack raised to each of ``betas``, as a ``(..., G, d, d)`` stack.

    Operator ``i`` is ``vecs[i] diag(eigs[i]) vecs[i]*``, with ``vecs`` of
    shape ``(..., d, d)``, ``eigs`` ``(..., d)`` and ``cutoffs`` ``(...)``.
    Eigenvalues above the operator's cutoff map to ``lam**b``, the rest to 0,
    which realizes the generalized inverse for negative exponents.  Each
    exponent is raised as a scalar, so every entry is bit-equal to the
    operator raised alone.
    """
    wp = _raised_eigs(eigs, np.asarray(cutoffs)[..., None], betas)
    return hermitize((vecs[..., None, :, :] * wp[..., None, :])
                     @ vecs.conj().swapaxes(-1, -2)[..., None, :, :])


def _raised_eigs(w, cut, betas):
    """``(..., G, d)``: w ** b where w is above ``cut``, 0 elsewhere, for each scalar b.

    numpy computes ``x ** 0.5`` with a scalar exponent as sqrt, with an array
    exponent as pow, and the two differ in the last bit.
    """
    keep = w > cut
    base = np.where(keep, w, 1.0)
    wp = np.empty(w.shape[:-1] + (len(betas), w.shape[-1]))
    for g, beta in enumerate(betas):
        wp[..., g, :] = base ** beta
    np.copyto(wp, 0.0, where=~keep[..., None, :])
    return wp


class DensityMatrix(PsdOperator):
    """Unit-trace PSD matrix (a quantum state), validated on construction."""

    _STATE = True


def _checked_spectra(a, state: bool = False, psd: bool = True, decompose: bool = True):
    """Eigenvalues and eigenvector columns of a ``(N, d, d)`` stack, after its checks.

    Each member is checked as ``PsdOperator`` checks a matrix (finite entries,
    Hermitian and, if ``psd``, PSD) and, if ``state``, as ``DensityMatrix``
    checks a state (unit trace, orthonormal eigenvectors, spectral
    reconstruction).  Every reduction is a maximum per member, so each verdict
    is the member's own; the first failing member raises its first failing
    check, as constructing one at a time would.  Without ``decompose`` (and
    ``psd``) only the first two checks run, and no ``eigh``.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidMatrix(f"expected a stack of square matrices, got shape {a.shape}")
    n, d = a.shape[0], a.shape[-1]

    def per_member_max(x):
        return x.reshape(n, -1).max(axis=1, initial=0.0)

    scale = np.maximum(per_member_max(np.abs(a)), 1.0)
    finite = np.isfinite(scale)     # a NaN or inf entry makes its member's maximum non-finite
    if not finite.all():            # later checks see zeros in place of a non-finite member
        a = np.where(finite[:, None, None], a, 0.0)
    herm_dev = per_member_max(np.abs(a - a.conj().swapaxes(-1, -2)))
    if not decompose:
        w = v = None
    elif n == 1:    # LAPACK runs on one matrix either way; the 2-D call is the faster at d = 64
        w, v = (x[None] for x in np.linalg.eigh(hermitize(a[0])))
    else:
        w, v = np.linalg.eigh(hermitize(a))
    fails = [~finite, herm_dev > HERMITICITY_TOL * scale]
    if psd:
        fails.append(w.min(axis=1, initial=0.0)
                     < -PSD_TOL * np.maximum(per_member_max(np.abs(w)), 1.0))
    if state:
        tr = w.sum(axis=1)
        vh = v.conj().swapaxes(-1, -2)
        gram_dev = per_member_max(np.abs(vh @ v - np.eye(d)))
        rec_dev = per_member_max(np.abs((v * w[:, None, :]) @ vh - a))
        fails += [np.abs(tr - 1.0) > TRACE_TOL, gram_dev > ORTHO_TOL * d,
                  rec_dev > RECONSTRUCT_TOL * scale]
    bad = functools.reduce(operator.or_, fails)
    if bad.any():
        i = int(np.argmax(bad))
        reasons = [
            (InvalidMatrix, lambda: "matrix has a non-finite (NaN or inf) entry"),
            (InvalidMatrix, lambda: f"matrix deviates from Hermitian by {herm_dev[i]:.3e} "
                                    f"(scale {scale[i]:.3e})"),
            (NotPSD, lambda: f"eigenvalue {w[i].min():.3e} below tolerance"),
            (InvalidMatrix, lambda: f"trace {float(tr[i])!r} deviates from 1 beyond "
                                    f"{TRACE_TOL:.0e}"),
            (InvalidMatrix, lambda: f"eigenvectors not orthonormal (dev {gram_dev[i]:.3e})"),
            (InvalidMatrix, lambda: f"spectral reconstruction off by {rec_dev[i]:.3e}"),
        ]
        error, message = next(r for r, fail in zip(reasons, fails) if fail[i])
        raise error(message())
    return w, v


# ----------------------------------------------------------------------------
# Seeded random ensembles
# ----------------------------------------------------------------------------

def _normals(rng, rows: int, cols: int | None = None) -> np.ndarray:
    """The normals of a Ginibre matrix, square by default: real parts, then imaginary."""
    return rng.standard_normal((2, rows, rows if cols is None else cols))


def _contraction_numbers(rng, dim: int) -> tuple:
    """A random contraction's numbers: the normals of its Gaussian matrix, then its norm."""
    return _normals(rng, dim), rng.uniform(0.5, 1.0)


def _ginibre(rng, rows: int, cols: int | None = None) -> np.ndarray:
    """Complex Gaussian matrix, square by default; real parts drawn first, then imaginary."""
    return _complex(_normals(rng, rows, cols))


def _complex(z) -> np.ndarray:
    """``z[0] + 1j z[1]`` of drawn normals ``(2, r, c)``, or of each member of a stack of them."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _gram_states(g) -> np.ndarray:
    """``hermitize(m / Tr m)``, ``m = g g*``, of each Ginibre matrix g of a ``(N, d, r)`` stack."""
    m = g @ g.conj().swapaxes(-1, -2)
    return hermitize(m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None])


def random_state_matrix(dim: int, rank: int | None = None, seed=None) -> np.ndarray:
    """The matrix of ``random_density``, not yet decomposed (``DensityMatrix.stack`` input)."""
    rank = dim if rank is None else int(rank)
    if rank < 1 or rank > dim:
        raise InvalidRank(f"rank {rank} outside [1, {dim}]")
    return _gram_states(_ginibre(np.random.default_rng(seed), dim, rank)[None])[0]


def random_density(dim: int, rank: int | None = None, seed=None) -> DensityMatrix:
    """State sampled as GG*/Tr(GG*) with G a dim x rank complex Gaussian matrix."""
    return DensityMatrix(random_state_matrix(dim, rank, seed))


def _haar_unitaries(z) -> np.ndarray:
    """The Haar unitary of each Gaussian matrix of a ``(N, d, d)`` stack, by one stacked QR."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar unitary via QR of a Gaussian matrix with the R-diagonal phase fix."""
    return _haar_unitaries(_ginibre(np.random.default_rng(seed), dim)[None])[0]


def rescale_contractions(draws) -> list[np.ndarray]:
    """``g * (s / ||g||)`` for each ``(g, s)`` of equal shape, with one batched SVD."""
    draws = list(draws)
    norms = op_norm(np.stack([g for g, _ in draws]))
    return [g * (s / norm) for (g, s), norm in zip(draws, norms.tolist())]


def random_contraction(dim: int, seed=None) -> np.ndarray:
    """Random matrix rescaled to operator norm in (0, 1]."""
    z, norm = _contraction_numbers(np.random.default_rng(seed), dim)
    return rescale_contractions([(_complex(z), norm)])[0]


def random_hermitian(dim: int, seed=None) -> np.ndarray:
    return hermitize(_ginibre(np.random.default_rng(seed), dim))


# ----------------------------------------------------------------------------
# JSON exchange format: {"dim": n, "re": [[...]], "im": [[...]]}, row-major
# ----------------------------------------------------------------------------

def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    try:
        if isinstance(obj["dim"], bool):       # operator.index takes a bool as 0 or 1
            raise TypeError(f"dim {obj['dim']} is not an integer")
        dim = operator.index(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidMatrix(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidMatrix(f"matrix entries have shape {re.shape}, expected ({dim}, {dim})")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InvalidMatrix("matrix has a non-finite (NaN or inf) entry")
    return re + 1j * im


def save_matrix(path, m):
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
