"""Exact complex linear algebra for 2- and 4-dimensional quantum objects.

Everything in the package is built on plain ``numpy`` arrays with value
semantics: functions never mutate their arguments and always return fresh
arrays, so they are safe to call concurrently.

The canonical two-photon basis order is HH, HV, VH, VV: a joint matrix index
is ``2*a + b`` where ``a`` is the first photon (0 = H, 1 = V) and ``b`` the
second.  Every 4x4 operator and density matrix in the package uses this
layout; keeping a single fixed order removes a silent-transposition bug
class.
"""

from __future__ import annotations

import numpy as np

# All entries handled here are O(1), so comparisons are absolute.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-8


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(m).swapaxes(-1, -2)


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - dagger(m))) < HERMITIAN_TOL)


def is_density(m: np.ndarray) -> bool:
    """Check the density-matrix invariants: Hermitian, unit trace, PSD."""
    m = np.asarray(m)
    if not is_hermitian(m):
        return False
    if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
        return False
    return bool(np.min(np.linalg.eigvalsh(m)) >= EIGVAL_FLOOR)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the fixed HH, HV, VH, VV layout.

    ``tensor(a, b)[2i+k, 2j+l] == a[i, j] * b[k, l]``: the first factor is
    the first photon.  Those products, broadcast and reshaped, are
    ``np.kron``'s bit for bit, without its per-call overhead.  Works on
    stacks, broadcast over the leading axes.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    t = a[..., :, None, :, None] * b[..., None, :, None, :]
    return t.reshape(t.shape[:-4] + (t.shape[-4] * t.shape[-3], t.shape[-2] * t.shape[-1]))


def joint_projectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The joint projectors (..., 4, 4, 4) of two photons' stacked (plus, minus)
    pairs (..., 2, 2, 2), in the outcome order (+,+), (+,-), (-,+), (-,-)."""
    joint = tensor(a[..., :, None, :, :], b[..., None, :, :, :])
    return joint.reshape(joint.shape[:-4] + (4, 4, 4))


def expectation(rhos: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The Born rule Re Tr[rho A] over broadcast stacks, as the trace of ``rhos @ ops``."""
    return np.trace(rhos @ ops, axis1=-2, axis2=-1).real


def herm_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``w`` real and sorted high-to-low and ``v``
    holding the matching eigenvectors as columns, so that
    ``m == v @ diag(w) @ v.conj().T`` to within 1e-8.  Works on a stack.
    """
    m = np.array(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("herm_eig: input is not Hermitian")
    w, v = np.linalg.eigh(m)
    return w[..., ::-1], v[..., ::-1]


def physical_spectrum(m: np.ndarray):
    """Spectrum of the physical state nearest a Hermitian matrix scaled to unit trace.

    The Smolin-Gambetta-Smith rule (PRL 108, 070502, 2012) gives the
    density matrix nearest in 2-norm: with the eigenvalues in descending
    order, walk up from the smallest, zeroing each one that stays negative
    after the mass already zeroed is spread evenly over the ones above it,
    then shift the survivors by that spread.  Returns ``(w, v)`` as
    ``herm_eig`` does: ``w`` descending and nonnegative with unit sum, each
    zeroed eigenvalue exactly 0.0, and ``v`` the eigenvectors of ``m`` as
    columns.  Raises if the trace is not positive, which covers a spectrum
    with no positive eigenvalue mass, for any matrix of a stack.
    """
    w, v = herm_eig(m)
    total = w.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("unphysical reconstruction: trace is not positive")
    w = w / total
    dim = w.shape[-1]
    zeroed = np.zeros_like(total)      # eigenvalue mass zeroed so far
    kept = np.full(total.shape, dim)   # the leading `kept` eigenvalues survive
    # With unit trace the largest eigenvalue always survives.
    for i in range(dim - 1, 0, -1):
        drop = (kept == i + 1) & (w[..., i:i + 1] + zeroed / (i + 1) < 0.0)
        zeroed = zeroed + np.where(drop, w[..., i:i + 1], 0.0)
        kept = kept - drop
    return np.where(np.arange(dim) < kept, w + zeroed / kept, 0.0), v


def nearest_physical(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The density matrix of the spectrum ``(w, v)`` that ``physical_spectrum(m)``
    returns: the physical state nearest ``m`` scaled to unit trace.

    It is ``v diag(w) v^dagger``, made exactly Hermitian; a PSD ``m`` comes
    back unchanged (up to the trace scaling).  Works on a stack.
    """
    rho = (v * w[..., None, :]) @ dagger(v)
    return (rho + dagger(rho)) / 2.0
