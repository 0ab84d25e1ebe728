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


def as_complex(m) -> np.ndarray:
    """Return a fresh complex ndarray copy of ``m``."""
    return np.array(m, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(m).swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - dagger(m))) < tol)


def is_density(m: np.ndarray, herm_tol: float = HERMITIAN_TOL,
               trace_tol: float = TRACE_TOL,
               eig_floor: float = EIGVAL_FLOOR) -> bool:
    """Check the density-matrix invariants: Hermitian, unit trace, PSD."""
    m = np.asarray(m)
    if not is_hermitian(m, herm_tol):
        return False
    if abs(np.trace(m).real - 1.0) > trace_tol or abs(np.trace(m).imag) > trace_tol:
        return False
    return bool(np.min(np.linalg.eigvalsh(m)) >= eig_floor)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the fixed HH, HV, VH, VV layout.

    ``tensor(a, b)[2i+k, 2j+l] == a[i, j] * b[k, l]``: the first factor is
    the first photon.
    """
    return np.kron(as_complex(a), as_complex(b))


def partial_trace(rho: np.ndarray, subsystem: int, check: bool = True) -> np.ndarray:
    """Trace out one photon of a two-photon operator.

    ``subsystem`` names the photon that is removed (1 = first, 2 = second),
    so ``partial_trace(tensor(a, b), 2) == a * trace(b)``.

    With ``check=True`` (the default) the input must satisfy the density
    invariants; pass ``check=False`` for general operators.
    """
    rho = as_complex(rho)
    if rho.shape != (4, 4):
        raise ValueError("partial_trace expects a 4x4 matrix")
    if subsystem not in (1, 2):
        raise ValueError("subsystem must be 1 or 2")
    if check and not is_density(rho):
        raise ValueError("partial_trace: input is not a valid density matrix")
    r = rho.reshape(2, 2, 2, 2)  # [a, b, a', b']
    if subsystem == 1:
        return np.einsum("abad->bd", r)
    return np.einsum("abcb->ac", r)


def herm_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``w`` real and sorted high-to-low and ``v``
    holding the matching eigenvectors as columns, so that
    ``m == v @ diag(w) @ v.conj().T`` to within 1e-8.  Works on a stack.
    """
    m = as_complex(m)
    if not is_hermitian(m):
        raise ValueError("herm_eig: input is not Hermitian")
    w, v = np.linalg.eigh(m)
    return w[..., ::-1], v[..., ::-1]


def nearest_physical(m: np.ndarray) -> np.ndarray:
    """Project a Hermitian, unit-trace matrix onto the physical cone.

    Eigendecompose, clip negative eigenvalues to zero and renormalize the
    trace to exactly 1.  A matrix that is already PSD passes through
    unchanged (up to the trace renormalization).  Raises if the whole
    spectrum clips away, for any matrix of a stack.
    """
    w, v = herm_eig(m)
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("unphysical reconstruction: no positive eigenvalue mass")
    w = w / total
    rho = (v * w[..., None, :]) @ dagger(v)
    return (rho + dagger(rho)) / 2.0


def mat_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs (the CLI wire format)."""
    m = as_complex(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def mat_from_json(data) -> np.ndarray:
    """Inverse of :func:`mat_to_json`."""
    return np.array([[complex(re, im) for re, im in row] for row in data],
                    dtype=complex)
