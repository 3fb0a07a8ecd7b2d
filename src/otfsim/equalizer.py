"""Equalization and detection.

Three detectors, in increasing order of cost:

* :func:`one_tap_tf` — per-cell scalar MMSE on the time-frequency grid,
  the classic multicarrier equalizer (exact when the channel is diagonal
  on the grid, interference-blind otherwise).
* :func:`mmse_dd` — linear MMSE against a full composed operator;
  :func:`mmse_filter` builds the same estimator as a matrix, or as a
  stack of them.
* :func:`ml_detect` — exhaustive maximum-likelihood search, guarded to
  tiny problems; the error-rate floor other detectors are compared to.

The Monte-Carlo runner equalizes the time-frequency grid with
``mmse_filter(channel.slot_operators(ch, params, mode), noise_var)``: N
per-slot M x M filters in ``per_slot_cp`` mode, one MN x MN filter in
``cyclic`` mode.  Every scheme's precoding and every user map but Gaussian
spreading is unitary, so that filter followed by the map's adjoint is the
joint LMMSE.  The dense :func:`mmse_dd` is the reference tests compare to.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardError
from .metrics import Constellation

#: largest bit count (symbols * bits/symbol) ml_detect will enumerate
ML_GUARD_BITS = 16


def one_tap_tf(y_tf: np.ndarray, h_tf: np.ndarray, noise_var: float) -> np.ndarray:
    """Scalar MMSE per grid cell: conj(H)*Y / (|H|^2 + noise_var).

    ``y_tf`` may be a stack of grids that share the response ``h_tf``
    (whose shape must end ``y_tf``'s).  With ``noise_var == 0`` this is
    zero-forcing and every cell gain must be nonzero.
    """
    y_tf = np.asarray(y_tf, dtype=np.complex128)
    h_tf = np.asarray(h_tf, dtype=np.complex128)
    if h_tf.ndim > y_tf.ndim or y_tf.shape[y_tf.ndim - h_tf.ndim:] != h_tf.shape:
        raise ValueError(f"grid shapes differ: {y_tf.shape} vs {h_tf.shape}")
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    if noise_var == 0 and np.any(h_tf == 0):
        raise ZeroDivisionError("zero channel gain with zero noise variance")
    return h_tf.conj() * y_tf / (np.abs(h_tf) ** 2 + noise_var)


def mmse_filter(h_eff: np.ndarray, noise_var: float) -> np.ndarray:
    """The LMMSE matrix W = H^H (H H^H + noise_var I)^-1 (precomputable).

    ``h_eff`` may be a stack (..., rows, cols) of operators; each gets its
    own filter.  If any Gram matrix is singular the whole stack falls back
    to the pseudo-inverse.
    """
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    h_adj = h_eff.swapaxes(-1, -2).conj()
    gram = h_eff @ h_adj + noise_var * np.eye(h_eff.shape[-2])
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(gram)
    return h_adj @ inv


def mmse_dd(
    y: np.ndarray,
    h_eff: np.ndarray,
    noise_var: float,
    return_info: bool = False,
):
    """Linear MMSE estimate x_hat = H^H (H H^H + noise_var I)^-1 y.

    For unit-energy i.i.d. symbols.  A singular Gram matrix (possible only
    at zero noise) falls back to the pseudo-inverse; ``return_info=True``
    additionally returns ``{"used_pinv": bool}`` reporting that fallback.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    if h_eff.ndim != 2 or h_eff.shape[0] != y.size:
        raise ValueError(f"operator shape {h_eff.shape} incompatible with y length {y.size}")
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    gram = h_eff @ h_eff.conj().T + noise_var * np.eye(h_eff.shape[0])
    used_pinv = False
    try:
        sol = np.linalg.solve(gram, y)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(gram) @ y
        used_pinv = True
    x_hat = h_eff.conj().T @ sol
    if return_info:
        return x_hat, {"used_pinv": used_pinv}
    return x_hat


def ml_detect(y: np.ndarray, h_eff: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Exhaustive maximum-likelihood detection over the full symbol grid.

    Minimises ||y - H c|| over every candidate symbol vector; ties break
    to the lowest candidate index (candidates enumerated with the first
    symbol most significant).  Refuses problems with more than
    ``ML_GUARD_BITS`` total bits.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    n = h_eff.shape[1]
    total_bits = n * constellation.bits_per_symbol
    if total_bits > ML_GUARD_BITS:
        raise GuardError(
            f"ML search over {total_bits} bits exceeds guard {ML_GUARD_BITS}"
        )
    Q = constellation.size
    grids = np.meshgrid(*([np.arange(Q)] * n), indexing="ij")
    idx = np.stack([g.reshape(-1) for g in grids], axis=1)  # (Q^n, n), lexicographic
    cands = constellation.points[idx]  # (Q^n, n)
    resid = y[None, :, None] - h_eff[None, :, :] @ cands[:, :, None]
    cost = np.sum(np.abs(resid[:, :, 0]) ** 2, axis=1)
    best = int(np.argmin(cost))  # argmin keeps the first (lowest) index on ties
    return cands[best]
