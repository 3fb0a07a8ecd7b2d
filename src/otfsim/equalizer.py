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

Every scheme's precoding and every user map but Gaussian spreading is
unitary, so the Monte-Carlo runner's joint LMMSE is :func:`band_filter` on
each time-domain block (a slot in ``per_slot_cp`` mode, the frame in
``cyclic`` mode), whose channel is periodic-banded (``channel.delay_band``),
then the per-slot DFT and the map's adjoint.  Gaussian spreading and ML
read the grid through ``channel.slot_operators``; :func:`mmse_filter` of
those blocks and :func:`mmse_dd` are the references tests compare to.

:func:`band_filter`, :func:`mmse_filter` and :func:`mmse_dd` share one
singular-Gram rule (``_solve``): only a frame whose own Gram fails takes
the pseudo-inverse.
"""

from __future__ import annotations

import numpy as np

from .channel import EFFECTIVE_GUARD
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
    own filter.  The Gram inverses are solved against the identity, and
    only an operator whose own Gram is singular takes the pseudo-inverse
    (see :func:`band_filter`).
    """
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    h_adj = h_eff.swapaxes(-1, -2).conj()
    gram = h_eff @ h_adj + noise_var * np.eye(h_eff.shape[-2])
    stack = gram.reshape(-1, *gram.shape[-2:])
    inv = _solve(stack, np.broadcast_to(np.eye(gram.shape[-1]), stack.shape))
    return h_adj @ inv.reshape(gram.shape)


def band_gram(band: np.ndarray, noise_var: float) -> np.ndarray:
    """The Gram A A^H + noise_var I of periodic-banded blocks: (..., blocks, B, B).

    ``band`` (..., L, blocks, B), L <= B, holds the blocks' delay diagonals,
    A[p, (p - l) mod B] = band[..., l, b, p] (``channel.delay_band``).  Gram
    diagonal d, at (p, (p - d) mod B), sums band_l[p] * conj(band_m[p - d])
    over l - m = d: L^2 vectorised products, never a dense product.
    """
    L, B = band.shape[-3], band.shape[-1]
    p = np.arange(B)
    conj = band.conj()
    gram = np.zeros((*band.shape[:-3], band.shape[-2], B * B), dtype=np.complex128)
    gram[..., p * (B + 1)] = noise_var
    for d in range(1 - L, L):
        late = np.roll(conj, d, axis=-1)  # conj(band) delayed by d round each block
        gram[..., p * B + (p - d) % B] += sum(
            band[..., l, :, :] * late[..., l - d, :, :] for l in range(max(0, d), L + min(0, d))
        )
    return gram.reshape(*gram.shape[:-1], B, B)


def band_filter(band: np.ndarray, noise_var: float):
    """The LMMSE of periodic-banded blocks, y -> A^H (A A^H + noise_var I)^-1 y.

    A ``band`` (L, blocks, B) serves every frame of y (..., blocks, B), and
    its Gram inverse is formed once.  A ``band`` (T, L, blocks, B) gives
    frame t of y (T, blocks, B) its own blocks: the Grams of as many frames
    as fit ``EFFECTIVE_GUARD**2`` entries (one at least) are solved in one
    call, a call that raises or returns non-finite values is redone frame by
    frame, and only a frame whose own solve fails takes the pseudo-inverse.
    """
    if band.ndim == 3:  # the inverse, solved against the identity
        inv = _solve(band_gram(band[None], noise_var), np.eye(band.shape[-1]))[0]
    else:
        per = max(1, EFFECTIVE_GUARD**2 // (band[0, 0].size * band.shape[-1]))

    def equalize(y):
        if band.ndim == 3:
            z = (inv @ y[..., None])[..., 0]
        else:
            z = np.concatenate([
                _solve(band_gram(band[a:a + per], noise_var), y[a:a + per, ..., None])[..., 0]
                for a in range(0, len(y), per)
            ])
        # A^H z: sample p - l of a block takes conj(band_l[p]) * z[p]
        return sum(
            np.roll(band[..., l, :, :].conj() * z, -l, axis=-1) for l in range(band.shape[-3])
        )

    return equalize


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs for a stack of frames on axis 0: (T, ..., B, B) against (T, ..., B, k)."""
    try:
        z = np.linalg.solve(gram, rhs)
        if np.all(np.isfinite(z)):
            return z
    except np.linalg.LinAlgError:
        pass
    if len(gram) > 1:  # redo frame by frame
        return np.concatenate([_solve(gram[t:t + 1], rhs[t:t + 1]) for t in range(len(gram))])
    return np.linalg.pinv(gram) @ rhs


def mmse_dd(y: np.ndarray, h_eff: np.ndarray, noise_var: float) -> np.ndarray:
    """Linear MMSE estimate x_hat = H^H (H H^H + noise_var I)^-1 y.

    For unit-energy i.i.d. symbols.  A singular Gram matrix (possible only
    at zero noise) takes the pseudo-inverse, as in :func:`band_filter`.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    if h_eff.ndim != 2 or h_eff.shape[0] != y.size:
        raise ValueError(f"operator shape {h_eff.shape} incompatible with y length {y.size}")
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    gram = h_eff @ h_eff.conj().T + noise_var * np.eye(h_eff.shape[0])
    return h_eff.conj().T @ _solve(gram[None], y[None, :, None])[0, :, 0]


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
    return constellation.points[idx[best]]  # a copy, not a view of the candidate table
