"""Unitary lattice transforms connecting the three signal domains.

Normalization is fixed and unitary everywhere:

* n-point DFT matrix  F[a, b] = exp(-2j*pi*a*b/n) / sqrt(n)
* delay-Doppler -> time-frequency:  X = F_M @ x_dd.T @ F_N^H, i.e.
  X[m, n] = (1/sqrt(M*N)) * sum_{k,l} x_dd[k, l] * exp(2j*pi*(n*k/N - m*l/M))
* time-frequency -> time: per-slot unitary inverse DFT of each column,
  s[n*M + p] = (1/sqrt(M)) * sum_m X[m, n] * exp(2j*pi*m*p/M),
  optionally with a per-slot cyclic prefix prepended
* the receive side applies the exact adjoints, so every round trip is an
  identity and Parseval holds at machine precision.
* delay-Doppler -> time: the ISFFT's delay DFT cancels the per-slot inverse
  DFT, leaving one inverse DFT across slots at each delay (``dd_synthesis``).

Every transform also takes a stack of grids or frames: leading axes index
independent frames and the maps act on the last axes, so one call serves
a chunk of Monte-Carlo trials.  The transforms the runner calls on every
chunk take an optional ``out`` of the result's shape, which they fill and
return (the samples of a synthesised TimeSignal); each FFT runs line by
line, so the values do not depend on where they are written, and ``out``
may be the input itself.

The FFT-backed fast paths (numpy, norm="ortho") implement the same
matrices; the test suite checks them against direct double-sum
evaluation.
"""

from __future__ import annotations

import numpy as np

from .frame import FrameParams, TimeSignal


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix, F[a,b] = exp(-2j*pi*a*b/n)/sqrt(n)."""
    if n < 1:
        raise ValueError(f"DFT size must be >= 1, got {n}")
    a = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)


def isfft(x_dd: np.ndarray) -> np.ndarray:
    """Map an (..., N, M) delay-Doppler grid to the (..., M, N) time-frequency grid.

    Computes F_M @ x_dd.T @ F_N^H with unitary DFT factors.
    """
    x_dd = np.asarray(x_dd, dtype=np.complex128)
    if x_dd.ndim < 2:
        raise ValueError(f"expected 2-D delay-Doppler grid, got shape {x_dd.shape}")
    xt = x_dd.swapaxes(-1, -2)  # (..., M, N)
    out = np.fft.fft(xt, axis=-2, norm="ortho")
    out = np.fft.ifft(out, axis=-1, norm="ortho")
    return out


def sfft(x_tf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map an (..., M, N) time-frequency grid to the (..., N, M) delay-Doppler grid.

    Exact inverse (adjoint) of :func:`isfft`.
    """
    x_tf = np.asarray(x_tf, dtype=np.complex128)
    if x_tf.ndim < 2:
        raise ValueError(f"expected 2-D time-frequency grid, got shape {x_tf.shape}")
    tf = np.fft.ifft(x_tf, axis=-2, norm="ortho", out=None if out is None else out.swapaxes(-1, -2))
    return np.fft.fft(tf, axis=-1, norm="ortho", out=tf).swapaxes(-1, -2)


def heisenberg(
    x_tf: np.ndarray, params: FrameParams, cp_len: int = 0, out: np.ndarray | None = None
) -> TimeSignal:
    """Synthesise the time signal for an (..., M, N) time-frequency grid.

    Each slot (column) becomes M body samples via the unitary inverse DFT;
    ``cp_len`` samples copied from the slot tail are prepended per slot.
    """
    x_tf = np.asarray(x_tf, dtype=np.complex128)
    if x_tf.shape[-2:] != (params.M, params.N):
        raise ValueError(f"expected TF grid {(params.M, params.N)}, got {x_tf.shape}")
    slots = _slots(x_tf.shape[:-2], params, cp_len, out)  # (..., N, cp + M): rows = slots
    np.fft.ifft(x_tf, axis=-2, norm="ortho", out=slots[..., cp_len:].swapaxes(-1, -2))
    return _slot_signal(slots, params, cp_len)


def dd_synthesis(
    x_dd: np.ndarray, params: FrameParams, cp_len: int = 0, out: np.ndarray | None = None
) -> TimeSignal:
    """``heisenberg(isfft(x_dd))`` of an (..., N, M) delay-Doppler grid, in one transform:
    s[n*M + p] = (1/sqrt(N)) * sum_k x_dd[k, p] * exp(2j*pi*n*k/N).
    """
    x_dd = np.asarray(x_dd, dtype=np.complex128)
    if x_dd.shape[-2:] != (params.N, params.M):
        raise ValueError(f"expected DD grid {(params.N, params.M)}, got {x_dd.shape}")
    slots = _slots(x_dd.shape[:-2], params, cp_len, out)
    np.fft.ifft(x_dd, axis=-2, norm="ortho", out=slots[..., cp_len:])
    return _slot_signal(slots, params, cp_len)


def dd_analysis(body: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sfft(wigner(...))`` of (..., N, M) slot bodies: the adjoint of :func:`dd_synthesis`."""
    return np.fft.fft(body, axis=-2, norm="ortho", out=out)


def _slots(lead: tuple, params: FrameParams, cp_len: int, out: np.ndarray | None) -> np.ndarray:
    """The (..., N, cp_len + M) slots of the frames ``out`` (..., N*(cp_len + M)), or new ones."""
    if not 0 <= cp_len < params.M:
        raise ValueError(f"cp_len must be in [0, M), got {cp_len}")
    shape = (*lead, params.N, cp_len + params.M)
    return np.empty(shape, dtype=np.complex128) if out is None else out.reshape(shape)


def _slot_signal(slots: np.ndarray, params: FrameParams, cp_len: int) -> TimeSignal:
    """The TimeSignal of (..., N, cp_len + M) slots whose bodies are written: each is
    led by a copy of its last ``cp_len`` samples."""
    slots[..., :cp_len] = slots[..., params.M:]
    return TimeSignal(
        samples=slots.reshape(*slots.shape[:-2], -1),
        cp_len=cp_len,
        sample_rate=params.bandwidth,
        num_slots=params.N,
    )


def wigner(sig: TimeSignal, params: FrameParams) -> np.ndarray:
    """Matched-filter bank: recover the (..., M, N) time-frequency grid.

    Drops each slot's cyclic prefix and applies the unitary forward DFT —
    the exact adjoint of :func:`heisenberg` on the body samples.
    """
    if sig.num_slots != params.N or sig.body_len != params.M:
        raise ValueError(
            f"signal geometry (slots={sig.num_slots}, body={sig.body_len}) "
            f"does not match frame (N={params.N}, M={params.M})"
        )
    return np.fft.fft(sig.slot_bodies, axis=-1, norm="ortho").swapaxes(-1, -2)


def slot_dft(body: np.ndarray, params: FrameParams, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary DFT of each slot of (..., N*M) body samples: (..., N, M), wigner's transpose."""
    body = body.reshape(*body.shape[:-1], params.N, params.M)
    return np.fft.fft(body, axis=-1, norm="ortho", out=out)


def basis_waveform(m: int, n: int, params: FrameParams, cp_len: int = 0) -> TimeSignal:
    """Time-frequency basis pulse: subcarrier m in slot n, zero elsewhere.

    Unit energy over its body samples; equals ``heisenberg`` applied to a
    unit impulse at grid position (m, n).
    """
    if not 0 <= m < params.M:
        raise ValueError(f"subcarrier index {m} out of range [0, {params.M})")
    if not 0 <= n < params.N:
        raise ValueError(f"slot index {n} out of range [0, {params.N})")
    grid = np.zeros((params.M, params.N), dtype=np.complex128)
    grid[m, n] = 1.0
    return heisenberg(grid, params, cp_len=cp_len)


def ambiguity(delay_samples: int, doppler_bins: int, params: FrameParams) -> complex:
    """Cross-ambiguity of the rectangular pulse pair at a lattice offset.

    Correlates the unit-energy rectangular slot pulse against itself
    shifted by ``delay_samples`` and modulated by ``doppler_bins`` Doppler
    bins (one bin = 1/(N*T) Hz = a phase step of 2*pi*k/(M*N) per sample):

        A(l, k) = sum_p g[p - l] * g[p] * exp(2j*pi*k*p/(M*N))

    Diagnostic only: quantifies how far the rectangular pair is from the
    ideal bi-orthogonality (A = 1 at the origin, 0 at every other lattice
    point would be the ideal pulse).
    """
    M = params.M
    l = int(delay_samples)
    k = int(doppler_bins)
    if abs(l) >= M:
        return 0.0 + 0.0j
    p = np.arange(max(0, l), M + min(0, l))  # overlap of [0,M) and [l, M+l)
    phase = np.exp(2j * np.pi * k * p / (M * params.N))
    return complex(np.sum(phase) / M)
