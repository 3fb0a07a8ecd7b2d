"""Modulator/demodulator pairs for the four waveform schemes.

All four schemes share the same slot synthesis (unitary per-slot inverse
DFT plus optional cyclic prefix); they differ only in the precoding
applied to the payload grid before synthesis:

* ``OTFS``    — payload on the (N, M) delay-Doppler grid, spread over the
  whole frame by the unitary lattice transform.
* ``OSTF``    — payload directly on the (M, N) time-frequency grid (equal
  to OTFS with the lattice DFT factors replaced by identity).
* ``OFDM``    — one slot (N = 1), payload straight on the M subcarriers.
* ``SCFDMA``  — one slot (N = 1), payload DFT-precoded across the M
  subcarriers (single-carrier envelope).

OFDM is OSTF at N = 1, and SC-FDMA is OTFS at N = 1; the test suite pins
both reductions sample-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import FrameParams, TimeSignal
from .transforms import heisenberg, isfft, sfft, wigner

SCHEMES = ("OTFS", "OSTF", "OFDM", "SCFDMA")


@dataclass(frozen=True)
class SchemeConfig:
    """Waveform scheme bound to a frame geometry and prefix length.

    ``identity_isfft`` replaces the OTFS lattice transform with a bare
    transpose (payload placed directly on the time-frequency grid), the
    structural reduction that turns OTFS into OSTF.
    """

    scheme: str
    params: FrameParams
    cp_len: int = 0
    identity_isfft: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.scheme in ("OFDM", "SCFDMA") and self.params.N != 1:
            raise ValueError(f"{self.scheme} requires single-slot framing (N=1), got N={self.params.N}")
        if not 0 <= self.cp_len < self.params.M:
            raise ValueError(f"cp_len must be in [0, M), got {self.cp_len}")
        if self.identity_isfft and self.scheme != "OTFS":
            raise ValueError("identity_isfft only applies to OTFS")


def payload_shape(cfg: SchemeConfig) -> tuple:
    """Shape of the symbol grid the scheme carries (M*N entries always)."""
    M, N = cfg.params.M, cfg.params.N
    if cfg.scheme == "OTFS":
        return (N, M)
    if cfg.scheme == "OSTF":
        return (M, N)
    return (M,)


def tf_from_payload(cfg: SchemeConfig, symbols: np.ndarray) -> np.ndarray:
    """The scheme's precoding stage: payload grid -> (M, N) TF grid.

    Leading axes of ``symbols`` beyond the payload shape index a stack of
    frames and are kept.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    shape = payload_shape(cfg)
    if symbols.shape[symbols.ndim - len(shape):] != shape:
        raise ValueError(
            f"{cfg.scheme} payload must have shape {shape}, got {symbols.shape}"
        )
    if cfg.scheme == "OTFS":
        return symbols.swapaxes(-1, -2).copy() if cfg.identity_isfft else isfft(symbols)
    if cfg.scheme == "OSTF":
        return symbols
    if cfg.scheme == "OFDM":
        return symbols[..., None]
    return np.fft.fft(symbols, norm="ortho")[..., None]  # SCFDMA


def payload_from_tf(cfg: SchemeConfig, y_tf: np.ndarray) -> np.ndarray:
    """Inverse of the precoding stage: (..., M, N) TF grid -> payload grid."""
    y_tf = np.asarray(y_tf, dtype=np.complex128)
    if y_tf.shape[-2:] != (cfg.params.M, cfg.params.N):
        raise ValueError(
            f"expected TF grid {(cfg.params.M, cfg.params.N)}, got {y_tf.shape}"
        )
    if cfg.scheme == "OTFS":
        return y_tf.swapaxes(-1, -2).copy() if cfg.identity_isfft else sfft(y_tf)
    if cfg.scheme == "OSTF":
        return y_tf
    if cfg.scheme == "OFDM":
        return y_tf[..., 0]
    return np.fft.ifft(y_tf[..., 0], norm="ortho")  # SCFDMA


def modulate(cfg: SchemeConfig, symbols: np.ndarray) -> TimeSignal:
    """Map a payload grid to one block of time samples."""
    return heisenberg(tf_from_payload(cfg, symbols), cfg.params, cp_len=cfg.cp_len)


def demodulate(cfg: SchemeConfig, sig: TimeSignal) -> np.ndarray:
    """Recover the payload grid from one block of time samples (adjoint)."""
    return payload_from_tf(cfg, wigner(sig, cfg.params))
