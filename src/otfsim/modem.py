"""Modulator/demodulator pairs for the four waveform schemes.

All four schemes share the same slot synthesis (unitary per-slot inverse
DFT plus optional cyclic prefix); they differ only in the precoding
applied to the payload grid before synthesis, and there are two:

* ``OTFS``    — payload on the (N, M) delay-Doppler grid, spread over the
  whole frame by the unitary lattice transform (ISFFT).
* ``OSTF``    — payload directly on the (M, N) time-frequency grid.
* ``SCFDMA``  — OTFS with one slot (N = 1): the ISFFT of a (1, M) grid is
  the M-point DFT precoding of single-carrier FDMA.
* ``OFDM``    — OSTF with one slot (N = 1), payload straight on the M
  subcarriers.

OTFS embeds OSTF: modulating x with OTFS is modulating ``isfft(x)`` with
OSTF.  The one-slot schemes carry their payload as a length-M vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import FrameParams, TimeSignal
from .transforms import heisenberg, isfft, sfft, wigner

SCHEMES = ("OTFS", "OSTF", "OFDM", "SCFDMA")


@dataclass(frozen=True)
class SchemeConfig:
    """Waveform scheme bound to a frame geometry and prefix length."""

    scheme: str
    params: FrameParams
    cp_len: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.scheme in ("OFDM", "SCFDMA") and self.params.N != 1:
            raise ValueError(f"{self.scheme} requires single-slot framing (N=1), got N={self.params.N}")
        if not 0 <= self.cp_len < self.params.M:
            raise ValueError(f"cp_len must be in [0, M), got {self.cp_len}")


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

    OTFS and SC-FDMA take the payload as an (N, M) delay-Doppler grid
    through the ISFFT; OSTF and OFDM place it on the grid as it is.
    Leading axes of ``symbols`` beyond the payload shape index a stack of
    frames and are kept.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    shape = payload_shape(cfg)
    lead = symbols.shape[: symbols.ndim - len(shape)]
    if symbols.shape[len(lead):] != shape:
        raise ValueError(
            f"{cfg.scheme} payload must have shape {shape}, got {symbols.shape}"
        )
    M, N = cfg.params.M, cfg.params.N
    if cfg.scheme in ("OTFS", "SCFDMA"):
        return isfft(symbols.reshape(*lead, N, M))
    return symbols.reshape(*lead, M, N)


def payload_from_tf(cfg: SchemeConfig, y_tf: np.ndarray) -> np.ndarray:
    """Inverse of the precoding stage: (..., M, N) TF grid -> payload grid."""
    y_tf = np.asarray(y_tf, dtype=np.complex128)
    if y_tf.shape[-2:] != (cfg.params.M, cfg.params.N):
        raise ValueError(
            f"expected TF grid {(cfg.params.M, cfg.params.N)}, got {y_tf.shape}"
        )
    if cfg.scheme in ("OTFS", "SCFDMA"):
        y_tf = sfft(y_tf)
    return y_tf.reshape(*y_tf.shape[:-2], *payload_shape(cfg))


def modulate(cfg: SchemeConfig, symbols: np.ndarray) -> TimeSignal:
    """Map a payload grid to one block of time samples."""
    return heisenberg(tf_from_payload(cfg, symbols), cfg.params, cp_len=cfg.cp_len)


def demodulate(cfg: SchemeConfig, sig: TimeSignal) -> np.ndarray:
    """Recover the payload grid from one block of time samples (adjoint)."""
    return payload_from_tf(cfg, wigner(sig, cfg.params))
