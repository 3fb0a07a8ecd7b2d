"""Reference operators built the obvious way: the oracles of the closed forms.

:func:`chain_matrix` probes a linear chain one unit impulse at a time;
:func:`effective_matrix` and :func:`coupling_tensor` probe the real
modulate -> channel -> demodulate chain, and :func:`tf_channel_factored`
multiplies dense DFT and embedding matrices.  The runner never calls them.
"""

from __future__ import annotations

import numpy as np

from . import modem
from .channel import EFFECTIVE_GUARD, DDChannelSpec, apply_channel, check_taps
from .errors import GuardError
from .frame import FrameParams, MappingMatrix
from .transforms import dft_matrix

#: refuse to build coupling tensors above this many grid points
COUPLING_GUARD = 512


def chain_matrix(tx, rx, dim: int) -> np.ndarray:
    """Matrix of the linear map rx(channel(tx(e_c))) over all unit impulses.

    ``tx`` maps a length-``dim`` coefficient vector to a TimeSignal (or
    anything ``rx`` accepts); ``rx`` maps it back to a coefficient vector.
    The caller bakes the channel into one of the two closures.  Refuses
    operators with more than ``EFFECTIVE_GUARD`` input points before any
    probe runs.
    """
    if dim > EFFECTIVE_GUARD:
        raise GuardError(
            f"probed operator on {dim} points exceeds guard {EFFECTIVE_GUARD}"
        )
    cols = []
    e = np.zeros(dim, dtype=np.complex128)
    for c in range(dim):
        e[c] = 1.0
        # a copy: rx(tx(e)) may be a view of the probe, which is reset below
        cols.append(np.array(rx(tx(e)), dtype=np.complex128).reshape(-1))
        e[c] = 0.0
    return np.column_stack(cols)


def effective_matrix(cfg, ch: DDChannelSpec, mode: str = "cyclic") -> np.ndarray:
    """Composed end-to-end operator of modulate -> channel -> demodulate.

    Ground-truth numerical construction: each unit impulse on the scheme's
    input grid is pushed through the real chain (noiseless) and the
    responses are collected as columns.  Input/output vectorization is
    row-major over the scheme's grid — for the delay-Doppler schemes that
    is (doppler, delay) order.

    ``cfg`` is a :class:`~otfsim.modem.SchemeConfig`; :func:`chain_matrix`
    refuses grids larger than ``EFFECTIVE_GUARD`` points.
    """
    params = cfg.params
    shape = modem.payload_shape(cfg)

    def tx(v):
        return modem.modulate(cfg, v.reshape(shape))

    def rx(sig):
        return modem.demodulate(cfg, apply_channel(sig, ch, params, 0.0, None, mode))

    return chain_matrix(tx, rx, params.dof)


def coupling_tensor(
    ch: DDChannelSpec,
    params: FrameParams,
    cp_len: int | None = None,
    mode: str = "per_slot_cp",
) -> np.ndarray:
    """Cross-symbol coupling H[m, n, m', n'] between lattice basis pulses.

    Entry (m, n, m', n') is the response on receive pulse (m, n) to a unit
    transmit pulse at (m', n'): OSTF places its payload on the basis
    pulses, so this is OSTF's :func:`effective_matrix`, reshaped.  By
    linearity, contracting the tensor with any transmit grid reproduces
    the chain's receive grid exactly.

    Diagnostic (cost grows as (M*N)^2 * M): refuses frames larger than
    ``COUPLING_GUARD`` points.  ``cp_len`` defaults to the smallest prefix
    covering the channel in per-slot mode, 0 in cyclic mode.
    """
    check_taps(ch, params)
    if params.dof > COUPLING_GUARD:
        raise GuardError(
            f"coupling tensor for {params.dof} grid points exceeds guard {COUPLING_GUARD}"
        )
    if cp_len is None:
        cp_len = 0 if mode == "cyclic" else max(t.delay_bin for t in ch.taps)
    cfg = modem.SchemeConfig("OSTF", params, cp_len)
    return effective_matrix(cfg, ch, mode).reshape(params.M, params.N, params.M, params.N)


def tf_channel_factored(ch: DDChannelSpec, params: FrameParams) -> np.ndarray:
    """Time-frequency response built as sqrt(M*N) * F_M @ G @ F_N^H.

    G is the sparse M x N grid of twisted gains, gain * exp(-2j*pi*l*k/(M*N))
    with the delay-Doppler cross phase folded in, placed via identity-column
    embeddings at (delay bin, doppler bin mod N).  Requires M >= L_max and
    N >= V_max so the distinct taps occupy distinct grid cells.
    """
    check_taps(ch, params)
    if params.M < ch.L_max:
        raise ValueError(f"M={params.M} < delay spread {ch.L_max}")
    if params.N < ch.V_max:
        raise ValueError(f"N={params.N} < Doppler spread {ch.V_max}")
    delays = sorted({t.delay_bin for t in ch.taps})
    rows = sorted({t.doppler_bin % params.N for t in ch.taps})
    small = np.zeros((len(delays), len(rows)), dtype=np.complex128)
    for l, k, g in ch.taps:
        twisted = g * np.exp(-2j * np.pi * l * k / params.dof)
        small[delays.index(l), rows.index(k % params.N)] += twisted
    P_delay = MappingMatrix(params.M, tuple(delays)).dense()
    P_doppler = MappingMatrix(params.N, tuple(rows)).dense()
    G = P_delay @ small @ P_doppler.T
    F_M = dft_matrix(params.M)
    F_N = dft_matrix(params.N)
    return np.sqrt(params.dof) * (F_M @ G @ F_N.conj().T)
