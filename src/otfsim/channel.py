"""Doubly-selective channels on the delay-Doppler lattice.

A channel is a sparse set of taps (delay_bin, doppler_bin, gain).  Two
discrete application modes are provided:

``cyclic``
    The whole block (no prefixes) is treated as one period: delay shifts
    wrap modulo M*N samples and the Doppler phase ramp runs over the
    block.  This is the mode under which the delay-Doppler input-output
    relation is an exact twisted circular convolution, so it is the mode
    the operator-level oracles use.

``per_slot_cp``
    Practical mode: the transmitted stream carries a cyclic prefix per
    slot, delays act linearly on the stream, and every delay bin must
    fit inside the prefix.  The Doppler phase clock advances over body
    samples only and holds at the slot's first body index during the
    prefix (the prefix samples are discarded by the receiver, so only
    their role as a delay reservoir matters).

Both modes implement, on body samples,

    r[s] = sum_taps gain * x[s - l] * exp(2j*pi*k*(s - l)/(M*N)) + noise

with s the body-sample index.  :func:`delay_band` holds this channel as its
L_max delay diagonals; :func:`apply_channel` builds them one delay at a time
and :func:`tf_channel` their first column, each with a gain set per frame.
:func:`band_blocks` scatters them into the dense time-domain blocks, which
:func:`slot_operators` sees through the per-slot DFT (the OFDM/OSTF view)
and :func:`dd_domain_operator` through the Doppler DFT (the OTFS view).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GuardError
from .frame import FrameParams, MappingMatrix, TimeSignal
from .transforms import dft_matrix, heisenberg, wigner

#: refuse to build coupling tensors above this many grid points
COUPLING_GUARD = 512
#: refuse dense operators (probed, or built for cyclic mode) above this many points
EFFECTIVE_GUARD = 4096
#: scenario parsing refuses frames with more grid points (M*N) than this
FRAME_GUARD = 1 << 20


class ChannelTap(NamedTuple):
    delay_bin: int
    doppler_bin: int
    gain: complex


@dataclass(frozen=True)
class DDChannelSpec:
    """Sparse delay-Doppler channel: a tuple of (delay, Doppler, gain) taps."""

    taps: tuple

    def __post_init__(self):
        taps = tuple(ChannelTap(int(l), int(k), complex(g)) for (l, k, g) in self.taps)
        object.__setattr__(self, "taps", taps)
        if not taps:
            raise ValueError("channel must have at least one tap")
        seen = set()
        for t in taps:
            if t.delay_bin < 0:
                raise ValueError(f"delay bin must be >= 0, got {t.delay_bin}")
            if (t.delay_bin, t.doppler_bin) in seen:
                raise ValueError(f"duplicate tap position {(t.delay_bin, t.doppler_bin)}")
            seen.add((t.delay_bin, t.doppler_bin))

    @property
    def L_max(self) -> int:
        """Delay spread in bins: 1 + largest delay bin."""
        return 1 + max(t.delay_bin for t in self.taps)

    @property
    def V_max(self) -> int:
        """Doppler spread in bins: 1 + largest |doppler bin|."""
        return 1 + max(abs(t.doppler_bin) for t in self.taps)


def received_power(ch: DDChannelSpec) -> float:
    """Total tap power sum_i |gain_i|^2."""
    return float(sum(abs(t.gain) ** 2 for t in ch.taps))


def random_channel(
    L_max: int,
    V_max: int,
    rng: np.random.Generator,
    power_profile="uniform",
) -> DDChannelSpec:
    """Draw a random channel on the full delay x Doppler tap grid.

    Taps cover delay bins [0, L_max) and Doppler bins (-V_max, V_max)
    (centered on zero), gains i.i.d. circular complex Gaussian weighted
    by ``power_profile`` and rescaled so the realised received power is
    exactly 1.

    ``power_profile`` is ``"uniform"`` or a nonnegative array of shape
    (L_max, 2*V_max - 1) of relative tap powers.
    """
    if L_max < 1 or V_max < 1:
        raise ValueError(f"spreads must be >= 1, got L_max={L_max} V_max={V_max}")
    dopplers = np.arange(-(V_max - 1), V_max)
    shape = (L_max, dopplers.size)
    if isinstance(power_profile, str):
        if power_profile != "uniform":
            raise ValueError(f"unknown power profile {power_profile!r}")
        weights = np.full(shape, 1.0 / (shape[0] * shape[1]))
    else:
        weights = np.asarray(power_profile, dtype=float)
        if weights.shape != shape:
            raise ValueError(f"power profile shape {weights.shape} != tap grid {shape}")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("power profile must be nonnegative with positive sum")
        weights = weights / weights.sum()
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    g *= np.sqrt(weights / 2.0)
    g /= np.linalg.norm(g)
    taps = [
        (l, int(dopplers[j]), g[l, j])
        for l in range(L_max)
        for j in range(dopplers.size)
    ]
    return DDChannelSpec(taps=tuple(taps))


def check_taps(
    ch: DDChannelSpec, params: FrameParams, mode: str | None = None, cp_len: int = 0
) -> None:
    """Delays below M, Doppler bins within N/2 and, given a mode, its prefix rule.

    ``cyclic`` takes no prefix; in ``per_slot_cp`` every delay fits ``cp_len``.
    """
    for t in ch.taps:
        if t.delay_bin >= params.M:
            raise ValueError(f"delay bin {t.delay_bin} >= M={params.M}")
        if abs(t.doppler_bin) > params.N / 2:
            raise ValueError(f"|doppler bin| {abs(t.doppler_bin)} > N/2={params.N / 2}")
    if mode == "cyclic" and cp_len != 0:
        raise ConfigError("cyclic mode requires a prefix-free frame (cp_len == 0)")
    if mode == "per_slot_cp" and ch.L_max - 1 > cp_len:
        raise ConfigError(
            f"delay bin {ch.L_max - 1} exceeds cyclic prefix {cp_len} in per-slot mode"
        )
    if mode not in (None, "cyclic", "per_slot_cp"):
        raise ConfigError(f"unknown channel mode {mode!r}")


def draw_noise(rng: np.random.Generator, noise_var: float, size) -> tuple:
    """Complex AWGN as drawn from ``rng``: (real parts, imaginary parts).

    Two Gaussian draws of ``size`` samples each, real parts first, each of
    variance ``noise_var / 2``.
    """
    scale = np.sqrt(noise_var / 2.0)
    return rng.normal(scale=scale, size=size), rng.normal(scale=scale, size=size)


def apply_channel(
    sig: TimeSignal,
    ch: DDChannelSpec,
    params: FrameParams,
    noise_var: float = 0.0,
    rng: np.random.Generator | None = None,
    mode: str = "per_slot_cp",
    gains: np.ndarray | None = None,
    noise: tuple | None = None,
) -> TimeSignal:
    """Pass a time signal through the channel and add complex AWGN.

    ``noise_var`` is the per-complex-sample noise variance (split evenly
    between quadratures), drawn from ``rng`` by :func:`draw_noise`;
    ``noise`` instead adds a pre-drawn (real, imaginary) pair.  See the
    module docstring for the two modes.

    Delay l's row of :func:`delay_band`, built alone and read at the Doppler
    clock, weights the stream delayed by l (rolled or zero-filled by mode).

    ``sig`` may be a stack of frames (samples of shape (..., frame length)).
    ``gains`` of shape (..., taps) then gives each frame its own tap
    gains at the positions of ``ch``'s taps, in ``ch.taps`` order.
    """
    check_taps(ch, params, mode, sig.cp_len)
    if sig.num_slots != params.N or sig.body_len != params.M:
        raise ValueError("signal geometry does not match frame parameters")
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    if noise_var > 0 and rng is None:
        raise ValueError("rng required when noise_var > 0")
    if noise_var > 0 and noise is not None:
        raise ValueError("give noise_var or pre-drawn noise, not both")
    x = sig.samples
    if gains is not None and gains.shape != (*x.shape[:-1], len(ch.taps)):
        raise ValueError(f"gains of shape {gains.shape} do not match {len(ch.taps)} taps")
    l, k, g = _tap_arrays(ch, gains)
    S, L, total = params.dof, ch.L_max, x.shape[-1]
    # the Doppler clock, held at the slot's first body sample in its prefix
    q = np.maximum(0, np.arange(sig.slot_len) - sig.cp_len)
    clock = (np.arange(params.N)[:, None] * params.M + q).reshape(-1)
    # the stream led by the frame's tail (cyclic) or zeros (prefixed)
    lead = x[..., total - L + 1:] if mode == "cyclic" else np.zeros((*x.shape[:-1], L - 1))
    stream = np.concatenate([lead, x], axis=-1)
    r = np.zeros(x.shape, dtype=np.complex128)
    # one delay d (that carries taps) at a time: no temporary outgrows the stream stack
    for d in np.unique(l):
        at = l == d
        ramp = _doppler_ramps(0, k[at], g[..., at], (1, S))[..., 0, :]
        r += np.take(ramp, (clock - d) % S, axis=-1) * stream[..., L - 1 - d : L - 1 - d + total]

    if noise_var > 0:
        noise = draw_noise(rng, noise_var, r.shape)
    if noise is not None:
        r = r + noise[0] + 1j * noise[1]
    return replace(sig, samples=r)


# ---------------------------------------------------------------------------
# analytic channel views
# ---------------------------------------------------------------------------


def tf_channel(ch: DDChannelSpec, params: FrameParams, gains: np.ndarray | None = None):
    """Per-cell time-frequency response H[m, n] (..., M, N).

    H[m, n] = sum_taps gain * exp(-2j*pi*(m*l/M - n*k/N)) * exp(-2j*pi*l*k/(M*N))

    is the FFT over delay of :func:`delay_band`'s D[l, n, 0], the length-N
    inverse DFT of delay l's twisted gains; ``gains`` (..., taps) as there.
    Under the ideal-pulse approximation each grid cell sees the scalar
    gain H[m, n]; a delay-only channel is constant across slots and a
    Doppler-only channel constant across subcarriers.
    """
    check_taps(ch, params)
    l, k, g = _tap_arrays(ch, gains)
    twisted = g * np.exp(-2j * np.pi * l * k / params.dof)
    return np.fft.fft(_doppler_ramps(l, k, twisted, (params.M, params.N)), axis=-2)


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


def windowed_dd_channel(ch: DDChannelSpec, params: FrameParams) -> np.ndarray:
    """Delay-Doppler response seen through the full rectangular lattice window.

    The discretized window — a full M x N sum of lattice phases — equals
    M*N at lattice-aligned offsets and 0 elsewhere, so convolving the taps
    with it and applying the delay-Doppler cross phase collapses to

        h_w[k mod N, l] = M*N * gain * exp(-2j*pi*l*k/(M*N))

    at tap positions and 0 elsewhere.  Returned as an (N, M) grid indexed
    [doppler row, delay bin]; the cross phase uses the signed Doppler bin.
    Rows are keyed by k mod N, so for even N the bins -N/2 and +N/2 share
    row N/2 and their terms add there; :func:`dd_domain_operator` keeps
    them apart.
    """
    check_taps(ch, params)
    out = np.zeros((params.N, params.M), dtype=np.complex128)
    for l, k, g in ch.taps:
        out[k % params.N, l] += params.dof * g * np.exp(-2j * np.pi * l * k / params.dof)
    return out


def check_blocks(params: FrameParams, mode: str) -> None:
    """Refuse dense channel blocks above ``EFFECTIVE_GUARD**2`` entries, before allocation.

    That is the ``cyclic`` M*N x M*N block, or in ``per_slot_cp`` mode the
    N M x M slot blocks: N * M**2 entries.
    """
    size = params.dof**2 if mode == "cyclic" else params.N * params.M**2
    if size > EFFECTIVE_GUARD**2:
        raise GuardError(
            f"{mode} channel blocks of {size} entries exceed guard {EFFECTIVE_GUARD**2}"
        )


def _tap_arrays(ch: DDChannelSpec, gains: np.ndarray | None = None) -> tuple:
    """Arrays of the taps' delay bins, Doppler bins and gains (or ``gains``, (..., taps))."""
    l, k, g = (np.array(v) for v in zip(*ch.taps))
    if gains is not None and gains.shape[-1:] != g.shape:
        raise ValueError(f"gains of shape {gains.shape} do not match {g.size} taps")
    return l, k, g if gains is None else gains


def _doppler_ramps(rows, k, g, shape) -> np.ndarray:
    """Row r of (..., R, n): the sum of g * exp(2j*pi*k*s/n) over taps in row r, by one IFFT."""
    spectra = np.zeros((*g.shape[:-1], *shape), dtype=np.complex128)
    np.add.at(spectra, (..., rows, k % shape[-1]), g)
    return np.fft.ifft(spectra, axis=-1, norm="forward")


def delay_band(ch: DDChannelSpec, params: FrameParams, gains: np.ndarray | None = None):
    """The time-domain channel by its delay diagonals: (..., L_max, N, M).

    Body sample s = n*M + p receives sample s - l, wrapping round its block
    (slot n in ``per_slot_cp`` mode, the frame in ``cyclic`` mode), with
    weight D[l, n, p] = sum over taps at delay l of gain * w^(k*(s - l)),
    w = exp(2j*pi/(M*N)).  ``gains`` (..., taps) gives each frame its own
    gains at ``ch``'s tap positions, as in :func:`apply_channel`.
    """
    check_taps(ch, params)
    l, k, g = _tap_arrays(ch, gains)
    S, delays = params.dof, np.arange(ch.L_max)[:, None]
    # each delay's ramp sum_k g * w^(k*s), read at s - l: O(L_max * S) per frame
    band = _doppler_ramps(l, k, g, (ch.L_max, S))[..., delays, (np.arange(S) - delays) % S]
    return band.reshape(*g.shape[:-1], ch.L_max, params.N, params.M)


def band_blocks(band: np.ndarray) -> np.ndarray:
    """Dense blocks of a band (..., L, blocks, B): A[b, p, (p - l) mod B] = band[l, b, p].

    Row p of block b takes delay l's weight at column p - l, wrapping round
    the block; :func:`delay_band` reshaped to N slots or one frame gives the
    time-domain channel of either mode.
    """
    L, blocks, B = band.shape[-3:]
    A = np.zeros((*band.shape[:-3], blocks, B, B), dtype=np.complex128)
    p = np.arange(B)
    for l in range(L):
        A[..., p, (p - l) % B] += band[..., l, :, :]
    return A


def _time_blocks(ch: DDChannelSpec, params: FrameParams, mode: str) -> np.ndarray:
    """The time-domain channel of ``mode`` as (blocks, slots, M, slots, M), refused above the guard.

    One block of N slots in ``cyclic`` mode, N blocks of one slot in ``per_slot_cp``.
    """
    if mode not in ("cyclic", "per_slot_cp"):
        raise ConfigError(f"unknown channel mode {mode!r}")
    check_blocks(params, mode)
    blocks = 1 if mode == "cyclic" else params.N
    band = delay_band(ch, params).reshape(ch.L_max, blocks, -1)
    n, M = params.N // blocks, params.M
    return band_blocks(band).reshape(blocks, n, M, n, M)


def dd_domain_operator(ch: DDChannelSpec, params: FrameParams) -> np.ndarray:
    """Analytic delay-Doppler input-output operator of OTFS in ``cyclic`` mode.

    Built from the taps, never by running the modulation chain.  With
    rectangular pulses the ISFFT followed by slot synthesis is an inverse
    DFT along the Doppler axis alone, x[n*M + p] = sum_k conj(F_N)[n, k]
    x_dd[k, p], and the receiver applies its adjoint, so the operator is

        (F_N kron I_M) @ H @ (F_N^H kron I_M)

    with H the ``cyclic`` time-domain channel, :func:`band_blocks` of the
    frame's :func:`delay_band`.  Each tap keeps its signed Doppler bin, so
    bins -N/2 and +N/2 (distinct phase ramps over the block) stay distinct.
    The result is M*N x M*N, vectorized row-major over (doppler, delay) as
    :func:`effective_matrix` is, and refused above ``EFFECTIVE_GUARD`` points.
    """
    H = np.fft.fft(_time_blocks(ch, params, "cyclic")[0], axis=0, norm="ortho")
    return np.fft.ifft(H, axis=2, norm="ortho").reshape(params.dof, params.dof)


def slot_operators(ch: DDChannelSpec, params: FrameParams, mode: str = "per_slot_cp") -> np.ndarray:
    """Channel blocks on the slot-major time-frequency grid ``Y.T.reshape(-1)``.

    The time-domain channel, :func:`band_blocks` of :func:`delay_band`, seen
    through the per-slot DFT: F_M on each slot of the output, F_M^H on each
    slot of the input.  In ``per_slot_cp`` mode every delay stays inside the
    prefix, so slot n's receive column is Y[:, n] = B_n @ X[:, n] and the
    result is the (N, M, M) stack of B_n.  In ``cyclic`` mode delays wrap
    round the block and couple the slots: the result is one (1, M*N, M*N)
    block.  Either is refused by :func:`check_blocks` before it is allocated.
    """
    H = np.fft.fft(_time_blocks(ch, params, mode), axis=2, norm="ortho")
    H = np.fft.ifft(H, axis=4, norm="ortho")
    return H.reshape(len(H), H.shape[1] * params.M, -1)


# ---------------------------------------------------------------------------
# numerical ground truth: operators composed from the real signal chain
# ---------------------------------------------------------------------------


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
    from . import modem  # local import: modem does not import channel

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
    transmit pulse at (m', n'), measured by passing each basis waveform
    through the noiseless channel and correlating against the receive
    bank.  By linearity, contracting the tensor with any transmit grid
    reproduces the chain's receive grid exactly.

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
    M, N = params.M, params.N

    def tx(v):  # the basis pulse of grid cell (m', n') = divmod(c, N)
        return heisenberg(v.reshape(M, N), params, cp_len=cp_len)

    def rx(sig):
        return wigner(apply_channel(sig, ch, params, mode=mode), params)

    return chain_matrix(tx, rx, params.dof).reshape(M, N, M, N)
