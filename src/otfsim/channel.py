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

Both modes implement, on body samples s, with w = exp(2j*pi/(M*N)),

    r[s] = sum_taps gain * x[s - l] * w^(k*(s - l)) + noise.

As w^(k*(s - l)) = w^(-l*k) * w^(k*s), each tap is a Doppler ramp w^(k*s)
times its twisted gain gain * w^(-l*k), formed in :func:`_tap_arrays` alone.
:func:`delay_band` holds the channel as its L_max delay diagonals, those
ramps, and :func:`delay_rows` builds those that carry taps one at a time:
:func:`band_channel` reads the received body from either, row by row,
:func:`apply_channel` the rows at the Doppler clock over the prefixed stream
and :func:`tf_channel` the band's first column, each with a gain set per
frame.  :func:`band_blocks` scatters them into the dense time-domain blocks,
which :func:`slot_operators` sees through the per-slot DFT (the OFDM/OSTF
view) and :func:`dd_domain_operator` through the Doppler DFT (the OTFS
view), each checked against a brute-force reference in :mod:`otfsim.oracles`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, GuardError
from .frame import FrameParams, TimeSignal

#: refuse dense operators (probed, or built for cyclic mode) above this many points
EFFECTIVE_GUARD = 4096
#: scenario parsing refuses frames with more grid points (M*N) than this
FRAME_GUARD = 1 << 20
#: the application modes described above
CHANNEL_MODES = ("cyclic", "per_slot_cp")


class ChannelTap(NamedTuple):
    delay_bin: int
    doppler_bin: int
    gain: complex


@dataclass(frozen=True)
class DDChannelSpec:
    """Sparse delay-Doppler channel: a tuple of (delay, Doppler, gain) taps.

    Delay and Doppler bins must be integers (Python or numpy).
    """

    taps: tuple

    def __post_init__(self):
        try:
            bins = [(operator.index(l), operator.index(k)) for l, k, _ in self.taps]
        except TypeError:
            raise ValueError(f"tap bins must be integers, got taps {self.taps!r}") from None
        taps = tuple(ChannelTap(l, k, complex(g)) for (l, k), (*_, g) in zip(bins, self.taps))
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
    """Total tap power sum_i |gain_i|^2, summed as float products: inf, not an
    ``OverflowError``, past the float range."""
    return float(sum(t.gain.real * t.gain.real + t.gain.imag * t.gain.imag for t in ch.taps))


def random_gains(L_max: int, V_max: int, rng: np.random.Generator) -> np.ndarray:
    """The (L_max, 2*V_max - 1) tap gains of :func:`random_channel`, as drawn from ``rng``.

    I.i.d. circular complex Gaussian of equal power, rescaled so the
    realised received power is exactly 1.
    """
    if L_max < 1 or V_max < 1:
        raise ValueError(f"spreads must be >= 1, got L_max={L_max} V_max={V_max}")
    shape = (L_max, 2 * V_max - 1)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    g *= np.sqrt(1.0 / (shape[0] * shape[1]) / 2.0)
    g /= np.linalg.norm(g)
    return g


def random_channel(L_max: int, V_max: int, rng: np.random.Generator) -> DDChannelSpec:
    """Draw a random channel on the full delay x Doppler tap grid.

    Taps cover delay bins [0, L_max) and Doppler bins (-V_max, V_max)
    (centered on zero), delay-major, with the gains of :func:`random_gains`.
    """
    g = random_gains(L_max, V_max, rng)
    dopplers = range(1 - V_max, V_max)
    return DDChannelSpec(tuple((l, k, g[l, j]) for l in range(L_max) for j, k in enumerate(dopplers)))


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
    if mode not in (None, *CHANNEL_MODES):
        raise ConfigError(f"unknown channel mode {mode!r}")


def draw_noise(rng: np.random.Generator, noise_var: float, size) -> tuple:
    """Complex AWGN as drawn from ``rng``: (real parts, imaginary parts).

    One standard-normal draw of 2 x ``size`` samples, real parts first,
    scaled to variance ``noise_var / 2``: the values of two ``normal``
    draws of ``size`` samples.  The runner draws each trial's unit normals
    into a (T, 2, samples) stack and scales the stack once, the same values.
    """
    z = rng.standard_normal((2, *np.atleast_1d(size)))
    z *= np.sqrt(noise_var / 2.0)
    return z[0], z[1]


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

    Delay l's row of :func:`delay_band`, built alone by :func:`delay_rows` and
    read at the Doppler clock, weights the stream delayed by l (rolled or
    zero-filled by mode).

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
    L, total = ch.L_max, x.shape[-1]
    # the stream led by the frame's tail (cyclic) or zeros (prefixed)
    lead = x[..., total - L + 1:] if mode == "cyclic" else np.zeros((*x.shape[:-1], L - 1))
    stream = np.concatenate([lead, x], axis=-1)
    r = np.zeros(x.shape, dtype=np.complex128)
    # the Doppler clock, held at the slot's first body sample in its prefix
    clock = np.maximum(0, np.arange(params.M + sig.cp_len) - sig.cp_len)
    # one delay d (that carries taps) at a time: no temporary outgrows the stream stack
    for d, row in delay_rows(ch, params, gains):
        row = np.take(row, clock, axis=-1).reshape(*row.shape[:-2], -1)
        r += row * stream[..., L - 1 - d : L - 1 - d + total]

    if noise_var > 0:
        noise = draw_noise(rng, noise_var, r.shape)
    if noise is not None:
        r.real += noise[0]
        r.imag += noise[1]
    return replace(sig, samples=r)


def band_channel(
    rows,
    sig: TimeSignal,
    mode: str,
    noise: tuple | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
):
    """:func:`apply_channel`'s body samples (..., M*N), bitwise, from the channel's
    (delay, row) pairs in ascending delay and the (real, imaginary) ``noise`` pair.

    A row (..., N, M) is :func:`delay_band`'s at that delay: a band's
    :func:`band_rows`, or the :func:`delay_rows` of the delays that carry
    taps.  Each block (a slot in ``per_slot_cp`` mode, the frame in
    ``cyclic`` mode) takes r[p] = sum_d row_d[p] * x[(p - d) mod B], x[p - d]
    read from the slot's prefix, which must hold d, or round the frame.
    The sum is formed in ``out`` and each row's products in ``work``, two
    C-contiguous complex arrays of the body's shape, where given: each
    delay's samples are copied into ``work`` and multiplied there, so that
    numpy buffers no strided operand.
    """
    N, M, cp = sig.num_slots, sig.body_len, sig.cp_len
    blocks = 1 if mode == "cyclic" else N
    x = sig.samples.reshape(*sig.samples.shape[:-1], blocks, -1)
    shape = (*x.shape[:-1], M * N // blocks)
    B = shape[-1]
    if out is None:
        r = np.zeros(shape, dtype=np.complex128)
    else:
        r = out.reshape(shape)
        r.fill(0)
    product = np.empty(shape, dtype=np.complex128) if work is None else work.reshape(shape)
    for d, row in rows:
        if d > (B - 1 if mode == "cyclic" else cp) or mode == "cyclic" and cp:
            raise ConfigError(f"a {mode} frame with prefix {cp} cannot hold delay {d}")
        if mode == "cyclic":  # x[(p - d) mod B]: the frame read round from its end
            np.copyto(product[..., d:], x[..., : B - d])
            np.copyto(product[..., :d], x[..., B - d :])
        else:  # x[p - d], from the slot's prefix
            np.copyto(product, x[..., cp - d : cp - d + B])
        r += np.multiply(row.reshape(*row.shape[:-2], blocks, -1), product, out=product)
    r = r.reshape(*r.shape[:-2], N, M)
    if noise is not None:
        r.real += noise[0].reshape(*r.shape[:-1], -1)[..., cp:]
        r.imag += noise[1].reshape(*r.shape[:-1], -1)[..., cp:]
    return r.reshape(*r.shape[:-2], -1)


def band_rows(band: np.ndarray):
    """The (delay, row) pairs of a :func:`delay_band` (..., L_max, N, M), in ascending delay."""
    return enumerate(np.moveaxis(band, -3, 0))


def delay_rows(ch: DDChannelSpec, params: FrameParams, gains: np.ndarray | None = None):
    """Yields (d, row) in ascending delay for each delay d that carries taps:
    :func:`delay_band`'s row d (..., N, M), built alone, the Doppler ramp of
    its twisted gains; ``gains`` (..., taps) as there."""
    check_taps(ch, params)
    l, k, g = _tap_arrays(ch, params, gains)
    for d in np.flatnonzero(np.bincount(l)):
        at = l == d
        ramp = _doppler_ramps(0, k[at], g[..., at], (1, params.dof))
        yield d, ramp.reshape(*g.shape[:-1], params.N, params.M)


# ---------------------------------------------------------------------------
# analytic channel views
# ---------------------------------------------------------------------------


def tf_channel(ch: DDChannelSpec, params: FrameParams, gains: np.ndarray | None = None):
    """Per-cell time-frequency response H[m, n] (..., M, N).

    H[m, n] = sum_taps gain * exp(-2j*pi*(m*l/M - n*k/N)) * exp(-2j*pi*l*k/(M*N))

    is the FFT over delay of :func:`delay_band`'s D[l, n, 0], the Doppler
    ramp of delay l's twisted gains on N points; ``gains`` (..., taps) as there.
    Under the ideal-pulse approximation each grid cell sees the scalar
    gain H[m, n]; a delay-only channel is constant across slots and a
    Doppler-only channel constant across subcarriers.
    """
    check_taps(ch, params)
    l, k, g = _tap_arrays(ch, params, gains)
    return np.fft.fft(_doppler_ramps(l, k, g, (params.M, params.N)), axis=-2)


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
    l, k, g = _tap_arrays(ch, params)
    out = np.zeros((params.N, params.M), dtype=np.complex128)
    np.add.at(out, (k % params.N, l), params.dof * g)
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


def _tap_arrays(ch: DDChannelSpec, params: FrameParams, gains: np.ndarray | None = None) -> tuple:
    """The taps' delay bins l, Doppler bins k and twisted gains g * w^(-l*k), w = exp(2j*pi/(M*N)).

    g is ``ch``'s gains, or ``gains`` (..., taps) at its tap positions.  The
    one home of the delay-Doppler cross phase (see the module docstring).
    """
    l, k, g = (np.array(v) for v in zip(*ch.taps))
    if gains is not None and gains.shape[-1:] != g.shape:
        raise ValueError(f"gains of shape {gains.shape} do not match {g.size} taps")
    return l, k, (g if gains is None else gains) * np.exp(-2j * np.pi * l * k / params.dof)


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
    w = exp(2j*pi/(M*N)): the Doppler ramps of the twisted gains, one IFFT.
    ``gains`` (..., taps) gives each frame its own gains at ``ch``'s tap
    positions, as in :func:`apply_channel`.
    """
    check_taps(ch, params)
    l, k, g = _tap_arrays(ch, params, gains)
    ramps = _doppler_ramps(l, k, g, (ch.L_max, params.dof))
    return ramps.reshape(*g.shape[:-1], ch.L_max, params.N, params.M)


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
    if mode not in CHANNEL_MODES:
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
    :func:`.oracles.effective_matrix` is, refused above ``EFFECTIVE_GUARD`` points.
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
