"""Scenario-driven Monte-Carlo link simulation.

Determinism contract
--------------------
Every random draw in a simulation belongs to the stream of exactly one
(seed, snr_index, trial_index) triple, generated by the counter-based
Philox engine::

    Generator(Philox(key=seed, counter=[0, trial_index, snr_index, 0]))

Within a trial the draw order is fixed (channel, then bits, then noise),
so results are bit-identical for any worker partition of the trial range
and any execution order.  Auxiliary system randomness (e.g. a Gaussian
spreading matrix, a single channel draw for inspection) uses reserved
counter blocks that no trial stream can reach.

Execution
---------
A range of trials runs in chunks of at most ``CHUNK_SAMPLES`` stacked
time samples.  One generator serves the range: before each trial it is
reset to that trial's counter, so it draws exactly what a fresh stream
of the contract draws, into (T, ...) stacks.  Every layer (bit mapping,
precoding, synthesis, channel, detection from the received body samples,
slicing and counting) then runs once per chunk on the stack.  Each SNR
point runs one link bound to its noise variance: a fixed channel's
detector and water-filled user amplitudes are built once for the point.
A random chunk is one tap set with a (T, taps) gain stack: its channel,
a unitary map's LMMSE, one-tap responses and water-filled amplitudes take
one call each; ML and Gaussian spreading build one detector per draw.

Scenario files are strict JSON: every key is validated and unknown keys
are rejected with an error naming the offending key.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from . import modem, multiuser
from .channel import (
    EFFECTIVE_GUARD,
    FRAME_GUARD,
    DDChannelSpec,
    apply_channel,
    chain_matrix,  # noqa: F401 -- unused here; bench/tracing.py wraps runner.chain_matrix
    check_blocks,
    check_taps,
    delay_band,
    draw_noise,
    effective_matrix,  # noqa: F401 -- unused here; bench/tracing.py wraps runner.effective_matrix
    random_channel,
    slot_operators,
    tf_channel,
    windowed_dd_channel,
)
from .equalizer import ML_GUARD_BITS, band_filter, ml_detect, mmse_filter, one_tap_tf
from .errors import ConfigError, GuardError
from .frame import FrameParams, interleaved_allocation, localized_allocation, make_frame
from .metrics import (
    LinkResult,
    count_errors,
    get_constellation,
    map_bits,
    papr,
    slice_symbols,
)
from .modem import SchemeConfig
from .transforms import (
    heisenberg,
    slot_dft,
    wigner,  # noqa: F401 -- unused here; bench/tracing.py wraps runner.wigner
)

EQUALIZERS = ("one_tap_tf", "mmse_dd", "ml")
CHANNEL_MODES = ("cyclic", "per_slot_cp")
CSV_HEADER = "scheme,snr_db,trials,ber,ser,papr_mean,papr_p99"
#: time samples (over all frames) stacked in one chunk of trials, at most;
#: a frame longer than this runs alone
CHUNK_SAMPLES = 1 << 13


@dataclass(frozen=True)
class MultiuserSetup:
    mode: str
    K_d: int
    K_D: int
    mapping: str = "localized"
    spreader: str = "dft"
    power_budget: float | None = None


@dataclass(frozen=True)
class Scenario:
    """Full description of one simulation run (plain data, picklable).

    Validated whenever it is built, parsed or copied by ``dataclasses.replace``.
    """

    M: int
    N: int
    delta_f_hz: float
    cp_len: int
    scheme: str
    constellation: str
    channel_taps: tuple | None
    channel_random: tuple | None
    channel_mode: str
    equalizer: str
    snr_db_list: tuple
    trials: int
    seed: int
    multiuser: MultiuserSetup | None = None

    def __post_init__(self):
        _validate_scenario(self)
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))

    @property
    def params(self) -> FrameParams:
        return make_frame(self.M, self.N, self.delta_f_hz)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list",
          dict: "an object"}


def _is_kind(value, kind) -> bool:
    """JSON kind check: booleans are never numbers, numbers must be finite."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= np.finfo(float).max
    return isinstance(value, kind)


def _take(d: dict, ctx: str, key: str, kind: type, default=_REQUIRED, choices=None):
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in {ctx}")
        return default
    value = d.pop(key)
    if not _is_kind(value, kind):
        raise ConfigError(f"{ctx}.{key} must be {_KINDS[kind]}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{ctx}.{key} must be one of {choices}, got {value!r}")
    return float(value) if kind is float else value


def _no_extras(d: dict, ctx: str):
    if d:
        raise ConfigError(f"unknown key {sorted(d)[0]!r} in {ctx}")


def _parse_channel(raw: dict, ctx: str):
    raw = dict(raw)
    taps = _take(raw, ctx, "taps", list, None)
    rand = _take(raw, ctx, "random", dict, None)
    _no_extras(raw, ctx)
    if (taps is None) == (rand is None):
        raise ConfigError(f"{ctx} needs exactly one of 'taps' or 'random'")
    if taps is not None:
        parsed = []
        for i, t in enumerate(taps):
            tctx = f"{ctx}.taps[{i}]"
            if not isinstance(t, dict):
                raise ConfigError(f"{tctx} must be an object")
            t = dict(t)
            parsed.append((
                _take(t, tctx, "delay_bin", int),
                _take(t, tctx, "doppler_bin", int),
                _take(t, tctx, "re", float),
                _take(t, tctx, "im", float),
            ))
            _no_extras(t, tctx)
        if not parsed:
            raise ConfigError(f"{ctx}.taps must not be empty")
        return tuple(parsed), None
    rand = dict(rand)
    rctx = f"{ctx}.random"
    L = _take(rand, rctx, "L_max", int)
    V = _take(rand, rctx, "V_max", int)
    _no_extras(rand, rctx)
    return None, (L, V)


def _parse_multiuser(raw: dict, ctx: str) -> MultiuserSetup:
    raw = dict(raw)
    mode = _take(raw, ctx, "mode", str, choices=multiuser.DOWNLINK_MODES)
    K_d = _take(raw, ctx, "K_d", int)
    K_D = _take(raw, ctx, "K_D", int)
    mapping = _take(raw, ctx, "mapping", str, "localized", ("localized", "interleaved"))
    spreader = _take(raw, ctx, "spreader", str, "dft", ("dft", "gaussian"))
    budget = _take(raw, ctx, "power_budget", float, None)
    _no_extras(raw, ctx)
    return MultiuserSetup(mode, K_d, K_D, mapping, spreader, budget)


def scenario_from_dict(raw: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON (strict keys and kinds)."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    raw = dict(raw)
    frame = dict(_take(raw, "scenario", "frame", dict))
    M = _take(frame, "frame", "M", int)
    N = _take(frame, "frame", "N", int)
    delta_f = _take(frame, "frame", "delta_f_hz", float, 15e3)
    cp_len = _take(frame, "frame", "cp_len", int, 0)
    _no_extras(frame, "frame")

    scheme = _take(raw, "scenario", "scheme", str)
    constellation = _take(raw, "scenario", "constellation", str)
    taps, rand = _parse_channel(_take(raw, "scenario", "channel", dict), "channel")
    channel_mode = _take(raw, "scenario", "channel_mode", str, "per_slot_cp", CHANNEL_MODES)
    equalizer = _take(raw, "scenario", "equalizer", str, "one_tap_tf", EQUALIZERS)
    snr_list = _take(raw, "scenario", "snr_db_list", list)
    trials = _take(raw, "scenario", "trials", int)
    seed = _take(raw, "scenario", "seed", int)
    mu_raw = _take(raw, "scenario", "multiuser", dict, None)
    _no_extras(raw, "scenario")

    return Scenario(
        M=M,
        N=N,
        delta_f_hz=delta_f,
        cp_len=cp_len,
        scheme=scheme,
        constellation=constellation,
        channel_taps=taps,
        channel_random=rand,
        channel_mode=channel_mode,
        equalizer=equalizer,
        snr_db_list=tuple(snr_list),
        trials=trials,
        seed=seed,
        multiuser=None if mu_raw is None else _parse_multiuser(mu_raw, "multiuser"),
    )


def _validate_scenario(sc: Scenario) -> None:
    if not sc.snr_db_list:
        raise ConfigError("snr_db_list must be a nonempty list")
    if not all(_is_kind(s, float) for s in sc.snr_db_list):
        raise ConfigError(f"snr_db_list entries must be finite numbers, got {sc.snr_db_list}")
    for snr in sc.snr_db_list:
        _noise_var(snr)
    if not _is_kind(sc.trials, int) or sc.trials < 1:
        raise ConfigError(f"trials must be an integer >= 1, got {sc.trials!r}")
    if not _is_kind(sc.seed, int) or not 0 <= sc.seed < 2**128:
        raise ConfigError("seed must be a nonnegative integer below 2**128 (the Philox key)")
    try:
        params = sc.params
        if params.dof > FRAME_GUARD:
            raise ConfigError(
                f"frame of {sc.M} x {sc.N} grid points exceeds the {FRAME_GUARD}-point cap"
            )
        get_constellation(sc.constellation)
        SchemeConfig(sc.scheme, params, cp_len=sc.cp_len)
        _check_channel(sc)
        if sc.multiuser is not None:
            _allocation(sc)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    bits_total = params.dof * get_constellation(sc.constellation).bits_per_symbol
    if sc.equalizer == "ml" and bits_total > ML_GUARD_BITS:
        raise ConfigError(
            f"equalizer 'ml' with {bits_total} bits per block exceeds the "
            f"{ML_GUARD_BITS}-bit exhaustive-search guard"
        )
    if sc.multiuser is not None:
        mu = sc.multiuser
        if sc.equalizer == "ml":
            raise ConfigError("equalizer 'ml' is not supported with multiuser scenarios")
        if mu.power_budget is not None and mu.power_budget <= 0:
            raise ConfigError(f"power_budget must be positive, got {mu.power_budget}")
        if mu.power_budget is not None and mu.mode != "tf_alloc":
            raise ConfigError("power_budget applies to multiuser mode 'tf_alloc' only")
        if mu.power_budget is not None and sc.equalizer == "mmse_dd":
            raise ConfigError(
                "power_budget is incompatible with equalizer 'mmse_dd' "
                "(joint MMSE assumes unit power weights)"
            )


def load_scenario(path) -> Scenario:
    """Load a strict-JSON scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read scenario file {path}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario file {path} is not valid JSON: {e}") from e
    return scenario_from_dict(raw)


def _allocation(sc: Scenario):
    mu = sc.multiuser
    alloc_fn = localized_allocation if mu.mapping == "localized" else interleaved_allocation
    return alloc_fn(sc.params, mu.K_d, mu.K_D)


def _fixed_channel(sc: Scenario) -> DDChannelSpec:
    return DDChannelSpec(
        taps=tuple((l, k, complex(re, im)) for (l, k, re, im) in sc.channel_taps)
    )


def _check_channel(sc: Scenario) -> None:
    """Tap power, and the widest tap the channel can hold against the frame and mode."""
    if sc.channel_taps is not None:
        ch = _fixed_channel(sc)
        if all(t.gain == 0 for t in ch.taps):
            raise ConfigError("channel taps carry no power (every gain is zero)")
    else:
        L, V = sc.channel_random
        if L < 1 or V < 1:
            raise ConfigError(f"channel.random spreads must be >= 1, got L_max={L} V_max={V}")
        ch = DDChannelSpec(taps=((L - 1, V - 1, 1.0),))
    check_taps(ch, sc.params, sc.channel_mode, sc.cp_len)


def _noise_var(snr_db: float) -> float:
    """Complex noise variance of unit-energy symbols at ``snr_db``."""
    try:
        noise_var = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        noise_var = math.inf
    if not 0 < noise_var < math.inf:
        raise ConfigError(f"snr_db {snr_db} gives no positive finite noise variance")
    return noise_var


# ---------------------------------------------------------------------------
# deterministic RNG streams
# ---------------------------------------------------------------------------


def trial_rng(seed: int, snr_index: int, trial_index: int) -> np.random.Generator:
    """The per-trial stream of the determinism contract."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, trial_index, snr_index, 0])
    )


def system_rng(seed: int, slot: int) -> np.random.Generator:
    """Reserved streams for per-run (not per-trial) randomness."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, int(slot)]))


class _TrialStreams:
    """The trial streams of one SNR point, served by a single generator.

    :meth:`at` resets the generator's counter and output buffer to those
    of a fresh ``trial_rng(seed, snr_index, t)``, which is much cheaper
    than building a new generator per trial.
    """

    def __init__(self, seed: int, snr_index: int, first: int):
        self.rng = trial_rng(seed, snr_index, first)
        self._fresh = self.rng.bit_generator.state

    def at(self, trial_index: int) -> np.random.Generator:
        self._fresh["state"]["counter"][1] = trial_index
        self.rng.bit_generator.state = self._fresh
        return self.rng


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


class _Link:
    """One transmit chain and its detector, for a single user or a downlink.

    A single user is one block on the scheme's payload grid; a downlink
    is the K user blocks of its allocation, superposed on the time-
    frequency grid by ``multiuser.downlink_superpose`` and separated by
    its adjoint ``multiuser.downlink_split``.  Symbols, bits and detector
    output are stacked user by user, each block flattened row-major.
    Every stage takes a stack of frames along leading axes.  A link serves
    one SNR point: its noise variance is fixed when it is built.
    """

    def __init__(self, sc: Scenario, noise_var: float = 0.0):
        self.sc = sc
        self.noise_var = noise_var
        self.params = sc.params
        self.cfg = SchemeConfig(sc.scheme, self.params, cp_len=sc.cp_len)
        self.const = get_constellation(sc.constellation)
        self.fixed = None if sc.channel_taps is None else _fixed_channel(sc)
        mu = sc.multiuser
        # every user map tiles the grid unitarily except Gaussian spreading,
        # and a unitary map's joint LMMSE is solved on the channel's delay band
        unitary = mu is None or not (mu.mode == "tf_spread" and mu.spreader == "gaussian")
        self.banded = unitary and sc.equalizer == "mmse_dd"
        if mu is None:
            self.users, self.K, self.block = None, 1, self.params.dof
        else:
            self._init_users(sc)
        self.n_bits = self.K * self.block * self.const.bits_per_symbol
        self.n_samples = sc.N * (sc.M + sc.cp_len)
        self.chunk = max(1, CHUNK_SAMPLES // self.n_samples)

    def _init_users(self, sc: Scenario):
        mu = sc.multiuser
        self.alloc = _allocation(sc)
        self.K = self.alloc.num_users
        self.M_d = sc.M // mu.K_d
        self.N_D = sc.N // mu.K_D
        self.block = self.M_d * self.N_D
        if mu.mode == "tf_spread":
            # one reserved stream, drawn sequentially so users differ
            gauss_rng = system_rng(sc.seed, 1) if mu.spreader == "gaussian" else None
            self.users = [
                self._make_pair(fmap, tmap, gauss_rng) for fmap, tmap in self.alloc.users
            ]
        else:
            self.users = list(self.alloc.users)

    def _make_pair(self, fmap, tmap, rng):
        if self.sc.multiuser.spreader == "dft":
            return multiuser.dft_spreading_pair(fmap, tmap)

        def gauss(rows, cols):
            S = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            return S / np.linalg.norm(S, axis=0, keepdims=True)

        return multiuser.SpreadingPair(
            S_A=gauss(self.params.M, self.M_d), S_B=gauss(self.params.N, self.N_D)
        )

    def channel_for_trial(self, rng) -> DDChannelSpec:
        if self.fixed is not None:
            return self.fixed
        L, V = self.sc.channel_random
        return random_channel(L, V, rng)

    def draw(self, streams: _TrialStreams, start: int, stop: int):
        """Every draw of trials [start, stop), trial by trial in the contract's order.

        Returns ``(ch, gains, bits, noise)``: the (last drawn) channel, the draws' (T, taps)
        gains at its tap positions (None for a fixed channel), the (T, n_bits) bits and
        the noise pair of (T, samples) arrays (None at zero noise variance).
        """
        T = stop - start
        ch, gains = self.fixed, []
        bits = np.empty((T, self.n_bits), dtype=np.int64)
        noise = None
        if self.noise_var > 0:
            noise = (np.empty((T, self.n_samples)), np.empty((T, self.n_samples)))
        for i in range(T):
            rng = streams.at(start + i)
            if self.fixed is None:
                ch = self.channel_for_trial(rng)
                gains.append([t.gain for t in ch.taps])
            bits[i] = rng.integers(0, 2, size=self.n_bits)
            if noise is not None:
                noise[0][i], noise[1][i] = draw_noise(rng, self.noise_var, self.n_samples)
        return ch, np.array(gains) if gains else None, bits, noise

    def amplitudes(self, ch: DDChannelSpec, gains: np.ndarray | None = None):
        """Water-filled user amplitudes of a budgeted downlink: (frames, K), or None.

        One ``tf_channel`` call; each frame is averaged alone (a stacked mean rounds differently).
        """
        mu = self.sc.multiuser
        if mu is None or mu.power_budget is None:
            return None
        amps = []
        for H in tf_channel(ch, self.params, gains).reshape(-1, self.params.M, self.params.N):
            power = np.array([
                np.mean(np.abs(H[np.ix_(list(f.selected), list(t.selected))]) ** 2)
                for f, t in self.alloc.users
            ])
            p = multiuser.water_fill(power, mu.power_budget, self.noise_var)
            amps.append(np.sqrt(p / self.block))
        return np.stack(amps)

    def tf_grid(self, symbols: np.ndarray) -> np.ndarray:
        """The user map: stacked symbols (..., n) -> (..., M, N) time-frequency grid."""
        lead = symbols.shape[:-1]
        if self.users is None:
            return modem.tf_from_payload(
                self.cfg, symbols.reshape(*lead, *modem.payload_shape(self.cfg))
            )
        blocks = symbols.reshape(*lead, self.K, self.N_D, self.M_d)
        return multiuser.downlink_superpose(
            np.moveaxis(blocks, -3, 0), self.users, self.sc.multiuser.mode
        )

    def adjoint(self, X: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`tf_grid`: (..., M, N) grid -> stacked symbols."""
        lead = X.shape[:-2]
        if self.users is None:
            return modem.payload_from_tf(self.cfg, X).reshape(*lead, -1)
        blocks = multiuser.downlink_split(X, self.users, self.sc.multiuser.mode)
        return np.concatenate([b.reshape(*lead, -1) for b in blocks], axis=-1)

    def transmit(self, bits: np.ndarray, amp=None):
        """Synthesise (..., n_bits) bits: a TimeSignal with one frame per bit row.

        ``amp`` of shape (..., K) scales each user's symbols before the user map.
        """
        symbols = map_bits(bits, self.const)
        if amp is not None:
            symbols = symbols * np.repeat(amp, self.block, axis=-1)
        return heisenberg(self.tf_grid(symbols), self.params, cp_len=self.sc.cp_len)

    @cached_property
    def _map_matrix(self) -> np.ndarray:
        """The channel-free user map as a matrix: stacked symbols -> slot-major grid.

        The map of stacks of symbol impulses, one chunk of frames at a time
        so that no more grids are held, under the probed builders' guard.
        """
        n, dof = self.K * self.block, self.params.dof
        if n > EFFECTIVE_GUARD:
            raise GuardError(f"user map on {n} points exceeds guard {EFFECTIVE_GUARD}")
        U = np.empty((dof, n), dtype=np.complex128)
        for a in range(0, n, self.chunk):
            m = min(self.chunk, n - a)
            U[:, a:a + m] = self.tf_grid(np.eye(m, n, k=a)).swapaxes(-1, -2).reshape(m, dof).T
        return U

    def detector(self, ch: DDChannelSpec, gains: np.ndarray | None = None):
        """Returns stacked symbol estimates = f(received body samples (..., M*N)).

        ``gains`` (T, taps) gives frame t ``ch``'s taps with gains[t].  A
        unitary map's LMMSE equalises the blocks (slots, or the ``cyclic``
        frame) of all frames at once on the delay band, one-tap reads one
        ``tf_channel`` call; ML and Gaussian spreading read each frame's
        grid through the slot operators T as T U, one detector per draw.
        """
        sc, params, noise_var = self.sc, self.params, self.noise_var
        if self.banded:
            check_blocks(params, sc.channel_mode)
            blocks = 1 if sc.channel_mode == "cyclic" else params.N
            band = delay_band(ch, params, gains)
            equalize = band_filter(band.reshape(*band.shape[:-2], blocks, -1), noise_var)

            def detect(body):
                z = equalize(body.reshape(*body.shape[:-1], blocks, -1))
                return self.adjoint(slot_dft(z.reshape(body.shape), params).swapaxes(-1, -2))

            return detect
        if sc.equalizer == "one_tap_tf":
            H = tf_channel(ch, params, gains)
            return lambda body: self.adjoint(
                one_tap_tf(slot_dft(body, params).swapaxes(-1, -2), H, noise_var)
            )
        if gains is not None:  # one detector per draw: a stacked filter is no faster and holds more
            at = [(t.delay_bin, t.doppler_bin) for t in ch.taps]
            each = [self.detector(DDChannelSpec([(*p, g) for p, g in zip(at, gs)])) for gs in gains]
            return lambda body: np.stack([d(b) for d, b in zip(each, body)])
        U = self._map_matrix  # refused by its guard before the channel blocks are built
        T = slot_operators(ch, params, sc.channel_mode)
        A = (T @ U.reshape(len(T), T.shape[-1], -1)).reshape(params.dof, -1)

        def slot_major(body):
            return slot_dft(body, params).reshape(body.shape)

        if sc.equalizer == "ml":
            # one exhaustive search per frame: its Q^n x rows residuals are
            # held once, not once per frame of the stack
            return lambda body: np.apply_along_axis(ml_detect, -1, slot_major(body), A, self.const)
        W = mmse_filter(A, noise_var)
        return lambda body: (W @ slot_major(body)[..., None])[..., 0]

    @cached_property
    def _fixed_rx(self):
        """The fixed channel's detector and (1, K) amplitudes (or None), built once."""
        return self.detector(self.fixed), self.amplitudes(self.fixed)

    def run_chunk(self, streams: _TrialStreams, start: int, stop: int):
        """Draw, transmit, receive and detect trials [start, stop) as one stack.

        Returns ((bit errors, symbol errors, bits, symbols), PAPR per trial).
        """
        ch, gains, bits, noise = self.draw(streams, start, stop)
        if gains is None:
            detect, amp = self._fixed_rx
        else:
            detect, amp = self.detector(ch, gains), self.amplitudes(ch, gains)
        sig = self.transmit(bits, amp)
        paprs = papr(sig)
        body = apply_channel(
            sig, ch, self.params, mode=self.sc.channel_mode, gains=gains, noise=noise
        ).body
        del sig, noise  # the transmitted stacks are not held through detection
        est = detect(body)
        bps = self.const.bits_per_symbol
        if amp is not None:
            # undo each user's amplitude; users given zero power carry no data
            on = np.broadcast_to(np.repeat(amp > 1e-12, self.block, axis=-1), est.shape)
            est = est[on] / np.broadcast_to(np.repeat(amp, self.block, axis=-1), est.shape)[on]
            bits = bits.reshape(*on.shape, bps)[on].reshape(-1)
        be, se = count_errors(bits, slice_symbols(est, self.const), bps)
        return (be, se, bits.size, est.size), paprs


def run_trial_range(sc: Scenario, snr_index: int, start: int, stop: int) -> LinkResult:
    """Run trials [start, stop) of one SNR point; mergeable partial result."""
    snr_db = sc.snr_db_list[snr_index]
    link = _Link(sc, _noise_var(snr_db))  # unit-energy symbols
    streams = _TrialStreams(sc.seed, snr_index, start)
    counts, paprs = [0, 0, 0, 0], []
    for a in range(start, stop, link.chunk):
        chunk_counts, chunk_paprs = link.run_chunk(streams, a, min(a + link.chunk, stop))
        counts = [x + y for x, y in zip(counts, chunk_counts)]
        paprs.append(chunk_paprs)
    be, se, nb, ns = counts
    return LinkResult(
        scheme=sc.scheme,
        snr_db=snr_db,
        trials=stop - start,
        bit_errors=be,
        symbol_errors=se,
        total_bits=nb,
        total_symbols=ns,
        papr_values=np.concatenate(paprs) if paprs else np.empty(0),
    )


def _worker(args):
    sc, snr_index, start, stop = args
    return run_trial_range(sc, snr_index, start, stop)


def run(sc: Scenario, workers: int = 1) -> list:
    """Run the full scenario; one LinkResult per SNR point.

    Results are independent of ``workers``: each SNR point's trials are
    partitioned into contiguous ranges, every (SNR point, range) job goes
    to one process pool, and each point's ranges are merged in trial
    order.  Every trial owns its RNG stream.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    n_snr = len(sc.snr_db_list)
    if workers == 1 or sc.trials == 1:
        return [run_trial_range(sc, si, 0, sc.trials) for si in range(n_snr)]
    bounds = np.linspace(0, sc.trials, min(workers, sc.trials) + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    jobs = [(sc, si, a, b) for si in range(n_snr) for a, b in ranges]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as ex:
        parts = list(ex.map(_worker, jobs))
    per_point = len(ranges)
    return [
        reduce(lambda a, b: a.merge(b), parts[si * per_point : (si + 1) * per_point])
        for si in range(n_snr)
    ]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def format_csv(results) -> str:
    """Fixed-schema CSV with floats at 12 significant digits."""
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.scheme},{r.snr_db:.12g},{r.trials},{r.ber:.12g},{r.ser:.12g},"
            f"{r.papr_mean:.12g},{r.papr_p99:.12g}"
        )
    return "\n".join(lines) + "\n"


def write_csv(results, path) -> None:
    Path(path).write_text(format_csv(results))


# ---------------------------------------------------------------------------
# channel inspection and PAPR CCDF
# ---------------------------------------------------------------------------


def _scenario_channel(sc: Scenario) -> DDChannelSpec:
    if sc.channel_taps is not None:
        return _fixed_channel(sc)
    L, V = sc.channel_random
    return random_channel(L, V, system_rng(sc.seed, 2))


def inspect_channel(sc: Scenario, out_dir) -> list:
    """Write channel diagnostics as CSV files; returns the written paths.

    * ``tf_channel_db.csv`` — M x N grid of per-cell gains in dB
    * ``windowed_dd_abs.csv`` — N x M delay-Doppler window response magnitudes,
      rows keyed by Doppler bin mod N (for even N, bins -N/2 and +N/2 share
      row N/2)
    * ``taps.csv`` — the tap listing
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ch = _scenario_channel(sc)
    params = sc.params
    H = tf_channel(ch, params)
    with np.errstate(divide="ignore"):
        H_db = np.maximum(20.0 * np.log10(np.abs(H)), -300.0)
    hw = np.abs(windowed_dd_channel(ch, params))
    paths = []

    def grid_csv(name, grid):
        p = out / name
        rows = [",".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(grid)]
        p.write_text("\n".join(rows) + "\n")
        paths.append(p)

    grid_csv("tf_channel_db.csv", H_db)
    grid_csv("windowed_dd_abs.csv", hw)
    tap_lines = ["delay_bin,doppler_bin,re,im"]
    for l, k, g in ch.taps:
        tap_lines.append(f"{l},{k},{g.real:.12g},{g.imag:.12g}")
    (out / "taps.csv").write_text("\n".join(tap_lines) + "\n")
    paths.append(out / "taps.csv")
    return paths


def papr_ccdf(sc: Scenario) -> str:
    """CCDF of per-block PAPR (dB) for the scenario's transmit chain.

    Blocks are generated with the trial streams of SNR index 0 but never
    touched by channel or noise.  Returns CSV text ``papr_db,ccdf``.
    """
    link = _Link(sc)
    streams = _TrialStreams(sc.seed, 0, 0)
    vals = []
    for a in range(0, sc.trials, link.chunk):
        # the channel draws keep the draw order aligned with simulate
        _, _, bits, _ = link.draw(streams, a, min(a + link.chunk, sc.trials))
        vals.extend(10.0 * math.log10(v) for v in papr(link.transmit(bits)))
    vals = np.array(vals)
    hi = float(np.ceil(vals.max() * 4) / 4) if vals.size else 0.0
    thresholds = np.arange(0.0, hi + 0.25, 0.25)
    lines = ["papr_db,ccdf"]
    for th in thresholds:
        ccdf = float(np.mean(vals > th))
        lines.append(f"{th:.12g},{ccdf:.12g}")
    return "\n".join(lines) + "\n"
