"""Scenario-driven Monte-Carlo link simulation.

Determinism contract
--------------------
Every random draw in a simulation belongs to the stream of exactly one
(seed, snr_index, trial_index) triple, generated by the counter-based
Philox engine::

    Generator(Philox(key=seed, counter=[0, trial_index, snr_index, 0]))

Within a trial the draw order is fixed (channel, then bits, then noise),
so results are bit-identical for any worker partition of the trial range
and any execution order.  The n bits are the values of
``integers(0, 2, n)``, read from ceil(n/2) raw words (bits 31 and 63 of
each); the noise is the value of ``channel.draw_noise``, one standard-normal
draw of real then imaginary parts, scaled by sqrt(noise_var / 2).
Auxiliary system randomness (e.g. a Gaussian spreading matrix, a single
channel draw for inspection) uses reserved counter blocks that no trial
stream can reach.

Execution
---------
A run cuts its point-major sequence of (SNR point, trial) frames into one
contiguous span per process (see :func:`run`), and runs each span's trials
in chunks of at most ``CHUNK_SAMPLES`` stacked time samples, cut from the
span.  One link serves a span and holds its trial streams, one generator,
and its workspace: before each trial the generator is reset to that trial's
counter, so it draws exactly what a fresh stream of the contract draws, into
(T, ...) stacks.  Every layer (bit mapping, precoding, synthesis, channel,
detection from the received body samples, slicing and counting) then runs
once per chunk on the stack, and the counts and PAPR values split back to
their points.  The noise variance belongs to the SNR point: a random chunk
carries each frame's, a fixed one its point's.  The link's receiver reads a channel once
for its detector, the received body it detects and, on a budgeted downlink,
the water-filled user amplitudes: a random chunk's receiver (one tap grid
with a (T, taps) gain stack) is built once per chunk, at each frame's noise
variance, so its chunks cross point boundaries; a fixed channel's is built
once per point, at the point's, and its chunks end there.  The link picks
its receiver's builder once, from its equalizer and map: ``_one_tap``,
``_band_lmmse`` (a unitary map's LMMSE on the channel's delay band) or
``_dense`` (ML and Gaussian spreading, one dense detector per draw).  Every
link receives by ``band_channel`` of its builder's delay rows, one row at a
time.
Every link holds its symbols on one (N, M) grid, and every link but Gaussian
spreading is a cell map onto it.  The ``spread`` links, OTFS, SC-FDMA (OTFS
with N = 1) and ``dd_mapped`` (a DFT ``tf_spread`` downlink is one), use the
delay-Doppler grid and one DFT across slots; every other link uses the
time-frequency grid, row = slot and column = subcarrier, and a DFT per slot.

A chunk in the steady state allocates none of its (T, samples) stacks but
those of a random draw's channel (its band, rows or response, and the
LMMSE's solve) and of a dense detector's estimate.  Every layer on the
path takes an ``out`` and writes into a ``_Workspace``, one flat array per
name, grown by the span's longest chunk: the draw's words, noise and
bits, the mapped symbols, the user map's grid, the synthesised frame, the
received body and each delay's products, the detector's slot DFT, one-tap
and read-out (or its LMMSE and analysis DFT) in one stack, the gathered
symbols and the decided bits.  One workspace serves a span (its link is
handed it) and goes with it; nothing a chunk returns is a view of it (the
counts are ints, the PAPR values a new array).  A fixed channel's receiver
is held by its point's loop, not by the link, so the link and its views
are freed when the span ends, without the cyclic collector.  Calls made
without a workspace, by ``papr_ccdf`` and the tests, allocate as before.

Scenario files are strict JSON.  One reader walks each object against its
key table and refuses unknown, missing and null keys by name; every value
rule lives in the validation a ``Scenario`` runs whenever it is built,
parsed or copied, and its messages name the JSON key.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from itertools import groupby, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import multiuser
from .channel import (
    CHANNEL_MODES,
    EFFECTIVE_GUARD,
    FRAME_GUARD,
    DDChannelSpec,
    apply_channel,  # noqa: F401 -- unused here; bench/tracing.py wraps runner.apply_channel
    band_blocks,
    band_channel,
    band_rows,
    check_blocks,
    check_taps,
    delay_band,
    delay_rows,
    random_channel,
    random_gains,
    random_grid,
    received_power,
    tf_channel,
    windowed_dd_channel,
)
from .equalizer import (
    ML_GUARD_BITS,
    band_filter,
    band_solver,
    ml_detect,
    mmse_filter,
    one_tap_tf,
)
from .errors import ConfigError, GuardError
from .frame import (FrameParams, interleaved_allocation, localized_allocation, make_frame,
                    user_cells, user_tiling)
from .metrics import (
    LinkResult,
    count_errors,
    get_constellation,
    map_bits,
    papr,
    slice_symbols,
)
from .modem import SchemeConfig
from .oracles import chain_matrix, effective_matrix  # noqa: F401 -- bench/tracing.py wraps them here
from .transforms import (
    dd_analysis,
    dd_synthesis,
    heisenberg,
    sfft,
    slot_dft,
    wigner,  # noqa: F401 -- unused here; bench/tracing.py wraps runner.wigner
)

EQUALIZERS = ("one_tap_tf", "mmse_dd", "ml")
CSV_HEADER = "scheme,snr_db,trials,ber,ser,papr_mean,papr_p99"
#: time samples (over all frames) stacked in one chunk of trials, at most;
#: a frame longer than this runs alone
CHUNK_SAMPLES = 1 << 13
#: the largest tap power and noise variance a scenario may set, sqrt(float max):
#: the detectors square them, so a larger one could overflow to a non-finite row
POWER_CAP = math.sqrt(np.finfo(float).max)


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


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}

# One table per JSON object of a scenario: each key's default, or MISSING
# when the key is required.  A multiuser object holds MultiuserSetup's fields.
_SCENARIO_KEYS = {"frame": MISSING, "scheme": MISSING, "constellation": MISSING,
                  "channel": MISSING, "channel_mode": "per_slot_cp", "equalizer": "one_tap_tf",
                  "snr_db_list": MISSING, "trials": MISSING, "seed": MISSING, "multiuser": None}
_FRAME_KEYS = {"M": MISSING, "N": MISSING, "delta_f_hz": 15e3, "cp_len": 0}
_CHANNEL_KEYS = {"taps": None, "random": None}
_TAP_KEYS = {"delay_bin": MISSING, "doppler_bin": MISSING, "re": MISSING, "im": MISSING}
_RANDOM_KEYS = {"L_max": MISSING, "V_max": MISSING}
_MULTIUSER_KEYS = {f.name: f.default for f in fields(MultiuserSetup)}


def _is_kind(value, kind) -> bool:
    """JSON kind check: booleans are never numbers, numbers must be finite.

    The bound is a Python float, whose comparison with an int of any size is exact.
    """
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _read(raw, ctx: str, keys: dict) -> dict:
    """JSON object ``raw`` as a dict in the order of ``keys``, defaults filled in.

    Checks structure only: an object, with no unknown, missing or null key.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx} must be an object, got {raw!r}")
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {ctx}")
        if value is None:
            raise ConfigError(f"key {key!r} in {ctx} is null")
    for key, default in keys.items():
        if default is MISSING and key not in raw:
            raise ConfigError(f"missing key {key!r} in {ctx}")
    return {**keys, **raw}


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from parsed JSON.

    The key tables fix each object's keys and defaults; every value is
    checked by Scenario validation, whose messages name the JSON key.
    """
    top = _read(raw, "scenario", _SCENARIO_KEYS)
    frame = _read(top.pop("frame"), "frame", _FRAME_KEYS)
    taps, rand = _read(top.pop("channel"), "channel", _CHANNEL_KEYS).values()
    mu = top.pop("multiuser")
    if taps is not None:
        if not isinstance(taps, list):
            raise ConfigError(f"channel.taps must be a list, got {taps!r}")
        taps = tuple(tuple(_read(t, f"channel.taps[{i}]", _TAP_KEYS).values())
                     for i, t in enumerate(taps))
    if rand is not None:
        rand = tuple(_read(rand, "channel.random", _RANDOM_KEYS).values())
    if mu is not None:
        mu = MultiuserSetup(**_read(mu, "multiuser", _MULTIUSER_KEYS))
    return Scenario(**frame, **top, channel_taps=taps, channel_random=rand, multiuser=mu)


def _validate_scenario(sc: Scenario) -> None:
    if not isinstance(sc.snr_db_list, (list, tuple)) or not sc.snr_db_list:
        raise ConfigError(f"snr_db_list must be a nonempty list, got {sc.snr_db_list!r}")
    if not all(_is_kind(s, float) for s in sc.snr_db_list):
        raise ConfigError(f"snr_db_list entries must be finite numbers, got {sc.snr_db_list}")
    for snr in sc.snr_db_list:
        _noise_var(snr)
    if not _is_kind(sc.trials, int) or not 1 <= sc.trials <= 2**64:
        raise ConfigError(f"trials must be an integer from 1 to 2**64 (a trial index keys "
                          f"a 64-bit Philox counter word), got {sc.trials!r}")
    if not _is_kind(sc.seed, int) or not 0 <= sc.seed < 2**128:
        raise ConfigError("seed must be a nonnegative integer below 2**128 (the Philox key)")
    mu = sc.multiuser
    if mu is not None and not isinstance(mu, MultiuserSetup):
        raise ConfigError(f"multiuser must be a MultiuserSetup, got {mu!r}")
    kinds = [("frame.M", sc.M, int), ("frame.N", sc.N, int), ("frame.cp_len", sc.cp_len, int),
             ("frame.delta_f_hz", sc.delta_f_hz, float), ("scheme", sc.scheme, str),
             ("constellation", sc.constellation, str)]
    choices = [("equalizer", sc.equalizer, EQUALIZERS),
               ("channel_mode", sc.channel_mode, CHANNEL_MODES)]
    if mu is not None:
        kinds += [("multiuser.K_d", mu.K_d, int), ("multiuser.K_D", mu.K_D, int)]
        choices += [("multiuser.mode", mu.mode, multiuser.DOWNLINK_MODES),
                    ("multiuser.mapping", mu.mapping, ("localized", "interleaved")),
                    ("multiuser.spreader", mu.spreader, ("dft", "gaussian"))]
    try:
        for i, tap in enumerate(sc.channel_taps or ()):
            keys = [f"channel.taps[{i}].{k}" for k in _TAP_KEYS]
            kinds += zip(keys, tap, (int, int, float, float))
        for key, value in zip(_RANDOM_KEYS, sc.channel_random or ()):
            kinds.append((f"channel.random.{key}", value, int))
        for key, value, kind in kinds:
            if not _is_kind(value, kind):
                raise ConfigError(f"{key} must be {_KINDS[kind]}, got {value!r}")
        if (sc.channel_taps is None) == (sc.channel_random is None):
            raise ConfigError("channel needs exactly one of 'taps' or 'random'")
        for key, value, allowed in choices:
            if value not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
        params = sc.params
        if params.dof > FRAME_GUARD:
            raise ConfigError(
                f"frame of {sc.M} x {sc.N} grid points exceeds the {FRAME_GUARD}-point cap"
            )
        get_constellation(sc.constellation)
        SchemeConfig(sc.scheme, params, cp_len=sc.cp_len)
        _check_channel(sc)
        if mu is not None:
            user_tiling(params, mu.K_d, mu.K_D)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    bits_total = params.dof * get_constellation(sc.constellation).bits_per_symbol
    if sc.equalizer == "ml" and bits_total > ML_GUARD_BITS:
        raise ConfigError(
            f"equalizer 'ml' with {bits_total} bits per block exceeds the "
            f"{ML_GUARD_BITS}-bit exhaustive-search guard"
        )
    if mu is not None:
        if sc.equalizer == "ml":
            raise ConfigError("equalizer 'ml' is not supported with multiuser scenarios")
        budget = mu.power_budget
        if budget is not None and not (_is_kind(budget, float) and budget > 0):
            raise ConfigError(f"multiuser.power_budget must be a positive number, got {budget!r}")
        if budget is not None and mu.mode != "tf_alloc":
            raise ConfigError("power_budget applies to multiuser mode 'tf_alloc' only")
        if mu.spreader != "dft" and mu.mode != "tf_spread":
            raise ConfigError(f"multiuser.spreader {mu.spreader!r} applies to mode 'tf_spread' only")
        # each user's Gaussian S_A (M x M_d) and S_B (N x N_D) are drawn when the link is built
        spread = mu.K_D * sc.M**2 + mu.K_d * sc.N**2
        if mu.spreader == "gaussian" and spread > EFFECTIVE_GUARD**2:
            raise ConfigError(f"multiuser.spreader 'gaussian' on {sc.M} x {sc.N} needs {spread} "
                              f"spreader entries, above {EFFECTIVE_GUARD**2}")
        if budget is not None and sc.equalizer == "mmse_dd":
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


def scenario_channel(sc: Scenario, rng: np.random.Generator | None) -> DDChannelSpec:
    """The scenario's fixed channel, or a random channel drawn from ``rng``."""
    if sc.channel_random is not None:
        return random_channel(*sc.channel_random, rng)
    return DDChannelSpec(tuple((l, k, complex(re, im)) for l, k, re, im in sc.channel_taps))


def _check_channel(sc: Scenario) -> None:
    """Tap power, and the widest tap the channel can hold against the frame and mode."""
    if sc.channel_taps is not None:
        ch = scenario_channel(sc, None)
        if all(t.gain == 0 for t in ch.taps):
            raise ConfigError("channel taps carry no power (every gain is zero)")
        power = received_power(ch)
        if power > POWER_CAP:
            raise ConfigError(f"channel.taps carry power {power:.4g}, above {POWER_CAP:.4g}")
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
    if not 0 < noise_var <= POWER_CAP:
        raise ConfigError(f"snr_db_list entry {snr_db} gives a noise variance of {noise_var:.4g}, "
                          f"outside (0, {POWER_CAP:.4g}]")
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


def _word_bits(words: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``integers(0, 2, n)`` from its raw words (..., ceil(n/2)): the top bit of
    each 32-bit half, low half first (bits 31 and 63 of each word), as int64
    (..., n) in ``out`` if given."""
    halves = words.astype("<u8", copy=False).view("<u4")[..., :n]
    bits = np.empty(halves.shape, dtype=np.int64) if out is None else out
    np.copyto(bits, halves)
    bits >>= 31
    return bits


class _TrialStreams:
    """The trial streams a link draws from, every SNR point's, served by a single generator.

    :meth:`at` resets the generator's counter and output buffer to those
    of a fresh ``trial_rng(seed, snr_index, trial_index)``, which is much
    cheaper than building a new generator per trial.
    """

    def __init__(self, seed: int):
        self.rng = trial_rng(seed, 0, 0)
        state = self.rng.bit_generator.state
        # held as Python ints, which the state setter reads entry by entry
        # about 2.5 times faster than numpy scalars
        self._fresh = {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
                       "buffer": state["buffer"].tolist()}

    def at(self, snr_index: int, trial_index: int) -> np.random.Generator:
        counter = self._fresh["state"]["counter"]
        counter[1], counter[2] = trial_index, snr_index
        self.rng.bit_generator.state = self._fresh
        return self.rng


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


class _Workspace:
    """The stacks a span's chunks reuse, one flat array per name.

    :meth:`take` gives a C-contiguous view of the named array, grown only
    when a request outgrows it: a span's first chunk is its longest (unless
    the span starts late in a fixed channel's point), so every later chunk,
    of any SNR point, reuses its arrays.
    A name is a role in the chunk, and roles whose uses never overlap share
    one: ``work`` holds the mapped symbols, then each delay's products, then
    the detector's grid; ``body`` the body samples gathered for the PAPR,
    then the received body.
    """

    def __init__(self):
        self._arrays = {}

    def take(self, name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        size = math.prod(shape)
        flat = self._arrays.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._arrays[name] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


class _Link:
    """One transmit chain and its receiver, for a single user or a downlink.

    :meth:`place` is the whole user map, stacked symbols to the (N, M) grid the
    link synthesises (see :meth:`_synthesis`), and :meth:`read` is its adjoint.
    The grid is delay-Doppler for the ``spread`` links (OTFS, SC-FDMA as OTFS
    with N = 1, and ``dd_mapped``), else time-frequency (row = slot, column =
    subcarrier).  Every link but Gaussian spreading is a cell map: symbol j
    sits at cell ``cells[j]`` of the flat grid, or at cell j where ``cells`` is
    None (OTFS, SC-FDMA and OFDM).  A mapped downlink's are its users'
    ``frame.user_cells``; single-user OSTF's put payload symbol f*N + t at cell
    t*M + f.  Gaussian ``tf_spread`` keeps its ``SpreadingPair`` objects in
    ``users``, maps by ``multiuser`` and places the transpose of its grid.
    The scheme label of a downlink picks no route.
    Symbols, bits and detector output are stacked user by user, each block
    flattened row-major; every stage takes a stack of frames along leading
    axes.  A link serves every SNR point of a run, draws each frame from its
    ``streams``, and holds no noise variance: that belongs to the point, and a
    chunk carries each frame's.
    Its :meth:`receiver` gives the detector, any water-filled user powers
    and the received body of a channel from one view of it, at the noise
    variances it is given.  Its per-chunk stacks are views of the
    ``_Workspace`` ``ws`` it is given (see :meth:`_stack`), else new arrays.
    """

    def __init__(self, sc: Scenario, ws: _Workspace | None = None):
        self.sc = sc
        self.ws = ws
        self.streams = _TrialStreams(sc.seed)
        self.params = params = sc.params
        self.const = get_constellation(sc.constellation)
        self.fixed = None if sc.channel_taps is None else scenario_channel(sc, None)
        if self.fixed is None:  # each draw gives the grid's gains
            self.grid = random_grid(*sc.channel_random)
        mu = sc.multiuser
        # spreading with the users' selected DFT columns is placing them on their
        # delay-Doppler cells, so it runs as dd_mapped: tf_spread is Gaussian only
        dft = mu is not None and mu.mode == "tf_spread" and mu.spreader == "dft"
        self.mode = "dd_mapped" if dft else None if mu is None else mu.mode
        # every user map tiles the grid unitarily except Gaussian spreading,
        # and a unitary map's joint LMMSE is solved on the channel's delay band
        self.banded = self.mode != "tf_spread" and sc.equalizer == "mmse_dd"
        # the receiver builder, held by name: a bound method would be a reference cycle
        self.builder = ("_one_tap" if sc.equalizer == "one_tap_tf"
                        else "_band_lmmse" if self.banded else "_dense")
        # time-domain blocks of a frame: its slots, or the whole cyclic frame
        self.blocks = 1 if sc.channel_mode == "cyclic" else params.N
        # a spread grid is synthesised and read on the DD grid; SC-FDMA is OTFS with N = 1
        self.spread = self.mode == "dd_mapped" or mu is None and sc.scheme in ("OTFS", "SCFDMA")
        self.K, self.block, self.users, self.cells = 1, params.dof, None, None
        if mu is not None:
            allocate = localized_allocation if mu.mapping == "localized" else interleaved_allocation
            self.alloc = allocate(params, mu.K_d, mu.K_D)
            self.M_d, self.N_D = user_tiling(params, mu.K_d, mu.K_D)
            self.K, self.block = self.alloc.num_users, self.M_d * self.N_D
        if self.mode == "tf_spread":
            rng = system_rng(sc.seed, 1)  # one reserved stream, drawn sequentially so users differ

            def gauss(rows, cols):
                S = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
                return S / np.linalg.norm(S, axis=0, keepdims=True)

            self.users = [multiuser.SpreadingPair(gauss(sc.M, self.M_d), gauss(sc.N, self.N_D))
                          for _ in self.alloc.users]
        elif mu is not None:  # each user's cells t*M + f
            self.cells = np.concatenate([user_cells(*u) for u in self.alloc.users])
        elif sc.scheme == "OSTF":  # payload symbol f*N + t at cell t*M + f
            self.cells = np.arange(params.dof).reshape(params.N, params.M).T.ravel()
        self.n_bits = self.K * self.block * self.const.bits_per_symbol
        self.n_samples = sc.N * (sc.M + sc.cp_len)
        self.chunk = max(1, CHUNK_SAMPLES // self.n_samples)

    def _stack(self, name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        """A C-contiguous stack for one use in a chunk: the workspace's array
        ``name``, or a new one where the link has no workspace."""
        return np.empty(shape, dtype) if self.ws is None else self.ws.take(name, shape, dtype)

    def draw(self, frames, noise_var: np.ndarray | None = None):
        """Every draw of a chunk's T ``frames``, (snr_index, trial) pairs, from the
        link's ``streams``, trial by trial in the contract's order.

        ``noise_var`` (T,) is each frame's noise variance, one for every frame, or
        None to draw no noise.
        Returns ``(ch, gains, bits, noise)``: the fixed channel or the random tap
        grid, the draws' (T, taps) gains at the grid's taps (None for a fixed
        channel), the (T, n_bits) bits and the noise pair of (T, samples) arrays
        (None where ``noise_var`` is).
        """
        T = len(frames)
        gains = None if self.fixed else self._stack("gains", (T, len(self.grid.taps)))
        words = self._stack("words", (T, (self.n_bits + 1) // 2), np.uint64)
        noise = None if noise_var is None else self._stack("noise", (T, 2, self.n_samples), float)
        at = self.streams.at
        for i, (snr_index, trial) in enumerate(frames):
            rng = at(snr_index, trial)
            if gains is not None:
                gains[i] = random_gains(*self.sc.channel_random, rng).reshape(-1)
            words[i] = rng.bit_generator.random_raw(words.shape[1])
            if noise is not None:
                rng.standard_normal(out=noise[i])
        if noise is not None:
            noise *= np.reshape(np.sqrt(noise_var / 2.0), (-1, 1, 1))  # draw_noise's values
            noise = noise[:, 0], noise[:, 1]
        bits = _word_bits(words, self.n_bits, self._stack("bits", (T, self.n_bits), np.int64))
        return self.fixed or self.grid, gains, bits, noise

    def place(self, symbols: np.ndarray) -> np.ndarray:
        """The user map: stacked symbols (..., n) -> the (..., N, M) grid the link
        synthesises, delay-Doppler if ``spread``, else time-frequency by slot."""
        if self.mode == "tf_spread":
            blocks = symbols.reshape(*symbols.shape[:-1], self.K, self.N_D, self.M_d)
            return multiuser.downlink_superpose(
                np.moveaxis(blocks, -3, 0), self.users, self.mode).swapaxes(-1, -2)
        if self.cells is not None:
            grid = self._stack("grid", symbols.shape)
            grid[..., self.cells] = symbols
            symbols = grid
        return symbols.reshape(*symbols.shape[:-1], self.params.N, self.params.M)

    def read(self, grid: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`place`: (..., N, M) grid -> stacked symbols, a view
        where the symbols fill the grid in order."""
        lead = grid.shape[:-2]
        if self.mode == "tf_spread":
            blocks = multiuser.downlink_split(grid.swapaxes(-1, -2), self.users, self.mode)
            return np.concatenate([b.reshape(*lead, -1) for b in blocks], axis=-1)
        flat = grid.reshape(*lead, -1)
        if self.cells is None:
            return flat
        out = self._stack("read", (*lead, len(self.cells)))
        # mode "clip": with "raise", take fills a buffer of out's size and copies it over
        return np.take(flat, self.cells, axis=-1, out=out, mode="clip")

    def _synthesis(self, grid: np.ndarray, cp_len: int, out: np.ndarray | None = None):
        """The TimeSignal of :meth:`place` grids: one inverse DFT across slots
        (``dd_synthesis``) if ``spread``, else within each slot (``heisenberg``)."""
        if self.spread:
            return dd_synthesis(grid, self.params, cp_len, out)
        return heisenberg(grid.swapaxes(-1, -2), self.params, cp_len, out)

    def transmit(self, bits: np.ndarray, amp=None):
        """Synthesise (..., n_bits) bits: a TimeSignal with one frame per bit row.

        ``amp`` of shape (..., K) scales each user's symbols before the user map.
        """
        lead = bits.shape[:-1]
        symbols = map_bits(bits, self.const, self._stack("work", (*lead, self.K * self.block)))
        if amp is not None:
            symbols *= np.repeat(amp, self.block, axis=-1)
        frame = self._stack("frame", (*lead, self.n_samples))
        return self._synthesis(self.place(symbols), self.sc.cp_len, frame)

    @cached_property
    def _map_matrix(self) -> np.ndarray:
        """The channel-free user map as a matrix: stacked symbols -> prefix-free body
        samples, synthesised from stacks of symbol impulses one chunk of frames at a
        time, so that no more frames are held, under the probed builders' guard."""
        n, dof = self.K * self.block, self.params.dof
        if n > EFFECTIVE_GUARD:
            raise GuardError(f"user map on {n} points exceeds guard {EFFECTIVE_GUARD}")
        U = np.empty((dof, n), dtype=np.complex128)
        for a in range(0, n, self.chunk):
            m = min(self.chunk, n - a)
            U[:, a:a + m] = self._synthesis(self.place(np.eye(m, n, k=a)), 0).samples.T
        return U

    def receiver(self, ch: DDChannelSpec, gains: np.ndarray | None, noise_var):
        """Returns ``(detect, amp, receive)``: symbol estimates of received body
        samples (..., M*N), a budgeted downlink's (frames, K) water-filled user
        amplitudes or None, and the received body of a transmitted stack and
        its noise, ``receive(sig, noise)``.

        ``gains`` (T, taps) gives frame t ``ch``'s taps with gains[t], and
        ``noise_var`` is one noise variance, or (T,) frame t's at noise_var[t]
        where ``gains`` is given.  The link's builder, :meth:`_one_tap`,
        :meth:`_band_lmmse` or :meth:`_dense`, gives the detector, the
        amplitudes and the channel's delay rows, and every ``receive`` is
        ``band_channel`` of those rows.
        """
        detect, amp, rows = getattr(self, self.builder)(ch, gains, noise_var)

        def receive(sig, noise):
            shape = (*sig.samples.shape[:-1], self.params.dof)
            out, work = (self._stack(name, shape) for name in ("body", "work"))
            return band_channel(rows(), sig, self.sc.channel_mode, noise, out, work)

        return detect, amp, receive

    def _one_tap(self, ch: DDChannelSpec, gains: np.ndarray | None, noise_var):
        """One ``tf_channel`` call for the one-tap detector and a budgeted downlink's
        water-filling (a budget implies one-tap); the rows of the delays that carry
        taps alone, a fixed channel's built once and a random chunk's streamed by each
        receive, as a whole band of a sparse, wide-delay channel could outgrow the stack."""
        params, mu = self.params, self.sc.multiuser
        H, amp = tf_channel(ch, params, gains), None
        if mu is not None and mu.power_budget is not None:
            # user k's cells on the (M, N) response, f-major as its lone
            # (f, t) block; gathered contiguous, each mean rounds as that block's
            cells = np.array([user_cells(t, f) for f, t in self.alloc.users])
            gathered = (np.abs(H) ** 2).reshape(-1, params.dof)[:, cells]
            power = np.ascontiguousarray(gathered).mean(axis=-1)
            p = np.stack([multiuser.water_fill(q, mu.power_budget, nv)
                          for q, nv in zip(power, np.broadcast_to(noise_var, len(power)))])
            amp = np.sqrt(p / self.block)

        # the response on the slot DFT's (..., N, M) grid: the one-tap then
        # reads no transposed operand, which numpy would copy to a buffer
        H_slots = np.ascontiguousarray(H.swapaxes(-1, -2))

        def detect(body):  # the slot DFT, one-tap and read-out in one stack
            Y = self._stack("work", (*body.shape[:-1], params.N, params.M))
            slot_dft(body, params, Y)
            X = one_tap_tf(Y, H_slots, noise_var, Y)
            return self.read(sfft(X.swapaxes(-1, -2), Y) if self.spread else X)

        held = None if gains is not None else list(delay_rows(ch, params))
        return detect, amp, lambda: delay_rows(ch, params, gains) if held is None else held

    def _band(self, ch: DDChannelSpec, gains: np.ndarray | None):
        """Every frame's delay band in blocks (..., L_max, blocks, B), and its rows;
        the calling builder has run its guard."""
        band = delay_band(ch, self.params, gains)
        return band.reshape(*band.shape[:-2], self.blocks, -1), lambda: band_rows(band)

    def _band_lmmse(self, ch: DDChannelSpec, gains: np.ndarray | None, noise_var):
        """A unitary map's LMMSE: ``band_filter`` equalises the blocks of all
        frames at once on the band, then the map's analysis DFT reads them.
        The band is built after the guard: ``check_blocks`` for a fixed channel's
        filter, ``band_solver`` for a random chunk's, which refuses only where
        neither solve fits."""
        if gains is None:
            check_blocks(self.params, self.sc.channel_mode)
        else:
            band_solver(ch.L_max, self.blocks, self.params.dof // self.blocks)
        blocks, rows = self._band(ch, gains)
        equalize, params = band_filter(blocks, noise_var), self.params

        def detect(body):  # the LMMSE, then its analysis DFT in the same stack
            Y = self._stack("work", (*body.shape[:-1], params.N, params.M))
            split = (*body.shape[:-1], self.blocks, -1)
            equalize(body.reshape(split), Y.reshape(split))
            return self.read(dd_analysis(Y, Y) if self.spread
                             else slot_dft(Y.reshape(body.shape), params, Y))

        return detect, None, rows

    def _dense(self, ch: DDChannelSpec, gains: np.ndarray | None, noise_var):
        """ML, or Gaussian spreading's LMMSE: one dense detector per draw, built a draw
        at a time (a stacked filter is no faster and holds more), of body samples read
        as H U, H the draw's ``band_blocks`` and U the :attr:`_map_matrix`.  The band
        is built after the ``check_blocks`` guard, fixed or random."""
        check_blocks(self.params, self.sc.channel_mode)
        blocks, rows = self._band(ch, gains)
        # the map's guard refuses it before any channel blocks are built
        U = self._map_matrix.reshape(self.blocks, -1, self.K * self.block)
        ops, ml = [], self.sc.equalizer == "ml"
        draws = blocks.reshape(-1, *blocks.shape[-3:])
        for band, nv in zip(draws, np.broadcast_to(noise_var, len(draws))):
            A = (band_blocks(band) @ U).reshape(self.params.dof, -1)
            ops.append(A if ml else mmse_filter(A, nv))

        def detect(body):  # frame t by draw t, or every frame by the one fixed channel
            split = body.reshape(len(ops), -1, body.shape[-1])
            return np.stack([ml_detect(y, op, self.const) if ml else (op @ y[..., None])[..., 0]
                             for op, y in zip(ops, split)]).reshape(*body.shape[:-1], -1)

        return detect, None, rows

    def run_chunk(self, frames, noise_var: np.ndarray, fixed_rx=None):
        """Draw, transmit, receive and detect a chunk's frames as one stack.

        ``frames`` and ``noise_var`` are :meth:`draw`'s.  ``fixed_rx``, which a
        fixed channel needs, is its :meth:`receiver` at the noise variance of every
        frame, built once by the caller and held there: kept on the link, its
        closures would make a reference cycle.  Returns {snr_index: LinkResult} of
        the chunk's frames of each SNR point, no value a view of the workspace.
        """
        ch, gains, bits, noise = self.draw(frames, noise_var)
        detect, amp, receive = fixed_rx or self.receiver(ch, gains, noise_var)
        sig = self.transmit(bits, amp)
        paprs = papr(sig, self._stack("body", (len(frames), self.params.dof)))
        est = detect(receive(sig, noise))
        bps = self.const.bits_per_symbol
        if amp is not None:  # users given zero power carry no data
            on = np.broadcast_to(np.repeat(amp > 1e-12, self.block, axis=-1), est.shape)
            amps = np.broadcast_to(np.repeat(amp, self.block, axis=-1), est.shape)
        out, rows = {}, slice(0, 0)
        for snr_index, run in groupby(frames, key=itemgetter(0)):
            rows = slice(rows.stop, rows.stop + len(list(run)))
            e, b = est[rows], bits[rows]
            if amp is not None:  # undo each user's amplitude
                e, b = e[on[rows]] / amps[rows][on[rows]], b.reshape(*e.shape, bps)[on[rows]]
            decided = self._stack("decided", (*e.shape[:-1], e.shape[-1] * bps), np.int64)
            be, se = count_errors(b.reshape(decided.shape), slice_symbols(e, self.const, decided),
                                  bps)
            out[snr_index] = LinkResult(self.sc.scheme, self.sc.snr_db_list[snr_index],
                                        rows.stop - rows.start, be, se, decided.size, e.size,
                                        paprs[rows])
        return out


def _chunks(points, size: int):
    """The (snr_index, trial) frames of ``points``, (snr_index, start, stop) each,
    point-major, in lists of ``size``, the last one short."""
    frames = ((si, trial) for si, start, stop in points for trial in range(start, stop))
    while chunk := list(islice(frames, size)):
        yield chunk


def _run_points(sc: Scenario, points, ws: _Workspace | None = None) -> list:
    """One LinkResult per point (snr_index, start, stop), its trials [start, stop);
    the points' SNR indices are distinct.

    One link serves every point: it holds the trial streams, and the stacks
    of ``ws``, a new workspace if None.  A random channel's receiver is
    built per chunk, at each frame's noise variance, so its chunks run on
    across point boundaries; a fixed channel's is built per point, at the
    point's, and its chunks end there.  A point's chunk results are merged
    once, after its last chunk.
    """
    link = _Link(sc, _Workspace() if ws is None else ws)
    noise_var = {si: _noise_var(sc.snr_db_list[si]) for si, _, _ in points}  # unit-energy symbols
    parts = {si: [LinkResult(sc.scheme, sc.snr_db_list[si])] for si in noise_var}
    for group in [points] if link.fixed is None else [[point] for point in points]:
        point_var = None if link.fixed is None else noise_var[group[0][0]]
        fixed_rx = None if point_var is None else link.receiver(link.fixed, None, point_var)
        for frames in _chunks(group, link.chunk):
            var = np.array([noise_var[si] for si, _ in frames]) if point_var is None else point_var
            for si, part in link.run_chunk(frames, var, fixed_rx).items():
                parts[si].append(part)
    return [LinkResult.merge_all(point_parts) for point_parts in parts.values()]


def run(sc: Scenario, workers: int = 1) -> list:
    """Run the full scenario; one LinkResult per SNR point.

    Results are independent of ``workers``, an integer >= 1: the run's
    point-major sequence of (SNR point, trial) frames is cut into as many
    contiguous spans as the least of ``workers``, the usable CPUs and the
    frames, each a list of (snr_index, start, stop) points.  A lone span runs
    in this process; otherwise each span is one job of a process pool, with a
    link and a workspace of its own, and each point's parts are merged in
    span order, which is trial order.  Every trial owns its RNG stream.
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    T, n_snr = sc.trials, len(sc.snr_db_list)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(int(workers), cpus or 1, n_snr * T)
    cuts = [n_snr * T * i // n for i in range(n + 1)]
    spans = [[(si, max(a - si * T, 0), min(b - si * T, T)) for si in range(a // T, (b - 1) // T + 1)]
             for a, b in zip(cuts[:-1], cuts[1:])]
    if n == 1:
        return _run_points(sc, spans[0])
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

    with ProcessPoolExecutor(max_workers=n) as ex:
        parts = [part for results in ex.map(_run_points, [sc] * n, spans) for part in results]
    points = [si for span in spans for si, _, _ in span]  # point-major, as the parts
    return [LinkResult.merge_all([part for _, part in point_parts])
            for _, point_parts in groupby(zip(points, parts), key=itemgetter(0))]


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


# ---------------------------------------------------------------------------
# channel inspection and PAPR CCDF
# ---------------------------------------------------------------------------


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
    ch = scenario_channel(sc, system_rng(sc.seed, 2))
    params = sc.params
    H = tf_channel(ch, params)
    with np.errstate(divide="ignore"):
        H_db = np.maximum(20.0 * np.log10(np.abs(H)), -300.0)
    hw = np.abs(windowed_dd_channel(ch, params))
    paths = []

    def write(name, lines):
        paths.append(out / name)
        paths[-1].write_text("\n".join(lines) + "\n")

    for name, grid in (("tf_channel_db.csv", H_db), ("windowed_dd_abs.csv", hw)):
        write(name, [",".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(grid)])
    write("taps.csv", ["delay_bin,doppler_bin,re,im",
                       *(f"{l},{k},{g.real:.12g},{g.imag:.12g}" for l, k, g in ch.taps)])
    return paths


def papr_ccdf(sc: Scenario) -> str:
    """CCDF of per-block PAPR (dB) for the scenario's transmit chain.

    Blocks are generated with the trial streams of SNR index 0 but never
    touched by channel or noise.  Water-filling needs an SNR, so a budgeted
    downlink's users all get unit power here, and its CCDF is not that of
    the PAPR ``run`` reports.  Returns CSV text ``papr_db,ccdf``.
    """
    link, vals = _Link(sc), []
    for frames in _chunks([(0, 0, sc.trials)], link.chunk):
        # the channel draws keep the draw order aligned with simulate
        _, _, bits, _ = link.draw(frames)
        vals.extend(10.0 * math.log10(v) for v in papr(link.transmit(bits)))
    vals = np.array(vals)
    hi = float(np.ceil(vals.max() * 4) / 4) if vals.size else 0.0
    thresholds = np.arange(0.0, hi + 0.25, 0.25)
    lines = ["papr_db,ccdf"]
    for th in thresholds:
        ccdf = float(np.mean(vals > th))
        lines.append(f"{th:.12g},{ccdf:.12g}")
    return "\n".join(lines) + "\n"
