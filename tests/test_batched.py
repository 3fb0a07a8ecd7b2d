"""The chunked trial pipeline against the per-trial link it replaced.

``per_trial_range`` below is the loop the runner ran before trials ran as
(T, ...) stacks: a fresh contract stream per trial, one frame at a time
through the library's single-frame calls, and the noise drawn by
``apply_channel`` itself.  It is the reference: the chunked
``_run_points`` must count the same errors and give bitwise-equal PAPR
values for any split of a trial range, chunk boundaries included.
"""

import json

import numpy as np
import pytest

import otfsim as ot
from otfsim import multiuser, runner
from otfsim.channel import draw_noise
from otfsim.metrics import count_errors, papr, slice_symbols
from otfsim.runner import (
    _Link, _TrialStreams, scenario_channel, scenario_from_dict, trial_rng,
)
from test_channel import impulse_probe
from test_golden import GOLDEN, SCENARIOS
from test_workspace import traced, trial_range

# a scenario no golden pins: Gaussian spreading on a random channel
EXTRA = {
    "tf_spread_gaussian_mmse_random": {
        "frame": {"M": 8, "N": 4, "cp_len": 2},
        "scheme": "OTFS",
        "constellation": "QPSK",
        "channel": {"random": {"L_max": 3, "V_max": 2}},
        "channel_mode": "per_slot_cp",
        "equalizer": "mmse_dd",
        "snr_db_list": [10.0],
        "trials": 12,
        "seed": 4,
        "multiuser": {"mode": "tf_spread", "K_d": 2, "K_D": 2, "spreader": "gaussian"},
    },
}


def test_extra_names_are_not_golden_names():
    # an EXTRA key that a golden also took would run one name twice, the golden's unseen
    assert not set(EXTRA) & set(SCENARIOS)


def scenario(name):
    if name in EXTRA:
        return scenario_from_dict(EXTRA[name])
    return scenario_from_dict(json.loads((GOLDEN / f"{name}.json").read_text()))


def run_trial(link, noise_var, rng):
    """One trial on one frame: (bit errors, symbol errors, bits, symbols, PAPR)."""
    ch = scenario_channel(link.sc, rng)
    detect, amp, _ = link.receiver(ch, None, noise_var)
    amp = None if amp is None else amp[0]
    bits = rng.integers(0, 2, size=link.n_bits)
    sig = link.transmit(bits, amp)
    papr_val = papr(sig)
    rx = ot.apply_channel(sig, ch, link.params, noise_var, rng, mode=link.sc.channel_mode)
    est = detect(rx.body)
    bps = link.const.bits_per_symbol
    if amp is not None:
        on = np.repeat(amp > 1e-12, link.block)
        est = est[on] / np.repeat(amp, link.block)[on]
        bits = bits.reshape(-1, bps)[on].reshape(-1)
    be, se = count_errors(bits, slice_symbols(est, link.const), bps)
    return be, se, bits.size, est.size, papr_val


def per_trial_range(sc, snr_index, start, stop):
    link, noise_var = _Link(sc), 10.0 ** (-sc.snr_db_list[snr_index] / 10.0)
    rows = [run_trial(link, noise_var, trial_rng(sc.seed, snr_index, t))
            for t in range(start, stop)]
    counts = tuple(sum(r[i] for r in rows) for i in range(4))
    return counts, np.array([r[4] for r in rows])


def chunked(sc, snr_index, start, stop):
    res = trial_range(sc, snr_index, start, stop)
    counts = (res.bit_errors, res.symbol_errors, res.total_bits, res.total_symbols)
    return counts, res.papr_values


@pytest.mark.parametrize("name", SCENARIOS + sorted(EXTRA))
def test_chunked_range_equals_per_trial_link(name, monkeypatch):
    sc = scenario(name)
    link = _Link(sc)
    # chunks of 3 trials, so ranges start and end inside chunks and on their edges
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 3 * link.n_samples)
    assert _Link(sc).chunk == 3
    n = sc.trials
    ranges = [(0, n), (0, 1), (n - 1, n), (1, 3), (2, 8), (3, 6), (4, n)]
    for snr_index in {0, len(sc.snr_db_list) - 1}:
        for start, stop in ranges:
            want_counts, want_papr = per_trial_range(sc, snr_index, start, stop)
            got_counts, got_papr = chunked(sc, snr_index, start, stop)
            assert got_counts == want_counts, (snr_index, start, stop)
            assert np.array_equal(got_papr, want_papr), (snr_index, start, stop)


def test_default_chunk_equals_per_trial_link():
    # one range over several default-size chunks, the last one short
    d = json.loads((GOLDEN / "ostf_onetap_cyclic_16qam.json").read_text())
    sc = scenario_from_dict(dict(d, trials=1))
    link = _Link(sc)
    assert link.chunk * link.n_samples <= runner.CHUNK_SAMPLES < (link.chunk + 1) * link.n_samples
    stop = 2 * link.chunk + 5
    assert chunked(sc, 0, 0, stop)[0] == per_trial_range(sc, 0, 0, stop)[0]
    assert np.array_equal(chunked(sc, 0, 0, stop)[1], per_trial_range(sc, 0, 0, stop)[1])


def test_frame_longer_than_the_cap_runs_alone(monkeypatch):
    sc = scenario("otfs_mmse_random")
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 10)
    assert _Link(sc).chunk == 1
    assert chunked(sc, 0, 0, 3)[0] == per_trial_range(sc, 0, 0, 3)[0]


def test_peak_memory_does_not_grow_with_trials(monkeypatch):
    sc = scenario("ostf_onetap_cyclic_16qam")
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 8 * _Link(sc).n_samples)

    def peak(trials):
        trial_range(sc, 0, 0, trials)  # warm caches
        return traced(lambda: trial_range(sc, 0, 0, trials))[1]

    # 40 chunks of 8 trials peak where 4 do, beyond the PAPR values
    # (16 bytes a trial while they are merged) and a handle per chunk
    assert peak(320) < peak(32) + 320 * 16 + 40 * 256 + 16 * 1024


@pytest.mark.parametrize("name", SCENARIOS + sorted(EXTRA))
def test_user_map_matrix_is_the_probed_map(name, monkeypatch):
    # the prefix-free body samples of the link's user map, built from stacks
    # of 3 symbol impulses, the last one short when 3 does not divide the
    # symbol count, against the map probed one impulse at a time
    sc = scenario(name)
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 3 * _Link(sc).n_samples)
    link = _Link(sc)
    n = link.K * link.block
    probed = impulse_probe(lambda v: link._synthesis(link.place(v), 0), lambda s: s.samples, n)
    assert np.array_equal(link._map_matrix, probed)


def test_user_map_matrix_peak_is_the_matrix():
    # 64 Gaussian spreaders on a 32 x 32 frame: the map is built one chunk
    # of impulses at a time, and the users' grids are added as they come,
    # so the matrix itself is nearly all that is held
    d = EXTRA["tf_spread_gaussian_mmse_random"]
    sc = scenario_from_dict(dict(
        d, frame={"M": 32, "N": 32, "cp_len": 2}, multiuser=dict(d["multiuser"], K_d=8, K_D=8)
    ))
    link = _Link(sc)
    U, peak = traced(lambda: link._map_matrix)  # not warmed: the build is what is measured
    assert U.shape == (1024, 1024)
    assert peak < U.nbytes + 2**20


def draws(rng):
    ch = ot.random_channel(3, 2, rng)
    gains = np.array([tap.gain for tap in ch.taps])
    return [gains, rng.integers(0, 2, size=37), *draw_noise(rng, 0.3, 11)]


@pytest.mark.parametrize("snr_index,order", [(0, range(5, 14)), (3, [7, 2, 2, 9, 0])])
def test_reset_stream_draws_what_trial_rng_draws(snr_index, order):
    # channel, then bits, then the two noise draws, for trials in any order
    streams = _TrialStreams(17)
    for t in order:
        got, want = draws(streams.at(snr_index, t)), draws(trial_rng(17, snr_index, t))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), t


def test_one_stream_serves_interleaved_points():
    # one run's stream, reset to trials of several points in any order and
    # with the point changing between calls, draws what each fresh stream draws
    streams = _TrialStreams(2**90 + 3)
    for si, t in [(0, 0), (2, 0), (0, 1), (1, 7), (1, 7), (2**32 - 1, 3), (0, 2**63), (2, 1)]:
        got, want = streams.at(si, t), trial_rng(2**90 + 3, si, t)
        assert all(np.array_equal(a, b) for a, b in zip(draws(got), draws(want))), (si, t)
        assert stream_state(got) == stream_state(want), (si, t)


def stream_state(rng):
    """The generator state, less the 32-bit half ``integers`` of an odd count
    leaves buffered: no later draw of a trial reads it, as every one takes
    whole 64-bit words, and the stream is reset before the next trial."""
    state = rng.bit_generator.state
    counter, key = state["state"]["counter"], state["state"]["key"]
    return counter.tolist(), key.tolist(), state["buffer"].tolist(), state["buffer_pos"]


@pytest.mark.parametrize("constellation,M,N,channel", [
    ("BPSK", 3, 3, {"random": {"L_max": 2, "V_max": 2}}),  # 9 bits: an odd count
    ("QPSK", 4, 2, {"taps": [{"delay_bin": 1, "doppler_bin": 1, "re": 0.6, "im": 0.8}]}),
    ("16QAM", 4, 4, {"random": {"L_max": 2, "V_max": 1}}),
])
def test_link_draws_are_the_contract_draws(constellation, M, N, channel):
    # gains drawn without a channel object, bits read from raw words and
    # noise drawn in one call per trial equal, bitwise, what random_channel,
    # rng.integers and draw_noise draw from a fresh trial stream; each trial
    # leaves its stream where they do
    sc = scenario_from_dict({
        "frame": {"M": M, "N": N, "cp_len": 1}, "scheme": "OTFS",
        "constellation": constellation, "channel": channel,
        "snr_db_list": [3.0], "trials": 8, "seed": 2**70 + 5,
    })
    link, noise_var = _Link(sc), np.full(5, 0.7)
    frames = [(4, t) for t in range(3, 8)]
    grid, gains, bits, noise = link.draw(frames, noise_var)
    # one variance for every frame, as a fixed channel's chunk carries, draws the same
    one = link.draw(frames, 0.7)[3]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(noise, one))
    for i, t in enumerate(range(3, 8)):
        rng = trial_rng(sc.seed, 4, t)
        if gains is None:
            assert grid is link.fixed
        else:
            ch = ot.random_channel(*sc.channel_random, rng)
            assert [tap[:2] for tap in grid.taps] == [tap[:2] for tap in ch.taps]
            assert np.array_equal(gains[i], [tap.gain for tap in ch.taps])
        assert np.array_equal(bits[i], rng.integers(0, 2, size=link.n_bits))
        re, im = draw_noise(rng, 0.7, link.n_samples)
        assert np.array_equal(noise[0][i], re) and np.array_equal(noise[1][i], im)
        link.draw([(4, t)], noise_var[:1])
        assert stream_state(link.streams.rng) == stream_state(rng)
    assert bits.dtype == np.int64 and bits.shape == (5, link.n_bits)


def random_channel_as_written(L_max, V_max, rng):
    """``random_channel`` before its gains were drawn by a function of their own."""
    dopplers = np.arange(-(V_max - 1), V_max)
    shape = (L_max, dopplers.size)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    g *= np.sqrt(1.0 / (shape[0] * shape[1]) / 2.0)
    g /= np.linalg.norm(g)
    taps = [(l, int(dopplers[j]), g[l, j]) for l in range(L_max) for j in range(dopplers.size)]
    return ot.DDChannelSpec(taps=tuple(taps))


@pytest.mark.parametrize("L_max,V_max", [(1, 1), (3, 2), (2, 5), (6, 1)])
def test_random_channel_draw_is_pinned(L_max, V_max):
    # the same taps, bitwise, from the same draws, and the stream left where it was
    for t in range(4):
        a, b = trial_rng(3, 1, t), trial_rng(3, 1, t)
        assert ot.random_channel(L_max, V_max, a) == random_channel_as_written(L_max, V_max, b)
        assert stream_state(a) == stream_state(b)
        assert np.array_equal(a.normal(size=3), b.normal(size=3))


def test_banded_chunk_channel_is_apply_channel():
    # one chunk of a banded random link per mode, as the runner draws it
    for mode, cp in (("per_slot_cp", 3), ("cyclic", 0)):
        sc = scenario_from_dict({
            "frame": {"M": 7, "N": 4, "cp_len": cp}, "scheme": "OSTF", "constellation": "16QAM",
            "channel": {"random": {"L_max": 4, "V_max": 3}}, "channel_mode": mode,
            "equalizer": "mmse_dd", "snr_db_list": [5.0], "trials": 6, "seed": 33,
        })
        link, noise_var = _Link(sc), np.full(6, 0.2)
        frames = [(0, t) for t in range(6)]
        ch, gains, bits, noise = link.draw(frames, noise_var)
        sig = link.transmit(bits)
        want = ot.apply_channel(sig, ch, link.params, mode=mode, gains=gains, noise=noise)
        got = link.receiver(ch, gains, noise_var)[2](sig, noise)
        assert np.array_equal(got, want.body)


def test_draw_noise_is_two_normal_draws():
    a, b = trial_rng(9, 1, 2), trial_rng(9, 1, 2)
    re, im = draw_noise(a, 0.3, (2, 5))
    scale = np.sqrt(0.15)
    assert np.array_equal(re, b.normal(scale=scale, size=(2, 5)))
    assert np.array_equal(im, b.normal(scale=scale, size=(2, 5)))
    assert stream_state(a) == stream_state(b)


# ---------------------------------------------------------------------------
# every layer on a stack of frames equals the same layer frame by frame
# ---------------------------------------------------------------------------


def stack_equals_frames(fn, stack, *args, **kwargs):
    whole = fn(stack, *args, **kwargs)
    frames = [fn(x, *args, **kwargs) for x in stack]
    return all(np.array_equal(w, f) for w, f in zip(whole, frames))


def test_transforms_on_a_stack():
    rng = np.random.default_rng(5)
    params = ot.make_frame(8, 4)
    x = rng.normal(size=(5, 4, 8)) + 1j * rng.normal(size=(5, 4, 8))
    assert stack_equals_frames(ot.isfft, x)
    assert stack_equals_frames(ot.sfft, ot.isfft(x))
    sig = ot.heisenberg(ot.isfft(x), params, cp_len=2)
    assert sig.samples.shape == (5, 40) and sig.body.shape == (5, 32)
    for i in range(5):
        one = ot.heisenberg(ot.isfft(x[i]), params, cp_len=2)
        assert np.array_equal(sig.samples[i], one.samples)
        assert np.array_equal(ot.wigner(sig, params)[i], ot.wigner(one, params))
        assert papr(sig)[i] == papr(one)


def test_symbol_layers_on_a_stack():
    rng = np.random.default_rng(6)
    const = ot.get_constellation("16QAM")
    bits = rng.integers(0, 2, size=(4, 32))
    assert stack_equals_frames(ot.map_bits, bits, const)
    sym = ot.map_bits(bits, const) + 0.3 * rng.normal(size=(4, 8))
    assert stack_equals_frames(slice_symbols, sym, const)
    rx = slice_symbols(sym, const)
    per_frame = [count_errors(b, r, 4) for b, r in zip(bits, rx)]
    assert count_errors(bits, rx, 4) == tuple(map(sum, zip(*per_frame)))


@pytest.mark.parametrize("mode,cp_len", [("per_slot_cp", 2), ("cyclic", 0)])
def test_apply_channel_on_a_stack(mode, cp_len):
    # one gain row per frame at shared tap positions, pre-drawn noise
    rng = np.random.default_rng(7)
    params = ot.make_frame(8, 4)
    chans = [ot.random_channel(3, 3, rng) for _ in range(4)]
    gains = np.array([[t.gain for t in c.taps] for c in chans])
    X = rng.normal(size=(4, 8, 4)) + 1j * rng.normal(size=(4, 8, 4))
    sig = ot.heisenberg(X, params, cp_len=cp_len)
    noise = draw_noise(rng, 0.2, sig.samples.shape)
    got = ot.apply_channel(sig, chans[0], params, mode=mode, gains=gains, noise=noise)
    for i, ch in enumerate(chans):
        one = ot.heisenberg(X[i], params, cp_len=cp_len)
        want = ot.apply_channel(one, ch, params, mode=mode, noise=(noise[0][i], noise[1][i]))
        assert np.array_equal(got.samples[i], want.samples)
    with pytest.raises(ValueError, match="taps"):
        ot.apply_channel(sig, chans[0], params, mode=mode, gains=gains[:, :2])
    with pytest.raises(ValueError, match="not both"):
        ot.apply_channel(sig, chans[0], params, 0.1, rng, mode=mode, noise=noise)


@pytest.mark.parametrize("mode", multiuser.DOWNLINK_MODES)
def test_downlink_on_a_stack(mode):
    rng = np.random.default_rng(8)
    params = ot.make_frame(8, 4)
    users = list(ot.localized_allocation(params, 2, 2).users)
    if mode == "tf_spread":
        users = [multiuser.dft_spreading_pair(f, t) for f, t in users]
    blocks = rng.normal(size=(3, 4, 2, 4)) + 1j * rng.normal(size=(3, 4, 2, 4))
    got = multiuser.downlink_superpose(np.moveaxis(blocks, 1, 0), users, mode)
    split = multiuser.downlink_split(got, users, mode)
    for i in range(3):
        want = multiuser.downlink_superpose(blocks[i], users, mode)
        assert np.array_equal(got[i], want)
        for stacked, one in zip(split, multiuser.downlink_split(want, users, mode)):
            assert np.array_equal(stacked[i], one)
