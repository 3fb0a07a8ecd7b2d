"""Allocation-free chunks: the workspace the runner's chunks reuse.

Every layer the runner calls on each chunk takes an optional ``out`` (and,
for ``band_channel`` and ``papr``, a ``work`` scratch) and must give, bitwise,
what its allocating call gives: on a stack, on one frame, and on a short
last chunk served by the same workspace arrays, whatever those held before.
A link given a workspace must run exactly as one without, nothing that
leaves ``run_chunk`` may be a view of the workspace, and a fixed-channel
run's link must be freed as soon as the run ends, with no help from the
cyclic garbage collector.  The page-fault guard runs ``runner.run`` in a fresh
interpreter, so that the heap it measures is the run's own.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import otfsim as ot
from otfsim import equalizer, runner
from otfsim.channel import band_channel, band_rows, delay_band, delay_rows
from otfsim.equalizer import band_filter, one_tap_tf, reduction_entries, reduction_split
from otfsim.frame import make_frame
from otfsim.metrics import get_constellation, map_bits, papr, slice_symbols
from otfsim.runner import _Link, _run_points, _Workspace, scenario_from_dict
from otfsim.transforms import dd_analysis, dd_synthesis, heisenberg, sfft, slot_dft
from test_golden import GOLDEN, SCENARIOS

SRC = Path(__file__).parent.parent / "src"
# the benchmark's fixed-channel links: 16 x 8 OTFS one-tap, and a 2 x 2-user
# dd_mapped downlink with the banded LMMSE, on the same two taps
ONETAP = {
    "frame": {"M": 16, "N": 8, "cp_len": 4}, "scheme": "OTFS", "constellation": "QPSK",
    "channel": {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 0.8, "im": 0.0},
                         {"delay_bin": 2, "doppler_bin": 1, "re": 0.0, "im": 0.6}]},
    "channel_mode": "per_slot_cp", "equalizer": "one_tap_tf",
    "snr_db_list": [0, 2, 4, 6, 8, 10, 12, 14, 16, 18], "trials": 200, "seed": 0,
}
DOWNLINK = dict(ONETAP, equalizer="mmse_dd", snr_db_list=[0, 5, 10, 15], trials=100,
                multiuser={"mode": "dd_mapped", "K_d": 2, "K_D": 2, "mapping": "localized"})


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def complex_stack(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def traced(call):
    """``(call(), peak)``: the call's value and tracemalloc's peak over the call
    alone, in bytes.  Every memory pin of the tests is taken here; a caller warms
    any caches first."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trial_range(sc, snr_index: int, start: int, stop: int, ws: _Workspace | None = None):
    """Trials [start, stop) of one SNR point, run as a span of that point alone:
    a mergeable LinkResult."""
    return _run_points(sc, [(snr_index, start, stop)], ws)[0]


def stale(ws: _Workspace, name: str, shape: tuple, dtype=np.complex128):
    """The workspace's array ``name`` with its old contents replaced by garbage."""
    out = ws.take(name, shape, dtype)
    out.fill(np.nan if np.dtype(dtype).kind in "fc" else 7)
    return out


# (T, leading shape) of the stacks each layer check runs: a chunk, one frame,
# and a short last chunk taken from the arrays the first one grew
SHAPES = [(5,), (), (3,)]


class TestLayersWithOut:
    params = make_frame(8, 4)

    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16QAM"])
    def test_map_bits_and_slice_symbols(self, name):
        const, ws, rng = get_constellation(name), _Workspace(), np.random.default_rng(1)
        n = 12 * const.bits_per_symbol
        for lead in SHAPES:
            bits = rng.integers(0, 2, (*lead, n))
            got = map_bits(bits, const, stale(ws, "symbols", (*lead, 12)))
            assert same_bits(got, map_bits(bits, const))
            noisy = got + 0.4 * complex_stack(rng, *lead, 12)
            noisy[..., 0] = np.nan  # NaN parts slice to index 0 on both paths
            out = stale(ws, "bits", (*lead, n), np.int64)
            assert same_bits(slice_symbols(noisy, const, out), slice_symbols(noisy, const))

    @pytest.mark.parametrize("cp_len", [0, 3])
    def test_synthesis(self, cp_len):
        p, ws, rng = self.params, _Workspace(), np.random.default_rng(2)
        for lead in SHAPES:
            samples = (*lead, p.N * (p.M + cp_len))
            dd = complex_stack(rng, *lead, p.N, p.M)
            got = dd_synthesis(dd, p, cp_len, stale(ws, "frame", samples))
            assert same_bits(got.samples, dd_synthesis(dd, p, cp_len).samples)
            tf = complex_stack(rng, *lead, p.M, p.N)
            got = heisenberg(tf, p, cp_len, stale(ws, "frame", samples))
            assert same_bits(got.samples, heisenberg(tf, p, cp_len).samples)
            assert got.cp_len == cp_len and got.num_slots == p.N
            work = stale(ws, "papr", (*lead, p.dof))
            assert same_bits(papr(got, work), papr(got))

    def test_slot_transforms(self):
        p, ws, rng = self.params, _Workspace(), np.random.default_rng(3)
        for lead in SHAPES:
            body = complex_stack(rng, *lead, p.dof)
            out = stale(ws, "detect", (*lead, p.N, p.M))
            assert same_bits(slot_dft(body, p, out), slot_dft(body, p))
            grid = complex_stack(rng, *lead, p.N, p.M)
            assert same_bits(dd_analysis(grid, stale(ws, "detect", grid.shape)), dd_analysis(grid))
            want = dd_analysis(grid)
            assert same_bits(dd_analysis(grid, grid), want)  # in place
            tf = complex_stack(rng, *lead, p.M, p.N)
            assert same_bits(sfft(tf, stale(ws, "detect", (*lead, p.N, p.M))), sfft(tf))
            want = sfft(tf)
            assert same_bits(sfft(tf, tf.swapaxes(-1, -2)), want)  # in place, as the detector reads

    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    def test_one_tap(self, noise_var):
        p, ws, rng = self.params, _Workspace(), np.random.default_rng(4)
        for lead in SHAPES:
            y = complex_stack(rng, *lead, p.N, p.M)
            for h in (complex_stack(rng, p.N, p.M), complex_stack(rng, *lead, p.N, p.M)):
                want = one_tap_tf(y, h, noise_var)
                assert same_bits(one_tap_tf(y, h, noise_var, stale(ws, "detect", y.shape)), want)
                inplace = y.copy()
                assert same_bits(one_tap_tf(inplace, h, noise_var, inplace), want)

    @pytest.mark.parametrize("mode, cp_len", [("per_slot_cp", 3), ("cyclic", 0)])
    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "random"])
    def test_band_channel_and_filter(self, mode, cp_len, fixed):
        p, ws, rng = self.params, _Workspace(), np.random.default_rng(5)
        ch = ot.DDChannelSpec(((0, 0, 0.9), (2, 1, 0.4j), (3, -2, 0.2 - 0.1j)))
        blocks = 1 if mode == "cyclic" else p.N
        for lead in SHAPES:
            gains = None if fixed else complex_stack(rng, *lead, len(ch.taps))
            band = delay_band(ch, p, gains)
            sig = dd_synthesis(complex_stack(rng, *lead, p.N, p.M), p, cp_len)
            noise = tuple(rng.normal(size=(2, *sig.samples.shape)))
            out, work = (stale(ws, name, (*lead, p.dof)) for name in ("body", "work"))
            for rows in (lambda: band_rows(band), lambda: delay_rows(ch, p, gains)):
                want = band_channel(rows(), sig, mode, noise)
                assert same_bits(band_channel(rows(), sig, mode, noise, out, work), want)
            if lead == ():
                continue  # a random band's filter takes a stack of frames
            split = band.reshape(*band.shape[:-2], blocks, -1)
            equalize = band_filter(split, 0.2)
            y = want.reshape(*lead, blocks, -1)
            got = equalize(y, stale(ws, "detect", (*lead, p.N, p.M)).reshape(y.shape))
            assert same_bits(got, equalize(y))

    def test_word_bits(self):
        ws, rng = _Workspace(), np.random.default_rng(6)
        for lead, n in ((5,), 13), ((), 8), ((3,), 13):
            words = rng.integers(0, 2**63, (*lead, (n + 1) // 2), dtype=np.uint64) * np.uint64(2)
            got = runner._word_bits(words, n, stale(ws, "bits", (*lead, n), np.int64))
            assert same_bits(got, runner._word_bits(words, n))
            halves = words.view("<u4")
            assert np.array_equal(got, (halves[..., :n] >> 31).astype(np.int64))


def chunk_outputs(link, start, stop, noise_var):
    """Everything a chunk of trials [start, stop) of SNR point 0 produces along
    the way, copied out of the workspace."""
    frames = [(0, t) for t in range(start, stop)]
    ch, gains, bits, noise = link.draw(frames, np.full(stop - start, noise_var))
    detect, amp, receive = link.receiver(ch, gains, noise_var)
    sig = link.transmit(bits, amp)
    body = receive(sig, noise)
    parts = [bits, sig.samples, body, detect(body)]
    return [np.copy(a) for a in parts] + [gains, noise and np.copy(noise[0])]


@pytest.mark.parametrize("name", SCENARIOS)
def test_link_with_a_workspace_runs_as_one_without(name, monkeypatch):
    # a chunk of 4 and a short last chunk of 3 from the same arrays, against a
    # link that allocates every stack
    sc = runner.load_scenario(GOLDEN / f"{name}.json")
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 4 * _Link(sc).n_samples)
    noise_var = runner._noise_var(sc.snr_db_list[0])
    plain, reused = _Link(sc), _Link(sc, _Workspace())
    for start, stop in ((0, 4), (4, 7)):
        want = chunk_outputs(plain, start, stop, noise_var)
        got = chunk_outputs(reused, start, stop, noise_var)
        for g, w in zip(got, want):
            assert (g is None and w is None) or same_bits(g, w)


def workspace_arrays(ws):
    return list(ws._arrays.values())


def test_nothing_that_leaves_a_chunk_views_the_workspace():
    sc = scenario_from_dict(ONETAP)
    ws = _Workspace()
    first = trial_range(sc, 0, 0, 120, ws)
    kept = first.papr_values.copy()
    second = trial_range(sc, 1, 0, 120, ws)
    assert workspace_arrays(ws)
    for arr in workspace_arrays(ws):
        assert not np.shares_memory(first.papr_values, arr)
        assert not np.shares_memory(second.papr_values, arr)
    assert same_bits(first.papr_values, kept)
    link = _Link(sc, ws)
    frames = [(0, 0), (0, 1), (0, 2), (1, 5), (1, 6), (1, 7), (1, 8)]
    parts = link.run_chunk(frames, np.full(7, 0.1), link.receiver(link.fixed, None, 0.1))
    assert sorted(parts) == [0, 1] and [r.trials for r in parts.values()] == [3, 4]
    for r in parts.values():
        counts = (r.trials, r.bit_errors, r.symbol_errors, r.total_bits, r.total_symbols)
        assert all(type(c) is int for c in counts)
        assert not any(np.shares_memory(r.papr_values, arr) for arr in workspace_arrays(ws))


def test_points_of_a_run_share_one_workspace(monkeypatch):
    # the run's one link is handed the run's workspace, which grows only once
    # over every point
    sc = scenario_from_dict(ONETAP)
    seen, made = [], []
    real_init, real_take = _Link.__init__, _Workspace.take

    def init(self, sc, ws=None):
        seen.append(id(ws))
        real_init(self, sc, ws)

    def take(self, name, shape, dtype=np.complex128):
        before = self._arrays.get(name)
        out = real_take(self, name, shape, dtype)
        if self._arrays[name] is not before:
            made.append(name)
        return out

    monkeypatch.setattr(_Link, "__init__", init)
    monkeypatch.setattr(_Workspace, "take", take)
    runner.run(sc)
    assert len(seen) == 1 and id(None) not in seen
    assert len(made) == len(set(made))  # each array allocated once in the run


@pytest.mark.parametrize("raw", [ONETAP, DOWNLINK], ids=["onetap", "downlink"])
def test_fixed_channel_links_are_freed_without_the_cyclic_collector(raw, monkeypatch):
    # a fixed channel's receiver is held by the point's loop, not by the run's
    # one link, so the link and the stacks it holds go when the run ends
    sc = scenario_from_dict(dict(raw, trials=60))
    links = []

    class Tracked(_Link):
        def __init__(self, *args):
            super().__init__(*args)
            links.append(weakref.ref(self))

    monkeypatch.setattr(runner, "_Link", Tracked)
    gc.collect()
    gc.disable()
    try:
        runner.run(sc)
        alive = sum(ref() is not None for ref in links)
    finally:
        gc.enable()
    assert len(links) == 1 and alive == 0


FAULT_PROBE = textwrap.dedent("""
    import json, resource, sys
    from otfsim import runner
    few, many = (runner.scenario_from_dict(json.loads(a)) for a in sys.argv[1:])
    faults = {few: 0, many: 0}
    for rep in range(13):
        for sc in (few, many) if rep % 2 else (many, few):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            runner.run(sc)
            if rep >= 3:  # after a warm-up
                faults[sc] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults[few] / 10, faults[many] / 10)
""")


def test_steady_state_chunks_take_no_page_faults():
    # the benchmark's 16 x 8 one-tap link at 3 SNR points, run alternately at
    # 4 and at 40 chunks a point in one fresh interpreter: the longer run
    # must take under 100 minor faults, its 108 extra chunks included.  Each
    # run also faults in its own workspace, at most once, when the allocator
    # has returned it to the system after the run before (0.1 a run in both
    # on a 2-core x86-64 Linux host, glibc malloc).  Before the workspace
    # every chunk faulted its stacks in again there: 16206 to 16989 faults a
    # run at 40 chunks a point against 1592 to 1637 at 4
    resource = pytest.importorskip("resource")
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("minor page faults are not counted on this platform")
    sc = dict(ONETAP, snr_db_list=[0.0, 8.0, 16.0])
    path = os.environ.get("PYTHONPATH")
    out = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE,
         json.dumps(dict(sc, trials=4 * 51)), json.dumps(dict(sc, trials=40 * 51))],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))},
    )
    few, many = map(float, out.stdout.split())
    assert many - few < 100 and many < 100, (few, many)


@pytest.mark.parametrize("L", [1, 3, 5, 17], ids=lambda L: f"K{reduction_split(L, 64)[1]}")
def test_reduction_peak_is_within_its_entry_bound(L):
    # the cyclic reduction of T frames holds at most reduction_entries complex
    # entries a frame at its peak, output included (tracemalloc)
    blocks, B, T = 2, 64, 3
    nb, K = reduction_split(L, B)
    assert nb > 1 and K == {1: 1, 3: 2, 5: 4, 17: 16}[L]
    rng = np.random.default_rng(L)
    band, y = complex_stack(rng, T, L, blocks, B), complex_stack(rng, T, blocks, B)
    equalizer._reduce_solve(band, y, 0.1)  # warm the index caches
    peak = traced(lambda: equalizer._reduce_solve(band, y, 0.1))[1]
    assert peak <= 16 * T * reduction_entries(L, blocks, B)
    # the band's copies and the gathered rows are gone before the solve: 0.53-0.62
    # of the bound measured (numpy 2.4), 0.69-0.87 while they were held through it
    assert peak <= 0.65 * 16 * T * reduction_entries(L, blocks, B)


@pytest.mark.parametrize("M, N, T", [(32, 16, 14), (64, 32, 3), (16, 8, 40)])
def test_band_and_band_channel_peaks_are_pinned(M, N, T):
    # delay_band holds at most 2.25 times the band it returns, and
    # band_channel 1.1 times the (T, M*N) stack with out and work given, 3.25
    # times without; 2.03-2.08, 1.017-1.024 and 3.017-3.024 measured (numpy 2.4)
    p, rng, V = make_frame(M, N), np.random.default_rng(M), N // 2 + 1
    ch = ot.DDChannelSpec(tuple((l, k, 1) for l in range(3) for k in range(1 - V, V)))
    gains = complex_stack(rng, T, len(ch.taps))
    band = delay_band(ch, p, gains)  # and warm any caches
    assert traced(lambda: delay_band(ch, p, gains))[1] <= 2.25 * band.nbytes
    stack = 16 * T * p.dof
    for mode, cp_len in (("per_slot_cp", 2), ("cyclic", 0)):
        sig = dd_synthesis(complex_stack(rng, T, N, M), p, cp_len)
        noise = tuple(rng.normal(size=(2, *sig.samples.shape)))
        out, work = np.empty((T, p.dof), complex), np.empty((T, p.dof), complex)
        band_channel(band_rows(band), sig, mode, noise, out, work)  # warm any caches
        given = traced(lambda: band_channel(band_rows(band), sig, mode, noise, out, work))[1]
        assert given <= 1.1 * stack
        band_channel(band_rows(band), sig, mode, noise)  # warm any caches
        assert traced(lambda: band_channel(band_rows(band), sig, mode, noise))[1] <= 3.25 * stack


@pytest.mark.parametrize("mode", ["per_slot_cp", "cyclic"])
@pytest.mark.parametrize("M, N, T", [(8, 4, 3), (8, 4, 14), (16, 8, 14)])
def test_dense_receiver_holds_one_detector_per_draw(M, N, T, mode):
    # Gaussian spreading's receiver of a chunk of T random draws holds one
    # filter of a draw's operator size (16 B * n * M*N) per draw, and at most
    # 8 more operators at its peak; 4.5-5.7 more measured (numpy 2.4)
    sc = scenario_from_dict({
        "frame": {"M": M, "N": N, "cp_len": int(mode == "per_slot_cp")}, "scheme": "OTFS",
        "constellation": "QPSK", "channel": {"random": {"L_max": 2, "V_max": 2}},
        "channel_mode": mode, "equalizer": "mmse_dd", "snr_db_list": [10.0], "trials": T,
        "seed": 1, "multiuser": {"mode": "tf_spread", "K_d": 2, "K_D": 2, "spreader": "gaussian"},
    })
    link, noise_var = _Link(sc), np.full(T, 0.1)
    gains = complex_stack(np.random.default_rng(M), T, len(link.grid.taps))
    operator = 16 * link.K * link.block * sc.params.dof
    link.receiver(link.grid, gains, noise_var)  # warm caches, the map matrix among them
    assert traced(lambda: link.receiver(link.grid, gains, noise_var))[1] <= (T + 8) * operator
