"""Scenario parsing, deterministic execution, and CSV output."""

import copy
import json
import os
import random
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
import otfsim.runner
from otfsim import multiuser
from otfsim.channel import (
    EFFECTIVE_GUARD, band_blocks, band_channel, band_rows, delay_band, draw_noise,
)
from otfsim.equalizer import (
    _band_adjoint, _dense_solve, _reduce_solve, band_filter, band_solver, reduction_split,
)
from otfsim.errors import ConfigError, GuardError
from otfsim.frame import user_cells
from otfsim.metrics import LinkResult, map_bits, papr
from otfsim.oracles import chain_matrix
from otfsim.runner import (
    CSV_HEADER,
    MultiuserSetup,
    _Link,
    _noise_var,
    _TrialStreams,
    format_csv,
    load_scenario,
    papr_ccdf,
    run,
    run_trial_range,
    scenario_channel,
    scenario_from_dict,
    system_rng,
    trial_rng,
)
from otfsim.transforms import dd_analysis, dd_synthesis, slot_dft
from test_channel import (
    impulse_probe, per_tap_channel_oracle, probed_slot_chain, probed_time_channel,
)
from test_golden import GOLDEN, SCENARIOS
from test_workspace import traced


def base_dict(**over):
    d = {
        "frame": {"M": 8, "N": 2},
        "scheme": "OTFS",
        "constellation": "QPSK",
        "channel": {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 1.0, "im": 0.0}]},
        "channel_mode": "cyclic",
        "equalizer": "one_tap_tf",
        "snr_db_list": [10.0],
        "trials": 4,
        "seed": 7,
    }
    d.update(over)
    return d


def tf_map(link, symbols):
    """The link's user map onto the (M, N) time-frequency grid: its
    :meth:`_Link.place`, taken through the ISFFT where the link is ``spread``
    (OTFS, SC-FDMA as OTFS with N = 1, and ``dd_mapped``), else transposed
    from the slot-major grid."""
    grid = link.place(symbols)
    return ot.isfft(grid) if link.spread else grid.swapaxes(-1, -2)


def tf_read(link, X):
    """Adjoint of :func:`tf_map`: (M, N) time-frequency grid -> stacked symbols."""
    return link.read(ot.sfft(X) if link.spread else X.swapaxes(-1, -2))


def symbol_chain(link, own):
    """``(tx, rx, dim)`` on stacks: the library's symbol map of the link to its
    received body on channel ``own``, by the modem for one user and by
    ``downlink_superpose`` for the users of a downlink, DFT spreading by its
    dense pairs so that the reference does not take the link's route."""
    sc, params, cp = link.sc, link.params, link.sc.cp_len
    mu = sc.multiuser
    if mu is None:
        cfg = ot.SchemeConfig(sc.scheme, params, cp_len=cp)
    elif mu.mode != "tf_spread":
        users = link.alloc.users
    elif mu.spreader == "gaussian":
        users = link.users
    else:
        users = [multiuser.dft_spreading_pair(f, t) for f, t in link.alloc.users]

    def tx(V):
        if mu is None:
            return ot.modulate(cfg, V.reshape(-1, *ot.payload_shape(cfg)))
        blocks = list(V.reshape(-1, link.K, link.N_D, link.M_d).swapaxes(0, 1))
        X = multiuser.downlink_superpose(blocks, users, mu.mode)
        return ot.heisenberg(X, params, cp_len=cp)

    def rx(sig):
        return ot.apply_channel(sig, own, params, mode=sc.channel_mode).body

    return tx, rx, link.K * link.block


class TestScenarioParsing:
    def test_minimal_with_defaults(self):
        d = base_dict()
        del d["channel_mode"]
        del d["equalizer"]
        sc = scenario_from_dict(d)
        assert sc.delta_f_hz == 15e3 and sc.cp_len == 0
        assert sc.channel_mode == "per_slot_cp" and sc.equalizer == "one_tap_tf"
        assert sc.multiuser is None
        assert sc.params.M == 8

    @pytest.mark.parametrize("missing", ["frame", "scheme", "constellation", "channel",
                                         "snr_db_list", "trials", "seed"])
    def test_missing_top_level_key(self, missing):
        d = base_dict()
        del d[missing]
        with pytest.raises(ConfigError, match=missing):
            scenario_from_dict(d)

    def test_unknown_keys_named_in_error(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            scenario_from_dict(base_dict(bandwidth=10e6))
        d = base_dict()
        d["frame"]["window"] = "rect"
        with pytest.raises(ConfigError, match="window"):
            scenario_from_dict(d)
        d = base_dict()
        d["channel"]["profile"] = "uniform"
        with pytest.raises(ConfigError, match="profile"):
            scenario_from_dict(d)
        d = base_dict()
        d["channel"]["taps"][0]["gain"] = 1.0
        with pytest.raises(ConfigError, match="gain"):
            scenario_from_dict(d)

    def test_missing_frame_key(self):
        d = base_dict()
        del d["frame"]["N"]
        with pytest.raises(ConfigError, match="'N'"):
            scenario_from_dict(d)

    def test_missing_tap_field(self):
        d = base_dict()
        del d["channel"]["taps"][0]["im"]
        with pytest.raises(ConfigError, match="im"):
            scenario_from_dict(d)

    def test_channel_needs_exactly_one_source(self):
        d = base_dict()
        d["channel"]["random"] = {"L_max": 2, "V_max": 1}
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_from_dict(d)
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_from_dict(base_dict(channel={}))

    def test_empty_taps_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(base_dict(channel={"taps": []}))

    def test_random_channel_spec(self):
        sc = scenario_from_dict(base_dict(channel={"random": {"L_max": 3, "V_max": 2}}))
        assert sc.channel_taps is None and sc.channel_random == (3, 2)

    def test_random_extra_key(self):
        with pytest.raises(ConfigError, match="rho"):
            scenario_from_dict(
                base_dict(channel={"random": {"L_max": 3, "V_max": 2, "rho": 0.5}})
            )

    @pytest.mark.parametrize("field,value", [
        ("scheme", "GFDM"),
        ("constellation", "8PSK"),
        ("equalizer", "dfe"),
        ("channel_mode", "linear"),
        ("trials", 0),
        ("seed", -1),
        ("snr_db_list", []),
        ("trials", 2.7),
        ("trials", True),
        ("seed", "7"),
        ("snr_db_list", 10.0),
        ("snr_db_list", [True]),
        ("channel", [1]),
        ("multiuser", "dd_mapped"),
        # a tap power above POWER_CAP overflowed in the detectors to a non-finite row
        ("channel", {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 1e200, "im": 0.0}]}),
        ("channel", {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 1e308, "im": 1e308}]}),
        ("snr_db_list", [10.0, -3080.0]),  # a noise variance of 1e308 overflowed in ml
    ])
    def test_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            scenario_from_dict(base_dict(**{field: value}))

    @pytest.mark.parametrize("field,value", [
        ("trials", 0),
        ("seed", 2**128),
        ("snr_db_list", ()),
        ("snr_db_list", 10.0),  # once a TypeError: 'float' object is not iterable
        ("snr_db_list", (4000.0,)),  # the noise variance underflows to zero
        ("snr_db_list", (-1541.3,)),  # its noise variance, 1.35e154, is above POWER_CAP
        ("channel_taps", ((0, 0, 1e154, 0.0),)),  # its power 1e308 is finite but above the cap
        ("cp_len", 2),  # cyclic mode takes no prefix
    ])
    def test_replaced_copy_is_validated(self, field, value):
        sc = scenario_from_dict(base_dict())
        with pytest.raises(ConfigError):
            replace(sc, **{field: value})

    @pytest.mark.parametrize("field,value,named", [
        ("equalizer", "zf", "equalizer"),
        ("channel_mode", "linear", "channel_mode"),
        ("M", 8.0, "frame.M"),
        ("N", 2.0, "frame.N"),
        ("cp_len", 0.0, "frame.cp_len"),
        ("delta_f_hz", None, "frame.delta_f_hz"),
        ("constellation", ["QPSK"], "constellation"),
        ("channel_random", (2, 1), "exactly one"),  # next to the taps
        ("channel_random", (2.0, 1), "L_max"),
        ("channel_taps", None, "exactly one"),  # no channel left
        ("channel_taps", ((0, 0, 1.0, 0.0), (1.5, 0, 1.0, 0.0)), r"taps\[1\].delay_bin"),
        ("channel_taps", ((0, 0, 1e200, 0.0),), "channel.taps"),
        ("snr_db_list", (-3080.0,), "snr_db_list"),
        ("multiuser", MultiuserSetup("uplink", 2, 1), "multiuser.mode"),
        ("multiuser", MultiuserSetup("tf_alloc", 2, 1, mapping="random"), "multiuser.mapping"),
        ("multiuser", MultiuserSetup("tf_spread", 2, 1, spreader="walsh"), "multiuser.spreader"),
        ("multiuser", MultiuserSetup("tf_alloc", 2.0, 1), "multiuser.K_d"),
        ("multiuser", {"mode": "tf_alloc", "K_d": 2, "K_D": 1}, "MultiuserSetup"),
    ])
    def test_replaced_copy_is_held_to_the_parser_rules(self, field, value, named):
        sc = scenario_from_dict(base_dict())
        with pytest.raises(ConfigError, match=named):
            replace(sc, **{field: value})

    @pytest.mark.parametrize("over,named", [
        ({"multiuser": None}, "multiuser"),
        ({"channel": {"taps": None, "random": {"L_max": 2, "V_max": 1}}}, "taps"),
        ({"frame": {"M": 8, "N": 2, "cp_len": None}}, "cp_len"),
        ({"equalizer": None}, "equalizer"),
    ])
    def test_null_is_refused_not_read_as_absent(self, over, named):
        with pytest.raises(ConfigError, match=f"'{named}'.*null"):
            scenario_from_dict(base_dict(**over))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            scenario_from_dict(base_dict(snr_db_list=[10.0, bad]))

    @pytest.mark.parametrize("bad", ["ten", None, {"db": 3}, [3.0]])
    def test_non_numeric_snr_rejected(self, bad):
        with pytest.raises(ConfigError, match="numbers"):
            scenario_from_dict(base_dict(snr_db_list=[10.0, bad]))

    def test_invalid_frame_combo(self):
        # OFDM on a multislot frame is a ValueError downstream, surfaced
        # as a ConfigError by validation
        with pytest.raises(ConfigError):
            scenario_from_dict(base_dict(scheme="OFDM"))

    def test_cp_len_must_fit(self):
        d = base_dict()
        d["frame"]["cp_len"] = 8
        with pytest.raises(ConfigError):
            scenario_from_dict(d)

    def test_duplicate_taps_rejected(self):
        tap = {"delay_bin": 0, "doppler_bin": 0, "re": 1.0, "im": 0.0}
        with pytest.raises(ConfigError):
            scenario_from_dict(base_dict(channel={"taps": [tap, dict(tap)]}))

    def test_ml_guard_applied_at_parse_time(self):
        d = base_dict(equalizer="ml")  # 8*2 symbols * 2 bits = 32 > 16
        with pytest.raises(ConfigError, match="guard"):
            scenario_from_dict(d)
        ok = base_dict(equalizer="ml", constellation="BPSK")
        ok["frame"] = {"M": 4, "N": 2}
        assert scenario_from_dict(ok).equalizer == "ml"

    def test_multiuser_parsing_and_tiling(self):
        mu = {"mode": "tf_alloc", "K_d": 2, "K_D": 1}
        sc = scenario_from_dict(base_dict(multiuser=mu))
        assert sc.multiuser.mapping == "localized" and sc.multiuser.spreader == "dft"
        bad = {"mode": "tf_alloc", "K_d": 3, "K_D": 1}
        with pytest.raises(ConfigError, match="tiling"):
            scenario_from_dict(base_dict(multiuser=bad))

    def test_multiuser_rejects_ml(self):
        d = base_dict(equalizer="ml", constellation="BPSK",
                      multiuser={"mode": "dd_mapped", "K_d": 2, "K_D": 1})
        d["frame"] = {"M": 4, "N": 2}
        with pytest.raises(ConfigError, match="ml"):
            scenario_from_dict(d)

    def test_multiuser_bad_fields(self):
        with pytest.raises(ConfigError, match="mode"):
            scenario_from_dict(base_dict(multiuser={"mode": "fdma", "K_d": 2, "K_D": 1}))
        with pytest.raises(ConfigError, match="mapping"):
            scenario_from_dict(base_dict(
                multiuser={"mode": "tf_alloc", "K_d": 2, "K_D": 1, "mapping": "hopping"}
            ))
        with pytest.raises(ConfigError, match="spread"):
            scenario_from_dict(base_dict(
                multiuser={"mode": "tf_spread", "K_d": 2, "K_D": 1, "spreader": "walsh"}
            ))
        # once parsed and run as plain dd_mapped, its CSV that of the dft spreader
        with pytest.raises(ConfigError, match="multiuser.spreader"):
            scenario_from_dict(base_dict(
                multiuser={"mode": "dd_mapped", "K_d": 2, "K_D": 1, "spreader": "gaussian"}
            ))

    def test_power_budget_constraints(self):
        with pytest.raises(ConfigError, match="tf_alloc"):
            scenario_from_dict(base_dict(
                multiuser={"mode": "dd_mapped", "K_d": 2, "K_D": 1, "power_budget": 1.0}
            ))
        with pytest.raises(ConfigError, match="mmse_dd"):
            scenario_from_dict(base_dict(
                equalizer="mmse_dd",
                multiuser={"mode": "tf_alloc", "K_d": 2, "K_D": 1, "power_budget": 1.0},
            ))
        ok = scenario_from_dict(base_dict(
            multiuser={"mode": "tf_alloc", "K_d": 2, "K_D": 1, "power_budget": 2.0}
        ))
        assert ok.multiuser.power_budget == 2.0
        with pytest.raises(ConfigError, match="power_budget"):
            replace(ok, multiuser=replace(ok.multiuser, power_budget="2"))

    def test_load_scenario_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario(bad)

    def test_load_scenario_round_trip(self, tmp_path):
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(base_dict()))
        assert load_scenario(p) == scenario_from_dict(base_dict())

    def test_mutated_golden_scenarios_parse_or_raise_config_error(self):
        # seeded mutations of every golden scenario: replace a value with
        # an ill-typed or out-of-range one, drop a key or add an unknown key;
        # a mutant that parses and has at most 512 grid points also runs
        # one trial at one SNR point, which may refuse only by a guard
        mutants = [None, True, False, 0, -1, 1, 3, 2.7, -0.5, float("nan"),
                   float("inf"), "x", "", [], [3], {}, {"a": 1}]

        def spots(node):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in list(items):
                yield node, key
                if isinstance(value, (dict, list)):
                    yield from spots(value)

        rng = random.Random(20)
        parsed = refused = ran = 0
        for name in SCENARIOS:
            base = json.loads((GOLDEN / f"{name}.json").read_text())
            for _ in range(150):
                d = copy.deepcopy(base)
                for _ in range(rng.randint(1, 2)):
                    node, key = rng.choice(list(spots(d)))
                    op = rng.random()
                    if op < 0.7 or isinstance(node, list):
                        node[key] = copy.deepcopy(rng.choice(mutants))
                    elif op < 0.85:
                        del node[key]
                    else:
                        node["extra"] = 1
                try:
                    sc = scenario_from_dict(d)
                    parsed += 1
                except ConfigError:
                    refused += 1
                    continue
                if sc.params.dof <= 512:
                    try:
                        run_trial_range(sc, len(sc.snr_db_list) - 1, 0, 1)
                        ran += 1
                    except GuardError:
                        pass
        assert parsed > 0 and refused > 0 and ran > 0


class TestRNGStreams:
    def test_trial_streams_reproducible_and_distinct(self):
        a = trial_rng(7, 0, 3).normal(size=4)
        b = trial_rng(7, 0, 3).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, trial_rng(7, 0, 4).normal(size=4))
        assert not np.array_equal(a, trial_rng(7, 1, 3).normal(size=4))
        assert not np.array_equal(a, trial_rng(8, 0, 3).normal(size=4))

    def test_system_streams_reserved(self):
        s1 = system_rng(7, 1).normal(size=4)
        s2 = system_rng(7, 2).normal(size=4)
        t0 = trial_rng(7, 0, 0).normal(size=4)
        assert not np.array_equal(s1, s2)
        assert not np.array_equal(s1, t0)


#: the usable CPUs a fake pool's process sees
CPUS = 5


@pytest.fixture
def in_process_pool(monkeypatch):
    """A process pool that maps in this process, on ``CPUS`` usable CPUs: it records
    each pool's size in ``opened`` and each pool's jobs, their argument tuples, in
    ``jobs``.  No process is started."""
    import concurrent.futures
    from types import SimpleNamespace

    pools = SimpleNamespace(opened=[], jobs=[])

    class InProcessPool:
        def __init__(self, max_workers):
            pools.opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            pools.jobs.append(list(zip(*iterables)))
            return (fn(*job) for job in pools.jobs[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(CPUS)), raising=False)
    return pools


def assert_bitwise(got, want):
    """Two runs' results: the same CSV, counts and PAPR values, bit for bit."""
    assert format_csv(got) == format_csv(want)
    for g, w in zip(got, want, strict=True):
        assert (g.bit_errors, g.symbol_errors, g.total_bits, g.total_symbols) == (
            w.bit_errors, w.symbol_errors, w.total_bits, w.total_symbols)
        assert np.array_equal(g.papr_values, w.papr_values)


class TestExecution:
    def test_run_is_deterministic(self):
        sc = scenario_from_dict(base_dict(snr_db_list=[0.0, 10.0], trials=5))
        a = format_csv(run(sc))
        b = format_csv(run(sc))
        assert a == b

    def test_partition_merge_identity(self):
        sc = scenario_from_dict(base_dict(snr_db_list=[4.0], trials=9))
        whole = run_trial_range(sc, 0, 0, 9)
        left = run_trial_range(sc, 0, 0, 4)
        right = run_trial_range(sc, 0, 4, 9)
        merged = left.merge(right)
        assert merged.bit_errors == whole.bit_errors
        assert merged.symbol_errors == whole.symbol_errors
        assert merged.total_bits == whole.total_bits
        assert merged.trials == whole.trials == 9
        assert_allclose(merged.papr_values, whole.papr_values)

    def test_a_point_merges_its_chunks_once(self, monkeypatch):
        # chunks of 2 trials: 5 chunks a point, yet its PAPR values are gathered in one
        # step, not copied again for every chunk
        sc = scenario_from_dict(base_dict(snr_db_list=[0.0, 10.0], trials=9))
        want = format_csv(run(sc))
        monkeypatch.setattr(otfsim.runner, "CHUNK_SAMPLES", 2 * _Link(sc).n_samples)
        sizes, real = [], LinkResult.merge_all

        def merge_all(parts):
            sizes.append(len(parts))
            return real(parts)

        def merge(self, other):
            raise AssertionError("a chunk was merged on its own")

        monkeypatch.setattr(LinkResult, "merge_all", staticmethod(merge_all))
        monkeypatch.setattr(LinkResult, "merge", merge)
        assert format_csv(run(sc)) == want
        assert sizes == [6, 6]  # the point's empty start and its 5 chunks

    @pytest.mark.parametrize("mode,cp", [("per_slot_cp", 2), ("cyclic", 0)])
    def test_banded_random_range_equals_its_splits_bitwise(self, mode, cp, monkeypatch,
                                                           in_process_pool):
        # chunks of 3 trials: the splits start and end inside chunks and on their edges,
        # and so do a pool's spans of the run's 20 frames, which also end inside points
        sc = scenario_from_dict(base_dict(
            frame={"M": 5, "N": 4, "cp_len": cp}, channel={"random": {"L_max": 3, "V_max": 3}},
            channel_mode=mode, equalizer="mmse_dd", constellation="16QAM",
            snr_db_list=[8.0, 14.0], trials=10,
        ))
        monkeypatch.setattr(otfsim.runner, "CHUNK_SAMPLES", 3 * _Link(sc).n_samples)
        whole = run_trial_range(sc, 0, 0, 10)
        for cuts in ([0, 4, 10], [0, 1, 2, 7, 10], [0, 3, 6, 9, 10]):
            parts = [run_trial_range(sc, 0, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
            merged = reduce(lambda x, y: x.merge(y), parts)
            assert (merged.bit_errors, merged.symbol_errors, merged.total_bits) == (
                whole.bit_errors, whole.symbol_errors, whole.total_bits)
            assert np.array_equal(merged.papr_values, whole.papr_values)
        assert whole.bit_errors > 0
        ref = run(sc)
        for workers in (3, 4):
            assert_bitwise(run(sc, workers), ref)
        assert in_process_pool.opened == [3, 4]
        assert [span for _, span in in_process_pool.jobs[0]] == [
            [(0, 0, 6)], [(0, 6, 10), (1, 0, 3)], [(1, 3, 10)]]
        assert [span for _, span in in_process_pool.jobs[1]] == [
            [(0, 0, 5)], [(0, 5, 10)], [(1, 0, 5)], [(1, 5, 10)]]

    def test_worker_count_does_not_change_output(self):
        sc = scenario_from_dict(base_dict(trials=6))
        ref = format_csv(run(sc, workers=1))
        assert format_csv(run(sc, workers=3)) == ref

    def test_pool_is_bounded_by_the_usable_cpus(self, in_process_pool):
        # the run's 24 point-major frames on 5 usable CPUs: 5 spans of 4 or 5 frames,
        # cut inside points, at any larger worker count; a lone span needs no pool
        sc = scenario_from_dict(base_dict(snr_db_list=[4.0, 10.0], trials=12))
        ref = run(sc, workers=1)
        assert in_process_pool.opened == []
        for workers in (10_000, 8):
            assert_bitwise(run(sc, workers=workers), ref)
        spans = [[(0, 0, 4)], [(0, 4, 9)], [(0, 9, 12), (1, 0, 2)], [(1, 2, 7)], [(1, 7, 12)]]
        assert in_process_pool.opened == [CPUS, CPUS]
        assert in_process_pool.jobs == [[(sc, span) for span in spans]] * 2
        # no more spans than frames: 3 points of one trial open 3 processes
        sc = scenario_from_dict(base_dict(snr_db_list=[0.0, 4.0, 10.0], trials=1))
        assert_bitwise(run(sc, workers=10_000), run(sc))
        assert in_process_pool.opened[2:] == [3]
        assert in_process_pool.jobs[2] == [(sc, [(si, 0, 1)]) for si in range(3)]

    def test_a_run_builds_one_link_a_span(self, in_process_pool, monkeypatch):
        # onetap_sweep's shape, 10 points of 200 trials: one link (with its trial
        # streams and workspace) a span, however many workers are asked for
        sc = scenario_from_dict(base_dict(
            frame={"M": 16, "N": 8, "cp_len": 4}, channel_mode="per_slot_cp",
            snr_db_list=list(range(0, 20, 2)), trials=200))
        builds, init = [], _Link.__init__
        monkeypatch.setattr(_Link, "__init__",
                            lambda self, *a, **k: builds.append(1) or init(self, *a, **k))
        run(sc, workers=10_000)
        assert in_process_pool.opened == [CPUS]
        assert len(builds) <= CPUS

    @pytest.mark.parametrize("workers", [0, -1, np.int64(0), 2.5, 2.0, np.float64(2), True, False,
                                         np.True_, "2", None], ids=repr)
    def test_workers_validation(self, workers):
        sc = scenario_from_dict(base_dict())
        with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
            run(sc, workers=workers)

    def test_numpy_integer_workers(self, in_process_pool):
        sc = scenario_from_dict(base_dict(snr_db_list=[4.0, 10.0], trials=6))
        assert_bitwise(run(sc, workers=np.int64(2)), run(sc))
        assert in_process_pool.opened == [2]
        assert in_process_pool.jobs == [[(sc, [(0, 0, 6)]), (sc, [(1, 0, 6)])]]

    def test_identity_channel_high_snr_error_free(self):
        sc = scenario_from_dict(base_dict(snr_db_list=[60.0], trials=3))
        (res,) = run(sc)
        assert res.bit_errors == 0 and res.total_bits == 3 * 16 * 2

    def test_mmse_matches_onetap_on_flat_channel(self):
        # identity channel: both equalizers see the same diagonal problem
        flat = base_dict(snr_db_list=[8.0], trials=6)
        a = run(scenario_from_dict(flat))[0]
        flat["equalizer"] = "mmse_dd"
        b = run(scenario_from_dict(flat))[0]
        assert a.bit_errors == b.bit_errors

    def test_random_channel_runs(self):
        sc = scenario_from_dict(base_dict(
            channel={"random": {"L_max": 2, "V_max": 1}},
            equalizer="mmse_dd",
            snr_db_list=[20.0],
            trials=3,
        ))
        (res,) = run(sc)
        assert res.trials == 3 and res.total_symbols == 48

    def test_per_slot_mode_with_prefix(self):
        d = base_dict(channel_mode="per_slot_cp", snr_db_list=[50.0], trials=2)
        d["frame"]["cp_len"] = 2
        d["channel"]["taps"].append(
            {"delay_bin": 1, "doppler_bin": 0, "re": 0.3, "im": 0.0}
        )
        (res,) = run(scenario_from_dict(d))
        assert res.bit_errors == 0

    def test_ml_equalizer_runs(self):
        d = base_dict(equalizer="ml", constellation="BPSK", snr_db_list=[30.0], trials=2)
        d["frame"] = {"M": 4, "N": 2}
        (res,) = run(scenario_from_dict(d))
        assert res.bit_errors == 0 and res.total_bits == 16

    @pytest.mark.parametrize("scheme,M,N", [
        ("OTFS", 16, 8), ("OSTF", 8, 4), ("OFDM", 16, 1), ("SCFDMA", 16, 1),
    ])
    def test_per_slot_mmse_detector_is_joint_lmmse(self, scheme, M, N):
        # the engine's LMMSE, solved on the channel's delay band, against the
        # dense LMMSE of the probed chain, on one random channel and a noisy block
        from otfsim.modem import demodulate, modulate, payload_shape

        d = base_dict(
            scheme=scheme,
            channel={"random": {"L_max": 3, "V_max": 2 if N > 1 else 1}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
        )
        d["frame"] = {"M": M, "N": N, "cp_len": 2}
        link = _Link(scenario_from_dict(d))
        cfg = ot.SchemeConfig(scheme, link.params, cp_len=2)
        rng = trial_rng(3, 0, 0)
        ch = scenario_channel(link.sc, rng)
        shape = payload_shape(cfg)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rx = ot.apply_channel(modulate(cfg, x), ch, link.params, 0.1, rng)
        A = ot.effective_matrix(cfg, ch, mode="per_slot_cp")
        joint = ot.mmse_dd(demodulate(cfg, rx), A, 0.1)
        got = link.receiver(ch, None, 0.1)[0](rx.body)
        assert got.shape == (x.size,)  # the payload grid, flattened row-major
        assert np.abs(got - joint).max() < 1e-10

    @pytest.mark.parametrize("channel_mode", ["cyclic", "per_slot_cp"])
    @pytest.mark.parametrize("scheme,M,N", [
        ("OTFS", 4, 2), ("OSTF", 4, 2), ("OFDM", 8, 1), ("SCFDMA", 8, 1),
    ])
    def test_tf_domain_ml_matches_payload_ml(self, scheme, M, N, channel_mode):
        # ML on the time-frequency grid through T U picks the symbols that
        # ML on the payload grid through the probed chain picks
        from otfsim.modem import demodulate, modulate, payload_shape

        d = base_dict(
            scheme=scheme,
            constellation="BPSK",
            channel={"random": {"L_max": 2, "V_max": 2 if N > 1 else 1}},
            channel_mode=channel_mode,
            equalizer="ml",
        )
        d["frame"] = {"M": M, "N": N, "cp_len": 0 if channel_mode == "cyclic" else 1}
        link = _Link(scenario_from_dict(d))
        cfg = ot.SchemeConfig(scheme, link.params, cp_len=link.sc.cp_len)
        for t in range(6):
            rng = trial_rng(5, 0, t)
            ch = scenario_channel(link.sc, rng)
            x = rng.choice([-1.0, 1.0], size=payload_shape(cfg)).astype(complex)
            rx = ot.apply_channel(modulate(cfg, x), ch, link.params, 0.5, rng, channel_mode)
            A = ot.effective_matrix(cfg, ch, mode=channel_mode)
            ref = ot.ml_detect(demodulate(cfg, rx).reshape(-1), A, link.const)
            assert np.array_equal(link.receiver(ch, None, 0.5)[0](rx.body), ref)

    def test_per_slot_mmse_runs_beyond_the_dense_guard(self):
        # 128 x 64 is refused by the probed effective matrix; the per-slot
        # LMMSE never builds it
        d = base_dict(
            channel={"random": {"L_max": 5, "V_max": 3}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
            snr_db_list=[20.0],
            trials=1,
        )
        d["frame"] = {"M": 128, "N": 64, "cp_len": 4}
        sc = scenario_from_dict(d)
        assert sc.params.dof > EFFECTIVE_GUARD
        (res,) = run(sc)
        assert res.trials == 1 and res.total_symbols == 128 * 64
        assert res.ber < 0.01


class TestPointCrossingChunks:
    """A run cuts its chunks from the point-major sequence of its (SNR point,
    trial) frames: a random channel's chunks run on across point boundaries,
    each frame at its point's noise variance, while a fixed channel's receiver
    is built per point and its chunks end there."""

    RANDOM = {"random": {"L_max": 3, "V_max": 2}}
    FIXED = {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 0.8, "im": 0.1},
                      {"delay_bin": 2, "doppler_bin": -1, "re": -0.3, "im": 0.5}]}
    #: every receiver builder: name -> (scenario keys, the band solve it takes or None)
    KINDS = {
        "one_tap": ({}, None),
        "water_filled_one_tap": ({"multiuser": {"mode": "tf_alloc", "K_d": 2, "K_D": 2,
                                                "power_budget": 1.0}}, None),
        "band_dense_side": ({"equalizer": "mmse_dd"}, _dense_solve),
        "band_reduce_side": ({"equalizer": "mmse_dd", "frame": {"M": 16, "N": 4, "cp_len": 2}},
                             _reduce_solve),
        "gaussian_tf_spread": ({"equalizer": "mmse_dd", "multiuser": {
            "mode": "tf_spread", "K_d": 2, "K_D": 2, "spreader": "gaussian"}}, None),
        "ml": ({"equalizer": "ml", "constellation": "BPSK", "frame": {"M": 4, "N": 2, "cp_len": 2}},
               None),
    }

    def scenario(self, kind, channel, trials):
        keys, solve = self.KINDS[kind]
        d = base_dict(frame={"M": 8, "N": 4, "cp_len": 2}, channel=channel,
                      channel_mode="per_slot_cp", snr_db_list=[0.0, 7.0, 14.0], trials=trials,
                      seed=41)
        sc = scenario_from_dict({**d, **keys})
        if solve is not None:
            link = _Link(sc)
            assert band_solver(3, link.blocks, sc.params.dof // link.blocks) is solve
        return sc

    @staticmethod
    def counted_run(sc, monkeypatch, chunk):
        """``run(sc)`` in chunks of ``chunk`` frames: its results, the (snr_index, trial)
        frames of each chunk and the receivers built."""
        monkeypatch.setattr(otfsim.runner, "CHUNK_SAMPLES", chunk * _Link(sc).n_samples)
        chunks, builds = [], []
        run_chunk, receiver = _Link.run_chunk, _Link.receiver
        monkeypatch.setattr(_Link, "run_chunk",
                            lambda self, s, frames, *a: chunks.append(frames)
                            or run_chunk(self, s, frames, *a))
        monkeypatch.setattr(_Link, "receiver",
                            lambda self, *a: builds.append(1) or receiver(self, *a))
        results = run(sc)
        monkeypatch.undo()
        return results, chunks, len(builds)

    # 2 trials a point in chunks of 5: every chunk holds more than one point;
    # 4 trials a point in chunks of 3: chunks end inside points
    @pytest.mark.parametrize("trials,chunk", [(2, 5), (4, 3)])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_random_run_equals_its_per_point_ranges(self, kind, trials, chunk, monkeypatch):
        sc = self.scenario(kind, self.RANDOM, trials)
        results, chunks, builds = self.counted_run(sc, monkeypatch, chunk)
        point_major = [(si, t) for si in range(3) for t in range(trials)]
        assert [frame for frames in chunks for frame in frames] == point_major
        assert [len(frames) for frames in chunks][:-1] == [chunk] * (len(chunks) - 1)
        assert any(len({si for si, _ in frames}) > 1 for frames in chunks)
        assert builds == len(chunks) == -(-3 * trials // chunk)  # one receiver a chunk
        alone = [run_trial_range(sc, si, 0, trials) for si in range(3)]
        assert format_csv(results) == format_csv(alone)
        for got, want in zip(results, alone):
            assert np.array_equal(got.papr_values, want.papr_values)
            assert (got.bit_errors, got.total_bits) == (want.bit_errors, want.total_bits)

    @pytest.mark.parametrize("kind", ["one_tap", "water_filled_one_tap", "band_dense_side"])
    def test_fixed_run_builds_one_receiver_a_point_and_stops_there(self, kind, monkeypatch):
        sc = self.scenario(kind, self.FIXED, 4)
        results, chunks, builds = self.counted_run(sc, monkeypatch, 3)
        assert builds == 3  # one receiver a point, at its noise variance
        assert chunks == [[(si, t) for t in trials] for si in range(3)
                          for trials in (range(3), range(3, 4))]
        alone = [run_trial_range(sc, si, 0, 4) for si in range(3)]
        assert format_csv(results) == format_csv(alone)
        assert all(np.array_equal(r.papr_values, a.papr_values) for r, a in zip(results, alone))


class TestMultiuserExecution:
    def mu_dict(self, **over):
        d = base_dict(
            snr_db_list=[45.0],
            trials=3,
            multiuser={"mode": "dd_mapped", "K_d": 2, "K_D": 1},
        )
        d.update(over)
        return d

    def test_dd_mapped_identity_channel_error_free(self):
        (res,) = run(scenario_from_dict(self.mu_dict()))
        assert res.bit_errors == 0
        assert res.total_symbols == 3 * 16  # both users counted

    def test_tf_alloc_mode(self):
        d = self.mu_dict(multiuser={"mode": "tf_alloc", "K_d": 2, "K_D": 2})
        d["frame"] = {"M": 8, "N": 4}
        (res,) = run(scenario_from_dict(d))
        assert res.bit_errors == 0

    def test_gaussian_spreaders_differ_across_users(self):
        d = self.mu_dict(multiuser={
            "mode": "tf_spread", "K_d": 2, "K_D": 1, "spreader": "gaussian"
        })
        eng = _Link(scenario_from_dict(d))
        S0 = eng.users[0].S_A
        S1 = eng.users[1].S_A
        assert np.abs(S0 - S1).max() > 0.1

    def test_gaussian_spread_joint_mmse_recovers(self):
        # non-orthogonal random spreading: per-user despreading would leak,
        # but the stacked MMSE inverts the full mixture
        d = self.mu_dict(
            equalizer="mmse_dd",
            multiuser={"mode": "tf_spread", "K_d": 2, "K_D": 1, "spreader": "gaussian"},
        )
        (res,) = run(scenario_from_dict(d))
        assert res.bit_errors == 0

    def test_dft_spread_equals_dd_mapped_results(self):
        # DFT spreading is literally the dd_mapped transform chain
        a = run(scenario_from_dict(self.mu_dict()))[0]
        b = run(scenario_from_dict(self.mu_dict(
            multiuser={"mode": "tf_spread", "K_d": 2, "K_D": 1, "spreader": "dft"}
        )))[0]
        assert a.bit_errors == b.bit_errors
        assert_allclose(a.papr_values, b.papr_values, atol=1e-9)

    @pytest.mark.parametrize("channel_mode", ["per_slot_cp", "cyclic"])
    @pytest.mark.parametrize("mapping", ["localized", "interleaved"])
    def test_dft_spread_runs_as_its_dd_mapped_twin(self, mapping, channel_mode, monkeypatch):
        # a DFT tf_spread link places its users on their delay-Doppler cells:
        # it builds no spreading matrix and spreads by no matrix product, and
        # its simulate and papr-ccdf output are its dd_mapped twin's bytes
        from otfsim import multiuser

        def refuse(*a, **k):
            raise AssertionError("DFT spreading by dense matrices")

        monkeypatch.setattr(multiuser, "dft_spreading_pair", refuse)
        monkeypatch.setattr(multiuser, "tf_spread", refuse)
        twin = {"mode": "dd_mapped", "K_d": 2, "K_D": 2, "mapping": mapping}
        for equalizer in ("mmse_dd", "one_tap_tf"):
            d = self.mu_dict(
                frame={"M": 8, "N": 4, "cp_len": 0 if channel_mode == "cyclic" else 2},
                channel={"random": {"L_max": 3, "V_max": 3}},
                channel_mode=channel_mode,
                equalizer=equalizer,
                snr_db_list=[0.0, 10.0],
                trials=5,
                multiuser=twin,
            )
            dd = scenario_from_dict(d)
            spread = scenario_from_dict(
                {**d, "multiuser": {**twin, "mode": "tf_spread", "spreader": "dft"}}
            )
            assert format_csv(run(spread)) == format_csv(run(dd))
            assert papr_ccdf(spread) == papr_ccdf(dd)

    def test_water_fill_shuts_off_weak_user(self, monkeypatch):
        # two-tap channel with a null centred on the upper band; a small
        # budget at low noise concentrates all power on the strong user,
        # and the silenced user's symbols leave the error accounting
        d = base_dict(
            channel={"taps": [
                {"delay_bin": 0, "doppler_bin": 0, "re": 0.5, "im": 0.0},
                {"delay_bin": 1, "doppler_bin": 0, "re": 0.5, "im": 0.0},
            ]},
            snr_db_list=[30.0],
            trials=2,
            multiuser={"mode": "tf_alloc", "K_d": 2, "K_D": 1, "power_budget": 1e-4},
        )
        sc = scenario_from_dict(d)
        eng = _Link(sc)
        ch = scenario_channel(sc, trial_rng(sc.seed, 0, 0))
        _, (amp,), _ = eng.receiver(ch, None, 1e-3)
        assert amp[0] > 0 and amp[1] == 0.0
        calls = []
        real = otfsim.runner.multiuser.water_fill
        monkeypatch.setattr(
            otfsim.runner.multiuser, "water_fill", lambda *a: calls.append(1) or real(*a)
        )
        (res,) = run(sc)
        assert res.total_symbols == 2 * 8  # one user's block per trial
        assert len(calls) == 1  # the fixed channel's weights are computed once

    @pytest.mark.parametrize("T", [1, 5])
    @pytest.mark.parametrize("mapping", ["localized", "interleaved"])
    @pytest.mark.parametrize("M,N,K_d,K_D", [(64, 16, 8, 4), (12, 6, 3, 2)])
    def test_gathered_user_powers_match_the_per_frame_loop(
        self, M, N, K_d, K_D, mapping, T, monkeypatch
    ):
        # the receiver gathers every frame's |H|^2 at every user's cells at
        # once; each user's mean power, and so its amplitude, is bitwise what
        # averaging its np.ix_ block frame by frame gives
        sc = scenario_from_dict(self.mu_dict(
            frame={"M": M, "N": N},
            channel={"random": {"L_max": 3, "V_max": 2}},
            multiuser={"mode": "tf_alloc", "K_d": K_d, "K_D": K_D, "mapping": mapping,
                       "power_budget": 1.0},
        ))
        link = _Link(sc)
        rng = np.random.default_rng(73)
        draws = [scenario_channel(sc, rng) for _ in range(T)]
        ch, gains = draws[-1], np.array([[t.gain for t in c.taps] for c in draws])
        powers = []
        real = otfsim.runner.multiuser.water_fill
        monkeypatch.setattr(
            otfsim.runner.multiuser, "water_fill", lambda g, *a: powers.append(g) or real(g, *a)
        )
        _, amp, _ = link.receiver(ch, gains, np.full(T, 0.3))
        assert amp.shape == (T, link.K) and len(powers) == T
        for H, got, got_amp in zip(ot.tf_channel(ch, link.params, gains), powers, amp):
            power = np.array([
                np.mean(np.abs(H[np.ix_(list(f.selected), list(t.selected))]) ** 2)
                for f, t in link.alloc.users
            ])
            assert np.array_equal(got, power)
            assert np.array_equal(got_amp, np.sqrt(real(power, 1.0, 0.3) / link.block))

    @pytest.mark.parametrize("mode", ["dd_mapped", "tf_alloc", "tf_spread"])
    def test_random_channel_filters_not_reused_across_trials(self, mode):
        # a random channel's LMMSE filter belongs to its trial: one engine
        # over 12 trials must count what 12 fresh engines count
        sc = scenario_from_dict(self.mu_dict(
            frame={"M": 8, "N": 4, "cp_len": 2},
            channel={"random": {"L_max": 3, "V_max": 2}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
            snr_db_list=[10.0],
            trials=12,
            multiuser={"mode": mode, "K_d": 2, "K_D": 2},
        ))
        whole = run_trial_range(sc, 0, 0, 12)
        fresh = [run_trial_range(sc, 0, t, t + 1) for t in range(12)]
        assert whole.bit_errors == sum(r.bit_errors for r in fresh)
        assert whole.symbol_errors == sum(r.symbol_errors for r in fresh)

    @pytest.mark.parametrize("mapping", ["localized", "interleaved"])
    @pytest.mark.parametrize("mode", ["dd_mapped", "tf_alloc", "tf_spread"])
    def test_per_slot_downlink_detector_is_joint_lmmse(self, mode, mapping, monkeypatch):
        # unitary user maps detect per slot on the delay band and never probe
        # their user map; the result is the LMMSE of the probed chain on the
        # stacked user vector
        sc = scenario_from_dict(self.mu_dict(
            frame={"M": 8, "N": 4, "cp_len": 2},
            channel={"random": {"L_max": 3, "V_max": 2}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
            multiuser={"mode": mode, "K_d": 2, "K_D": 2, "mapping": mapping},
        ))
        alloc_fn = (
            ot.localized_allocation if mapping == "localized" else ot.interleaved_allocation
        )
        users = list(alloc_fn(sc.params, 2, 2).users)
        if mode == "tf_spread":
            users = [multiuser.dft_spreading_pair(f, t) for f, t in users]
        link = _Link(sc)
        rng = trial_rng(4, 0, 0)
        ch = scenario_channel(sc, rng)

        def tx(V):  # a stack of 4 users' blocks of (N_D, M_d) = (2, 4)
            blocks = list(V.reshape(-1, 4, 2, 4).swapaxes(0, 1))
            X = multiuser.downlink_superpose(blocks, users, mode)
            return ot.heisenberg(X, sc.params, cp_len=2)

        def rx(sig):
            return ot.wigner(ot.apply_channel(sig, ch, sc.params, mode="per_slot_cp"), sc.params)

        W = ot.mmse_filter(chain_matrix(tx, rx, 32), 0.1)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        sig = ot.apply_channel(tx(x), ch, sc.params, 0.1, rng)

        def refuse(*a, **k):
            raise AssertionError("the user map probed")

        # the runner's own probe: the dense detector's user map
        monkeypatch.setattr(_Link, "_map_matrix", property(refuse))
        got = link.receiver(ch, None, 0.1)[0](sig.body)
        assert np.abs(got - W @ ot.wigner(sig, sc.params).reshape(-1)).max() < 1e-10

    @pytest.mark.parametrize("scheme,N,mode,spreader,channel_mode", [
        ("OTFS", 4, None, None, "cyclic"),
        ("OSTF", 4, None, None, "cyclic"),
        ("OFDM", 1, None, None, "cyclic"),
        ("SCFDMA", 1, None, None, "cyclic"),
        ("OTFS", 4, "dd_mapped", "dft", "cyclic"),
        ("OTFS", 4, "tf_alloc", "dft", "cyclic"),
        ("OTFS", 4, "tf_spread", "dft", "cyclic"),
        ("OTFS", 4, "tf_spread", "gaussian", "cyclic"),
        ("OTFS", 4, "tf_spread", "gaussian", "per_slot_cp"),
    ])
    def test_detector_is_lmmse_of_the_probed_chain(self, scheme, N, mode, spreader, channel_mode):
        # the detector against the LMMSE of the probed chain on the stacked
        # symbol vector; Doppler bins reach -N/2 and +N/2
        d = self.mu_dict(
            scheme=scheme,
            frame={"M": 8, "N": N, "cp_len": 0 if channel_mode == "cyclic" else 2},
            channel={"random": {"L_max": 3, "V_max": N // 2 + 1}},
            channel_mode=channel_mode,
            equalizer="mmse_dd",
            multiuser={"mode": mode, "K_d": 2, "K_D": 2, "spreader": spreader},
        )
        if mode is None:
            del d["multiuser"]
        sc = scenario_from_dict(d)
        link = _Link(sc)
        rng = trial_rng(6, 0, 0)
        ch = scenario_channel(sc, rng)
        tx, _, dim = symbol_chain(link, ch)

        def rx(sig):
            return ot.wigner(ot.apply_channel(sig, ch, sc.params, mode=channel_mode), sc.params)

        W = ot.mmse_filter(chain_matrix(tx, rx, dim), 0.1)
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        sig = ot.apply_channel(tx(x), ch, sc.params, 0.1, rng, channel_mode)
        got = link.receiver(ch, None, 0.1)[0](sig.body)
        assert np.abs(got - W @ ot.wigner(sig, sc.params).reshape(-1)).max() < 1e-10

    def test_per_slot_downlink_runs_beyond_the_dense_guard(self):
        sc = scenario_from_dict(self.mu_dict(
            frame={"M": 128, "N": 64, "cp_len": 4},
            channel={"random": {"L_max": 5, "V_max": 3}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
            snr_db_list=[20.0],
            trials=1,
            multiuser={"mode": "dd_mapped", "K_d": 2, "K_D": 2},
        ))
        assert sc.params.dof > EFFECTIVE_GUARD
        (res,) = run(sc)
        assert res.trials == 1 and res.total_symbols == 128 * 64
        assert res.ber < 0.01

    def test_interleaved_mapping_runs(self):
        d = self.mu_dict(multiuser={
            "mode": "dd_mapped", "K_d": 2, "K_D": 1, "mapping": "interleaved"
        })
        (res,) = run(scenario_from_dict(d))
        assert res.bit_errors == 0


class TestBandLMMSE:
    """The runner's LMMSE of a unitary user map, solved on the delay band."""

    NOISE_VAR = 0.2

    @staticmethod
    def link(scheme, M, N, mu, channel_mode):
        cp = 0 if channel_mode == "cyclic" else 3
        d = base_dict(
            scheme=scheme,
            frame={"M": M, "N": N, "cp_len": cp},
            channel={"random": {"L_max": 4, "V_max": N // 2 + 1}},
            channel_mode=channel_mode,
            equalizer="mmse_dd",
        )
        if mu is not None:
            d["multiuser"] = mu
        link = _Link(scenario_from_dict(d))
        assert link.banded
        return link

    @staticmethod
    def received(link, rng, T):
        """T frames through one random tap set with T gain sets: (ch, gains, body)."""
        params = link.params
        ch = scenario_channel(link.sc, rng)
        gains = np.stack([[t.gain for t in scenario_channel(link.sc, rng).taps] for _ in range(T)])
        bits = rng.integers(0, 2, size=(T, link.n_bits))
        noise = tuple(rng.normal(scale=0.3, size=(T, link.n_samples)) for _ in range(2))
        rx = ot.apply_channel(
            link.transmit(bits), ch, params, mode=link.sc.channel_mode, gains=gains, noise=noise
        )
        return ch, gains, rx

    @staticmethod
    def dense(link, ch, Y):
        """The block filter of the slot operators, then the map's adjoint."""
        params = link.params
        W = ot.mmse_filter(ot.slot_operators(ch, params, link.sc.channel_mode),
                           TestBandLMMSE.NOISE_VAR)
        y = Y.swapaxes(-1, -2).reshape(*Y.shape[:-2], len(W), -1)
        Z = (W @ y[..., None])[..., 0].reshape(*Y.shape[:-2], params.N, params.M)
        return tf_read(link, Z.swapaxes(-1, -2))

    @pytest.mark.parametrize("M,N,refused", [(32, 16384, False), (65536, 16, True)])
    def test_random_band_is_refused_only_where_no_solve_fits(self, M, N, refused, monkeypatch):
        # per_slot_cp 32 x 16384 with 3 delays: the dense Grams (4096^2
        # entries) fit where the reduction's 28.3M working entries would not;
        # 65536 x 16 fits neither; both checked before the band is built
        d = base_dict(
            frame={"M": M, "N": N, "cp_len": 2},
            channel={"random": {"L_max": 3, "V_max": 2}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
        )
        link = _Link(scenario_from_dict(d))

        def built(*a):
            raise LookupError("band built")

        monkeypatch.setattr(otfsim.runner, "delay_band", built)
        ch = scenario_channel(link.sc, trial_rng(1, 0, 0))
        gains = np.array([[t.gain for t in ch.taps]])
        if refused:
            with pytest.raises(GuardError, match="working set"):
                link.receiver(ch, gains, 0.1)
        else:
            with pytest.raises(LookupError, match="band built"):
                link.receiver(ch, gains, 0.1)

    @pytest.mark.parametrize("channel_mode", ["per_slot_cp", "cyclic"])
    @pytest.mark.parametrize("scheme,M,N,mu", [
        ("OTFS", 8, 4, None),
        ("OTFS", 7, 4, None),
        ("OSTF", 9, 2, None),
        ("OFDM", 7, 1, None),
        ("SCFDMA", 8, 1, None),
        ("OTFS", 8, 4, {"mode": "dd_mapped", "K_d": 2, "K_D": 2}),
        ("OTFS", 9, 4, {"mode": "dd_mapped", "K_d": 3, "K_D": 2, "mapping": "interleaved"}),
        ("OTFS", 9, 1, {"mode": "dd_mapped", "K_d": 3, "K_D": 1}),
        ("OTFS", 8, 4, {"mode": "tf_alloc", "K_d": 2, "K_D": 2}),
        ("OSTF", 8, 4, {"mode": "tf_alloc", "K_d": 4, "K_D": 1, "mapping": "interleaved"}),
        ("OTFS", 8, 4, {"mode": "tf_spread", "K_d": 2, "K_D": 2}),
        ("OTFS", 7, 2, {"mode": "tf_spread", "K_d": 7, "K_D": 1, "mapping": "interleaved"}),
    ])
    def test_matches_the_slot_operator_filter(self, scheme, M, N, mu, channel_mode):
        # delays up to 3 (the prefix in per-slot mode), Doppler bins -N/2
        # to +N/2; one channel for the stack and one gain set per frame
        link = self.link(scheme, M, N, mu, channel_mode)
        ch, gains, rx = self.received(link, np.random.default_rng(70), 3)
        Y = ot.wigner(rx, link.params)
        got = link.receiver(ch, None, self.NOISE_VAR)[0](rx.body)
        assert got.shape == (3, link.K * link.block)
        assert np.abs(got - self.dense(link, ch, Y)).max() < 1e-10
        got = link.receiver(ch, gains, np.full(3, self.NOISE_VAR))[0](rx.body)
        for t in range(3):
            own = ot.DDChannelSpec(taps=tuple(
                (l, k, g) for (l, k, _), g in zip(ch.taps, gains[t])
            ))
            assert np.abs(got[t] - self.dense(link, own, Y[t])).max() < 1e-10

    @pytest.mark.parametrize("channel_mode", ["per_slot_cp", "cyclic"])
    def test_chunk_equals_one_trial_detections(self, channel_mode):
        link = self.link("OTFS", 8, 4, {"mode": "dd_mapped", "K_d": 2, "K_D": 2}, channel_mode)
        ch, gains, rx = self.received(link, np.random.default_rng(71), 5)
        noise_var = self.NOISE_VAR * np.arange(1, 6)  # each frame its own, as across SNR points
        got = link.receiver(ch, gains, noise_var)[0](rx.body)
        for t in range(5):
            alone = link.receiver(ch, gains[t:t + 1], noise_var[t])[0](rx.body[t:t + 1])
            assert np.array_equal(got[t:t + 1], alone)

    @pytest.mark.parametrize("scheme,M,N,mu,spread", [
        ("OTFS", 8, 4, None, True),
        ("OTFS", 7, 1, None, True),
        ("OTFS", 8, 4, {"mode": "dd_mapped", "K_d": 2, "K_D": 2}, True),
        ("OTFS", 9, 4, {"mode": "dd_mapped", "K_d": 3, "K_D": 2, "mapping": "interleaved"}, True),
        ("SCFDMA", 8, 1, None, True),
        ("OTFS", 8, 4, {"mode": "tf_alloc", "K_d": 2, "K_D": 2}, False),
    ])
    def test_dd_transmit_is_the_tf_map_synthesised(self, scheme, M, N, mu, spread):
        # OTFS, SC-FDMA (OTFS with N = 1) and dd_mapped synthesise from the DD
        # grid; every other link is the Heisenberg transform of its TF map
        link = self.link(scheme, M, N, mu, "per_slot_cp")
        assert link.spread == spread
        bits = np.random.default_rng(73).integers(0, 2, size=(2, 3, link.n_bits))
        got = link.transmit(bits).samples
        want = ot.heisenberg(
            tf_map(link, map_bits(bits, link.const)), link.params, link.sc.cp_len
        ).samples
        assert got.shape == want.shape == (2, 3, link.n_samples)
        if spread:
            assert np.abs(got - want).max() < 1e-12
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("channel_mode", ["per_slot_cp", "cyclic"])
    @pytest.mark.parametrize("scheme,M,N,mu", [
        ("OTFS", 8, 4, None),
        ("OTFS", 7, 1, None),
        ("OTFS", 8, 4, {"mode": "dd_mapped", "K_d": 2, "K_D": 2}),
        ("OTFS", 9, 4, {"mode": "dd_mapped", "K_d": 3, "K_D": 2, "mapping": "interleaved"}),
    ])
    def test_dd_read_is_the_slot_dft_and_the_map_adjoint(self, scheme, M, N, mu, channel_mode):
        # the equalised blocks read in DD against the per-slot DFT and the
        # map's adjoint, for one channel serving every frame and for a
        # chunk's own gains
        link = self.link(scheme, M, N, mu, channel_mode)
        assert link.spread
        ch, gains, rx = self.received(link, np.random.default_rng(74), 3)
        blocks = 1 if channel_mode == "cyclic" else N
        for g in (None, gains):
            band = delay_band(ch, link.params, g)
            equalize = band_filter(band.reshape(*band.shape[:-2], blocks, -1), self.NOISE_VAR)
            z = equalize(rx.body.reshape(3, blocks, -1)).reshape(rx.body.shape)
            want = tf_read(link, slot_dft(z, link.params).swapaxes(-1, -2))
            got = link.receiver(ch, g, self.NOISE_VAR)[0](rx.body)
            assert got.shape == want.shape == (3, M * N)
            assert np.abs(got - want).max() < 1e-12

    def test_fixed_cyclic_filter_peaks_at_a_few_blocks(self):
        # a fixed channel's cyclic filter is one B x B matrix, B = M*N; the
        # solve of its Gram against the identity sets the peak, and forming
        # W, A^H of the inverse's columns, holds one product of the band at
        # a time beside the inverse and W
        d = base_dict(
            frame={"M": 16, "N": 8, "cp_len": 0},
            channel={"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 0.8, "im": 0.0},
                              {"delay_bin": 2, "doppler_bin": -1, "re": 0.0, "im": 0.6}]},
            equalizer="mmse_dd",
        )
        link = _Link(scenario_from_dict(d))
        link.receiver(link.fixed, None, 0.1)  # warm caches
        block_bytes = 16 * link.params.dof**2
        peak = traced(lambda: link.receiver(link.fixed, None, 0.1))[1]
        assert peak < 4 * block_bytes  # the solve alone takes about 3.5

    def test_memory_is_linear_in_the_band(self):
        # 16 x 1024 with delays 0..15 and Doppler bins -512..512: 16400 taps,
        # so a (taps, M*N) table would hold 269M entries; the band holds
        # 16 * M*N = 262k, and building and applying both detectors (one
        # channel for every frame, and a chunk's own gains) stays within a
        # few bands
        d = base_dict(
            frame={"M": 16, "N": 1024, "cp_len": 15},
            channel={"random": {"L_max": 16, "V_max": 513}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
        )
        link = _Link(scenario_from_dict(d))
        rng = np.random.default_rng(72)
        ch = scenario_channel(link.sc, rng)
        gains = np.array([[t.gain for t in ch.taps]])
        body = rng.normal(size=(1, link.params.dof)) + 0j
        band_bytes = 16 * link.params.dof * 16

        def detect_both():
            link.receiver(ch, None, 0.1)[0](body)
            link.receiver(ch, gains, np.array([0.1]))[0](body)

        peak = traced(detect_both)[1]
        assert len(ch.taps) == 16400
        assert peak < 10 * band_bytes


class TestCellMap:
    """Every link places its symbols on one (N, M) grid, and every unitary link
    is one cell map on it, spread by the ISFFT or not."""

    @pytest.mark.parametrize("scheme,M,N,mu", [
        ("OTFS", 8, 4, None),
        ("OTFS", 7, 1, None),
        ("OSTF", 9, 2, None),
        ("OSTF", 5, 1, None),
        ("OFDM", 7, 1, None),
        ("SCFDMA", 7, 1, None),
        ("OTFS", 8, 4, {"mode": "dd_mapped", "K_d": 2, "K_D": 2}),
        ("OSTF", 9, 4, {"mode": "dd_mapped", "K_d": 3, "K_D": 2, "mapping": "interleaved"}),
        ("SCFDMA", 9, 1, {"mode": "dd_mapped", "K_d": 3, "K_D": 1}),
        ("OTFS", 8, 4, {"mode": "tf_alloc", "K_d": 2, "K_D": 2}),
        ("OSTF", 9, 2, {"mode": "tf_alloc", "K_d": 3, "K_D": 2, "mapping": "interleaved"}),
        ("OFDM", 7, 1, {"mode": "tf_alloc", "K_d": 7, "K_D": 1}),
        ("OTFS", 8, 4, {"mode": "tf_spread", "K_d": 2, "K_D": 2}),
        ("OSTF", 7, 2, {"mode": "tf_spread", "K_d": 7, "K_D": 1, "mapping": "interleaved"}),
        ("OTFS", 8, 4, {"mode": "tf_spread", "K_d": 2, "K_D": 2, "spreader": "gaussian"}),
    ])
    def test_maps_are_the_library_maps(self, scheme, M, N, mu):
        # the user map, its adjoint and the transmitted frames against the
        # modem's payload maps or the downlink superposition of the link's
        # allocation or spreading pairs, on a (2, 3) stack of frames
        from otfsim.modem import payload_from_tf, payload_shape, tf_from_payload

        d = base_dict(scheme=scheme, frame={"M": M, "N": N, "cp_len": 2},
                      channel_mode="per_slot_cp")
        if mu is not None:
            d["multiuser"] = mu
        link = _Link(scenario_from_dict(d))
        rng = np.random.default_rng(75)
        bits = rng.integers(0, 2, size=(2, 3, link.n_bits))
        symbols = map_bits(bits, link.const)
        X = rng.normal(size=(2, 3, M, N)) + 1j * rng.normal(size=(2, 3, M, N))
        amp = None
        if mu is None:
            cfg = ot.SchemeConfig(scheme, link.params, cp_len=2)
            tf = tf_from_payload(cfg, symbols.reshape(2, 3, *payload_shape(cfg)))
            read = payload_from_tf(cfg, X).reshape(2, 3, -1)
        else:
            # a DFT-spread downlink is dd_mapped on its allocation, a Gaussian one spreads by pairs
            users = link.users or link.alloc.users
            amp = rng.uniform(0, 2, size=(2, 3, link.K)) * (rng.random((2, 3, link.K)) < 0.8)
            blocks = (symbols * np.repeat(amp, link.block, axis=-1)).reshape(
                2, 3, link.K, link.N_D, link.M_d)
            tf = multiuser.downlink_superpose(np.moveaxis(blocks, 2, 0), users, link.mode)
            read = np.concatenate([b.reshape(2, 3, -1) for b in multiuser.downlink_split(
                X, users, link.mode)], axis=-1)
            symbols = symbols * np.repeat(amp, link.block, axis=-1)
        assert link.place(symbols).shape[-2:] == (N, M)
        if link.mode in ("dd_mapped", "tf_alloc"):  # the users' cells, t*M + f as they are
            assert np.array_equal(link.cells, np.concatenate(
                [user_cells(*u) for u in link.alloc.users]))
        assert np.array_equal(tf_map(link, symbols), tf)
        assert np.array_equal(tf_read(link, X), read)
        got = link.transmit(bits, amp).samples
        want = ot.heisenberg(tf, link.params, cp_len=2).samples
        assert got.shape == want.shape == (2, 3, link.n_samples)
        if link.spread:
            assert np.abs(got - want).max() < 1e-12
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("channel_mode", ["per_slot_cp", "cyclic"])
    @pytest.mark.parametrize("mode,spreader", [("dd_mapped", "dft"), ("tf_spread", "dft")])
    @pytest.mark.parametrize("equalizer", ["mmse_dd", "one_tap_tf"])
    @pytest.mark.parametrize("label,N", [("OSTF", 8), ("SCFDMA", 1)])
    def test_a_downlink_route_does_not_depend_on_its_scheme_label(
        self, mode, spreader, equalizer, channel_mode, label, N
    ):
        # the scheme label of a spread downlink names no precoding: labelled
        # OSTF or SC-FDMA it transmits, detects and measures PAPR as its OTFS twin does
        d = base_dict(
            frame={"M": 16, "N": N, "cp_len": 0 if channel_mode == "cyclic" else 3},
            channel={"random": {"L_max": 3, "V_max": N // 2 + 1}},
            channel_mode=channel_mode,
            equalizer=equalizer,
            snr_db_list=[4.0, 10.0],
            trials=20,
            seed=22,
            multiuser={"mode": mode, "K_d": 2, "K_D": min(N, 2), "spreader": spreader},
        )
        otfs, other = scenario_from_dict(d), scenario_from_dict({**d, "scheme": label})
        bits = np.random.default_rng(76).integers(0, 2, size=(3, _Link(otfs).n_bits))
        assert np.array_equal(_Link(other).transmit(bits).samples,
                              _Link(otfs).transmit(bits).samples)
        a, b = run(otfs), run(other)
        for x, y in zip(a, b):
            assert np.array_equal(x.papr_values, y.papr_values)
        rows = [[line.partition(",")[2] for line in format_csv(r).splitlines()] for r in (a, b)]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("channel_mode", ["per_slot_cp", "cyclic"])
    @pytest.mark.parametrize("random", [False, True])
    @pytest.mark.parametrize("equalizer", ["mmse_dd", "one_tap_tf"])
    @pytest.mark.parametrize("one_slot,scheme", [("SCFDMA", "OTFS"), ("OFDM", "OSTF")])
    def test_a_single_slot_scheme_is_its_2d_scheme_at_one_slot(
        self, one_slot, scheme, equalizer, random, channel_mode
    ):
        # SC-FDMA and OFDM are OTFS and OSTF on an M x 1 frame: the same
        # simulate rows but for the scheme label, and the same PAPR CCDF
        taps = [{"delay_bin": l, "doppler_bin": 0, "re": re, "im": im}
                for l, re, im in ((0, 0.7, 0.1), (1, -0.3, 0.5), (3, 0.2, -0.3))]
        d = base_dict(
            scheme=scheme,
            frame={"M": 16, "N": 1, "cp_len": 0 if channel_mode == "cyclic" else 3},
            channel={"random": {"L_max": 4, "V_max": 1}} if random else {"taps": taps},
            channel_mode=channel_mode,
            equalizer=equalizer,
            snr_db_list=[4.0, 10.0],
            trials=12,
            seed=23,
        )
        two_d, single = scenario_from_dict(d), scenario_from_dict({**d, "scheme": one_slot})
        rows = [[line.partition(",")[2] for line in format_csv(run(sc)).splitlines()]
                for sc in (two_d, single)]
        assert rows[0] == rows[1]
        assert papr_ccdf(single) == papr_ccdf(two_d)

    def test_single_carrier_body_is_its_symbols(self):
        # single-user SC-FDMA spreads M symbols by the DFT and maps them back
        # by the IDFT: its body is its symbols, so a constant-modulus block
        # has a PAPR of exactly 1 (0 dB)
        d = base_dict(scheme="SCFDMA", frame={"M": 12, "N": 1, "cp_len": 3},
                      channel_mode="per_slot_cp")
        link = _Link(scenario_from_dict(d))
        bits = np.random.default_rng(77).integers(0, 2, size=(5, link.n_bits))
        sig = link.transmit(bits)
        assert np.array_equal(sig.body, map_bits(bits, link.const))
        assert np.array_equal(papr(sig), np.ones(5))


class TestReceivePath:
    """Seeded draws of every link kind: its draws, receive, layers and detector
    against their oracles."""

    #: (scheme, downlink mode and spreader); a None scheme is drawn from the other three
    KINDS = (("OTFS", None), (None, None), ("OTFS", "dd_mapped-dft"), (None, "dd_mapped-dft"),
             ("OTFS", "tf_spread-dft"), (None, "tf_spread-dft"), (None, "tf_alloc-dft"),
             ("OTFS", "tf_spread-gaussian"))
    #: one draw of every kind per round: (channel mode, equalizer, random channel)
    ROUNDS = (("per_slot_cp", "mmse_dd", True), ("cyclic", "mmse_dd", True),
              ("per_slot_cp", "mmse_dd", False), ("cyclic", "mmse_dd", False),
              ("per_slot_cp", "one_tap_tf", True), ("cyclic", "one_tap_tf", False))
    #: single-user ML, drawn after them: one draw of each kind per round
    ML_KINDS = (("OTFS", None), (None, None))
    ML_ROUNDS = (("per_slot_cp", "ml", True), ("cyclic", "ml", True),
                 ("per_slot_cp", "ml", False), ("cyclic", "ml", False))

    @classmethod
    def draws(cls):
        """Every (scheme, downlink, channel mode, equalizer, random channel) drawn, in order."""
        for kinds, rounds in ((cls.KINDS, cls.ROUNDS), (cls.ML_KINDS, cls.ML_ROUNDS)):
            for i in range(len(rounds) * len(kinds)):
                yield *kinds[i % len(kinds)], *rounds[i // len(kinds)]

    @staticmethod
    def draw_scenario(rng, scheme, downlink, mode, equalizer, random):
        """A scenario of at most 512 grid points, odd M and N = 1 among them, with
        the widest delay and Doppler bins -N/2..N/2 often, on a random or fixed channel.
        Gaussian spreading, which builds a dense detector per draw, gets at most 128;
        ML at most 8 (16QAM within 4), so that a frame holds at most 16 bits, and at
        most 3 trials."""
        scheme = scheme or ("OSTF", "OFDM", "SCFDMA")[rng.integers(3)]
        points = 8 if equalizer == "ml" else 128 if downlink == "tf_spread-gaussian" else 512
        M = int(rng.integers(2, min(33, points + 1)))
        N = 1 if scheme in ("OFDM", "SCFDMA") else int(rng.choice([1, 2, 3, 4, 5, 8, 16]))
        N = min(N, points // M)
        cp = int(rng.integers(0, M)) if mode == "per_slot_cp" else 0
        widest = cp + 1 if mode == "per_slot_cp" else M
        L = widest if rng.random() < 0.5 else int(rng.integers(1, widest + 1))
        V = N // 2 + 1
        if random:
            channel = {"random": {"L_max": L, "V_max": V}}
        else:  # fixed taps at the widest delay and at Doppler -N/2 and +N/2
            at = {(L - 1, V - 1), (0, 1 - V)} | {
                (int(rng.integers(L)), int(rng.integers(1 - V, V))) for _ in range(2)}
            channel = {"taps": [{"delay_bin": l, "doppler_bin": k, "re": float(rng.normal()),
                                 "im": float(rng.normal())} for l, k in sorted(at)]}
        if equalizer != "ml" or M * N <= 4:
            constellation = ("QPSK", "16QAM")[rng.integers(2)]
        else:
            constellation = "QPSK"
        d = base_dict(
            scheme=scheme,
            frame={"M": M, "N": N, "cp_len": cp},
            constellation=constellation,
            channel=channel,
            channel_mode=mode,
            equalizer=equalizer,
            snr_db_list=[float(rng.uniform(-5, 20))],
            trials=int(rng.integers(2, 4 if equalizer == "ml" else 6)),
            seed=int(rng.integers(1 << 20)),
        )
        if downlink is not None:
            mu_mode, spreader = downlink.split("-")
            d["multiuser"] = {
                "mode": mu_mode, "spreader": spreader,
                "K_d": int(rng.choice([k for k in range(1, M + 1) if M % k == 0])),
                "K_D": int(rng.choice([k for k in range(1, N + 1) if N % k == 0])),
                "mapping": ("localized", "interleaved")[rng.integers(2)],
            }
            if mu_mode == "tf_alloc" and equalizer == "one_tap_tf":
                d["multiuser"]["power_budget"] = float(rng.uniform(0.5, 2))
        return scenario_from_dict(d)

    @staticmethod
    def check_streams(link, gains, bits, noise, noise_var):
        """The draws of trials [0, T) against fresh ``trial_rng(seed, 0, t)`` streams,
        drawn in the contract's order: channel, bits, noise at frame t's variance."""
        sc = link.sc
        for t in range(sc.trials):
            rng = trial_rng(sc.seed, 0, t)
            drawn = scenario_channel(sc, rng)  # draws only for a random channel
            if gains is not None:
                assert np.array_equal(gains[t], [tap.gain for tap in drawn.taps])
            assert np.array_equal(bits[t], rng.integers(0, 2, link.n_bits))
            re, im = draw_noise(rng, float(noise_var[t]), link.n_samples)
            assert np.array_equal(noise[0][t], re) and np.array_equal(noise[1][t], im)

    @staticmethod
    def probed_lmmse(link, own, body, noise_var):
        """``mmse_filter`` of the probed time-frequency chain of one channel, OSTF's
        ``effective_matrix`` at the link's prefix, then the map's adjoint, with DFT
        spreading by its dense pairs, on each frame of ``body``."""
        params, mode, cp = link.params, link.sc.channel_mode, link.sc.cp_len
        mu = link.sc.multiuser

        def adjoint(X):
            return tf_read(link, X)

        if mu is not None and mu.mode == "tf_spread":
            pairs = [multiuser.dft_spreading_pair(f, t) for f, t in link.alloc.users]

            def adjoint(X):
                blocks = multiuser.downlink_split(X, pairs, "tf_spread")
                return np.concatenate([b.reshape(-1) for b in blocks])

        A = ot.effective_matrix(ot.SchemeConfig("OSTF", params, cp_len=cp), own, mode)
        W = ot.mmse_filter(A, noise_var)
        Y = slot_dft(body, params).swapaxes(-1, -2).reshape(len(body), -1)
        return np.array([adjoint((W @ y).reshape(params.M, params.N)) for y in Y])

    @staticmethod
    def own(ch, g):
        """``ch``'s taps with the gains ``g``: one frame's channel."""
        return ot.DDChannelSpec(tuple((l, k, gt) for (l, k, _), gt in zip(ch.taps, g)))

    @staticmethod
    def check_layers(link, ch, gains, t, sig, noise, noise_var):
        """Frame t's delay band as dense blocks and read in the delay-Doppler domain,
        against the probed chain (<= 1e-10); the channel of the whole stack against
        the per-tap oracle (<= 1e-12); and the stacked band, time-frequency response,
        channel, band channel and band LMMSE at each frame's variance ``noise_var``
        (T,), at row t against frame t's own call at its scalar variance, bitwise.
        Returns the names of the band solves checked, each against the dense LMMSE
        of the probed chain (<= 1e-10)."""
        params, mode, cp = link.params, link.sc.channel_mode, link.sc.cp_len
        own = TestReceivePath.own(ch, gains[t])
        band = delay_band(ch, params, gains)
        assert np.array_equal(band[t], delay_band(own, params))
        assert np.array_equal(ot.tf_channel(ch, params, gains)[t], ot.tf_channel(own, params))
        rx = ot.apply_channel(sig, ch, params, mode=mode, gains=gains)
        oracle = per_tap_channel_oracle(sig, ch, params, mode, gains)
        assert np.abs(rx.samples - oracle).max() < 1e-12
        frame = ot.TimeSignal(sig.samples[t], cp, sig.sample_rate, params.N)
        alone = ot.apply_channel(frame, own, params, mode=mode)
        assert np.array_equal(rx.samples[t], alone.samples)
        y = band_channel(band_rows(band), sig, mode, noise)
        alone = band_channel(band_rows(band[t]), frame, mode, (noise[0][t], noise[1][t]))
        assert np.array_equal(y[t], alone)

        probed = probed_time_channel(own, params, mode, cp)
        nb = link.blocks
        dense = np.zeros((nb, params.dof // nb, nb, params.dof // nb), dtype=complex)
        dense[range(nb), :, range(nb)] = band_blocks(band[t].reshape(ch.L_max, nb, -1))
        assert np.abs(dense.reshape(probed.shape) - probed).max() < 1e-10
        # each solve of the band LMMSE that fits the band, whichever band_solver picks
        lmmse = ot.mmse_dd(y[t], probed, noise_var[t])
        blocks, y = band.reshape(*band.shape[:-2], nb, -1), y.reshape(len(y), nb, -1)
        sides = [_dense_solve]
        if reduction_split(ch.L_max, blocks.shape[-1])[0] > 1:
            sides.append(_reduce_solve)
        for solve in sides:
            z = _band_adjoint(blocks, solve(blocks, y, noise_var))
            at = slice(t, t + 1)
            alone = _band_adjoint(blocks[at], solve(blocks[at], y[at], float(noise_var[t])))
            assert np.array_equal(z[t], alone[0])
            assert np.abs(z[t].reshape(-1) - lmmse).max() < 1e-10
            if solve is band_solver(*blocks.shape[-3:]):
                assert np.array_equal(band_filter(blocks, noise_var)(y), z)
        impulses = np.eye(params.dof).reshape(-1, params.N, params.M)
        y = band_channel(band_rows(band[t]), dd_synthesis(impulses, params, cp_len=cp), mode)
        closed = dd_analysis(y.reshape(impulses.shape)).reshape(params.dof, -1).T
        probed = ot.effective_matrix(ot.SchemeConfig("OTFS", params, cp_len=cp), own, mode)
        assert np.abs(closed - probed).max() < 1e-10
        return {solve.__name__ for solve in sides}

    @staticmethod
    def check_dense(link, ch, gains, t, body, noise_var):
        """The ML or Gaussian-spreading detector of a chunk's band at row t, each frame
        at its variance ``noise_var`` (T,): bitwise frame t's own one-frame call at its
        scalar variance, and against the probed chain of the library's symbol map to
        the received body, ``ml_detect`` on it or its ``mmse_filter`` (<= 1e-10)."""
        sc = link.sc
        own = TestReceivePath.own(ch, gains[t])
        got = link.receiver(ch, gains, noise_var)[0](body)[t]
        assert np.array_equal(got, link.receiver(own, None, float(noise_var[t]))[0](body[t]))
        probed = chain_matrix(*symbol_chain(link, own))
        if sc.equalizer == "ml":
            assert np.array_equal(got, ot.ml_detect(body[t], probed, link.const))
        else:
            assert np.abs(got - ot.mmse_filter(probed, noise_var[t]) @ body[t]).max() < 1e-10

    @staticmethod
    def check_gain_rows(link, ch, gains):
        """Each gain row's slot operators against the probed OSTF chain (<= 1e-10);
        each row of the stacked time-frequency response against the factored
        reference (<= 1e-12)."""
        params, mode, cp = link.params, link.sc.channel_mode, link.sc.cp_len
        H = ot.tf_channel(ch, params, gains)
        for g, h in zip(gains, H):
            own = TestReceivePath.own(ch, g)
            T = ot.slot_operators(own, params, mode)
            probed = probed_slot_chain(own, params, mode, cp)
            nb, B = len(T), T.shape[-1]
            dense = np.zeros((nb, B, nb, B), dtype=complex)
            dense[range(nb), :, range(nb)] = T
            assert np.abs(dense.reshape(probed.shape) - probed).max() < 1e-10
            assert np.abs(h - ot.tf_channel_factored(own, params)).max() <= 1e-12

    @pytest.mark.parametrize("scheme,downlink,mode", [
        *((s, None, m) for s in ("OTFS", "OSTF", "OFDM", "SCFDMA")
          for m in ("per_slot_cp", "cyclic")),
        ("OTFS", "dd_mapped-dft", "per_slot_cp"), ("OSTF", "tf_alloc-dft", "cyclic"),
        ("OTFS", "tf_spread-dft", "per_slot_cp"), ("OTFS", "tf_spread-gaussian", "cyclic"),
    ])
    def test_stacked_probe_is_the_one_impulse_probe(self, scheme, downlink, mode):
        # the library's probe in blocks of identity rows against one impulse at a
        # time, bitwise, on each link kind's symbol chain: odd M, and 9 x 8 points
        # in a block of 56 and a short one
        N = 1 if scheme in ("OFDM", "SCFDMA") else 8
        d = base_dict(scheme=scheme, frame={"M": 9, "N": N, "cp_len": 2 * (mode != "cyclic")},
                      channel={"random": {"L_max": 3, "V_max": N // 2 + 1}}, channel_mode=mode)
        if downlink is not None:
            mu_mode, spreader = downlink.split("-")
            d["multiuser"] = {"mode": mu_mode, "spreader": spreader, "K_d": 3, "K_D": 2}
        sc = scenario_from_dict(d)
        link = _Link(sc)
        tx, rx, dim = symbol_chain(link, scenario_channel(sc, trial_rng(sc.seed, 0, 0)))
        assert np.array_equal(chain_matrix(tx, rx, dim), impulse_probe(tx, rx, dim))

    def test_receive_detect_and_trial_split_against_oracles(self):
        # a fixed count of draws: every link kind in every round
        rng = np.random.default_rng(2026)
        routes, solvers, slots = set(), set(), set()
        for i, (scheme, downlink, mode, equalizer, random) in enumerate(self.draws()):
            sc = self.draw_scenario(rng, scheme, downlink, mode, equalizer, random)
            link, T = _Link(sc), sc.trials
            # a random chunk's frames each at their own variance, as across SNR
            # points; a fixed channel's receiver serves one point's
            noise_var = _noise_var(sc.snr_db_list[0]) * (np.arange(1, T + 1) if random else 1.0)
            noise_var = np.broadcast_to(noise_var, T)
            frames = [(0, t) for t in range(T)]
            ch, gains, bits, noise = link.draw(_TrialStreams(sc.seed), frames, noise_var)
            self.check_streams(link, gains, bits, noise, noise_var)
            detect, amp, receive = link.receiver(ch, gains, noise_var if random else noise_var[0])
            sig = link.transmit(bits, amp)
            rxsig = ot.apply_channel(sig, ch, link.params, mode=mode, gains=gains, noise=noise)
            # the received body, bitwise the channel's
            assert np.array_equal(receive(sig, noise), rxsig.body)
            g = np.array([[t.gain for t in ch.taps]] * sc.trials) if gains is None else gains
            # each frame scaled apart, so that a fixed channel's rows differ too
            scaled = g * np.arange(1, sc.trials + 1)[:, None]
            solvers |= self.check_layers(link, ch, scaled, i % T, sig, noise, noise_var)
            self.check_gain_rows(link, ch, scaled)
            if not link.banded and equalizer != "one_tap_tf":
                self.check_dense(link, ch, scaled, i % T, rxsig.body, noise_var)
            got = detect(rxsig.body)
            for t, y in enumerate(rxsig.body):  # every frame bitwise alone, at its variance
                if gains is None:
                    assert np.array_equal(got[t], detect(y[None])[0])
                else:
                    own_detect, own_amp, _ = link.receiver(ch, gains[t:t + 1], noise_var[t])
                    assert np.array_equal(got[t], own_detect(y[None])[0])
                    if amp is not None:  # the water-filled amplitudes too
                        assert np.array_equal(amp[t:t + 1], own_amp)
            if link.banded:  # every frame against its probed LMMSE
                if gains is None:  # one channel: one probed filter for every frame
                    want = self.probed_lmmse(link, ch, rxsig.body, noise_var[0])
                else:
                    want = np.concatenate([
                        self.probed_lmmse(link, self.own(ch, gt), y[None], nv)
                        for gt, y, nv in zip(gains, rxsig.body, noise_var)])
                assert np.abs(got - want).max() < 1e-10
            # a trial range is the merge of its split sub-ranges, bitwise
            cut = int(rng.integers(1, T))
            whole = run_trial_range(sc, 0, 0, T)
            split = run_trial_range(sc, 0, 0, cut).merge(run_trial_range(sc, 0, cut, T))
            assert format_csv([whole]) == format_csv([split])
            assert np.array_equal(whole.papr_values, split.papr_values)
            routes.add((downlink, mode, link.banded, link.spread, random))
            if downlink == "tf_spread-gaussian" and random and equalizer == "mmse_dd":
                slots.add(link.params.N)
        # the delay band read in DD or TF, and apply_channel, in both modes; Gaussian
        # spreading's per-draw detectors on a random channel
        for mode in ("per_slot_cp", "cyclic"):
            assert {(None, mode, True, True), (None, mode, True, False),
                    ("dd_mapped-dft", mode, True, True), ("tf_spread-dft", mode, True, True),
                    ("tf_alloc-dft", mode, True, False), (None, mode, False, False),
                    ("tf_spread-gaussian", mode, False, False)} <= {r[:4] for r in routes}
            assert ("tf_spread-gaussian", mode, False, False, True) in routes
        assert max(slots) > 1
        # both solves of band_solver's switch
        assert solvers == {"_reduce_solve", "_dense_solve"}


@pytest.mark.parametrize("channel", [
    {"taps": [
        {"delay_bin": 0, "doppler_bin": 0, "re": 1.0, "im": 0.0},
        {"delay_bin": 511, "doppler_bin": 3, "re": 0.5, "im": 0.0},
    ]},
    {"random": {"L_max": 512, "V_max": 2}},
])
def test_channel_memory_is_linear_in_the_frame(channel):
    # a 512 x 64 cyclic one-tap link with a delay of M - 1: a (delays,
    # M*N) table of the channel would hold 512 frames, while applying the
    # channel and reading its response hold a few frames at a time
    sc = scenario_from_dict(base_dict(frame={"M": 512, "N": 64}, channel=channel, trials=2))
    frame_bytes = 512 * 64 * 16
    peak = traced(lambda: run_trial_range(sc, 0, 0, 2))[1]
    assert peak < 32 * frame_bytes


class TestOutput:
    def test_csv_frozen_format(self):
        r = LinkResult(
            scheme="OTFS",
            snr_db=2.5,
            trials=3,
            bit_errors=1,
            symbol_errors=1,
            total_bits=3,
            total_symbols=2,
            papr_values=np.array([2.0, 4.0]),
        )
        text = format_csv([r])
        assert text.splitlines()[0] == CSV_HEADER
        assert text.splitlines()[1] == "OTFS,2.5,3,0.333333333333,0.5,3,3.98"
        assert text.endswith("\n")


class TestChannelViews:
    def test_inspect_channel_files(self, tmp_path):
        sc = scenario_from_dict(base_dict())
        paths = ot.runner.inspect_channel(sc, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["taps.csv", "tf_channel_db.csv", "windowed_dd_abs.csv"]
        tf = (tmp_path / "tf_channel_db.csv").read_text().splitlines()
        assert len(tf) == 8 and len(tf[0].split(",")) == 2
        # identity channel: 0 dB everywhere
        assert all(float(v) == 0.0 for row in tf for v in row.split(","))
        taps = (tmp_path / "taps.csv").read_text().splitlines()
        assert taps[0] == "delay_bin,doppler_bin,re,im"
        assert taps[1] == "0,0,1,0"

    def test_inspect_random_channel_deterministic(self, tmp_path):
        sc = scenario_from_dict(base_dict(channel={"random": {"L_max": 2, "V_max": 2}}))
        ot.runner.inspect_channel(sc, tmp_path / "a")
        ot.runner.inspect_channel(sc, tmp_path / "b")
        for name in ("taps.csv", "tf_channel_db.csv", "windowed_dd_abs.csv"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

    def test_floor_at_minus_300(self, tmp_path):
        # two equal taps cancel exactly on some cells; log of zero floors
        d = base_dict(channel={"taps": [
            {"delay_bin": 0, "doppler_bin": 0, "re": 0.5, "im": 0.0},
            {"delay_bin": 4, "doppler_bin": 0, "re": 0.5, "im": 0.0},
        ]})
        ot.runner.inspect_channel(scenario_from_dict(d), tmp_path)
        values = [
            float(v)
            for row in (tmp_path / "tf_channel_db.csv").read_text().splitlines()
            for v in row.split(",")
        ]
        assert min(values) == -300.0


class TestPaprCcdf:
    def test_format_and_monotonicity(self):
        sc = scenario_from_dict(base_dict(trials=40))
        text = papr_ccdf(sc)
        lines = text.splitlines()
        assert lines[0] == "papr_db,ccdf"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        th = [r[0] for r in rows]
        cc = [r[1] for r in rows]
        assert th[0] == 0.0 and all(b - a == pytest.approx(0.25) for a, b in zip(th, th[1:]))
        assert all(a >= b for a, b in zip(cc, cc[1:]))  # CCDF non-increasing
        assert cc[0] == 1.0 and cc[-1] == 0.0

    def test_deterministic(self):
        sc = scenario_from_dict(base_dict(trials=10))
        assert papr_ccdf(sc) == papr_ccdf(sc)

    def test_multiuser_branch(self):
        sc = scenario_from_dict(base_dict(
            trials=10, multiuser={"mode": "dd_mapped", "K_d": 2, "K_D": 1}
        ))
        lines = papr_ccdf(sc).splitlines()
        assert lines[0] == "papr_db,ccdf" and len(lines) > 2
