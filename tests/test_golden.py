"""Pinned simulate output: golden CSVs must be reproduced byte for byte.

Each ``tests/golden/<name>.json`` scenario has a ``<name>.csv`` captured
with ``otfsim simulate --config <name>.json`` from the dense
impulse-probed engine, before any closed-form fast path replaced it.
The set covers every single-user scheme under joint LMMSE with fixed and
random channels, 16QAM, ``cyclic`` mode, the one-tap and ML detectors
and downlinks in all three modes: ``dd_mapped`` (localized and
interleaved, fixed and random channels, ``cyclic`` mode), ``tf_alloc``
(joint LMMSE and water-filled one-tap), DFT ``tf_spread`` (joint LMMSE
and one-tap) and Gaussian ``tf_spread``.  Two were captured later, from
the per-tap channel before it was rebuilt from the delay band: a
water-filled ``tf_alloc`` downlink on a random channel
(``tf_alloc_water_fill_random``) and ``cyclic``-mode one-tap OSTF
(``ostf_onetap_cyclic_16qam``).  Two pin the dense detectors on random
channels, captured while they still read the slot operators: ``cyclic``
Gaussian ``tf_spread`` under the joint LMMSE
(``tf_spread_gaussian_mmse_random_cyclic``) and single-user ML
(``otfs_ml_random``).  One pins single-user one-tap on a fixed channel
over several chunks a point, captured while one-tap still received by
``apply_channel``: ``cyclic`` OSTF with delay gaps and a Doppler tap at
+N/2 (``ostf_onetap_fixed_cyclic``).  Every scenario is re-run at 1, 2 and 8
workers.  A mismatch means a fast path changed a hard decision,
the RNG draw order or the merge order of trial ranges; do not regenerate
a CSV to make it pass.

``<name>.papr.csv`` pins ``otfsim papr-ccdf --config <name>.json`` the
same way: it fixes the transmit chain and its draw order.
"""

from pathlib import Path

import numpy as np
import pytest

from otfsim import equalizer, modem, oracles, runner
from otfsim.runner import (
    _Link, format_csv, load_scenario, papr_ccdf, run, scenario_channel, trial_rng,
)

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_golden_set_is_complete():
    assert len(SCENARIOS) >= 8
    for name in SCENARIOS:
        assert (GOLDEN / f"{name}.csv").is_file(), name
        assert (GOLDEN / f"{name}.papr.csv").is_file(), name


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_reproduces_golden_csv(name, workers):
    sc = load_scenario(GOLDEN / f"{name}.json")
    assert format_csv(run(sc, workers=workers)) == (GOLDEN / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", SCENARIOS)
def test_papr_ccdf_reproduces_golden_csv(name):
    sc = load_scenario(GOLDEN / f"{name}.json")
    assert papr_ccdf(sc) == (GOLDEN / f"{name}.papr.csv").read_text()


@pytest.mark.parametrize("name", SCENARIOS)
def test_detector_never_probes_the_channel(name, monkeypatch):
    # every detector reads the received body samples through closed-form
    # channel operators, and every receive forms them by band_channel; the
    # probed chain and apply_channel are test oracles only, and only ML and
    # Gaussian spreading, by their scenario, probe their user map
    def refuse(*args, **kwargs):
        raise AssertionError("detector build probed the channel chain")

    monkeypatch.setattr(runner, "apply_channel", refuse)
    monkeypatch.setattr(runner, "effective_matrix", refuse)
    # every probed builder runs through it, by the oracles' name or the runner's
    monkeypatch.setattr(oracles, "chain_matrix", refuse)
    monkeypatch.setattr(runner, "chain_matrix", refuse)
    monkeypatch.setattr(modem, "demodulate", refuse)
    sc = load_scenario(GOLDEN / f"{name}.json")
    mu = sc.multiuser
    if sc.equalizer != "ml" and not (mu and mu.mode == "tf_spread" and mu.spreader == "gaussian"):
        monkeypatch.setattr(_Link, "_map_matrix", property(refuse))
    link = _Link(sc)
    draws = [scenario_channel(sc, trial_rng(sc.seed, 0, t)) for t in range(2)]
    detect, _, _ = link.receiver(draws[0], None, 0.1)
    assert callable(detect)
    # a 2-frame gain stack: the chunk path, one detector per draw for ML and Gaussian spreading
    gains = np.array([[t.gain for t in ch.taps] for ch in draws])
    detect, _, receive = link.receiver(draws[0], gains, np.array([0.1, 0.2]))
    assert detect(np.zeros((2, sc.params.dof))).shape == (2, link.K * link.block)
    sig = link.transmit(np.zeros((2, link.n_bits), dtype=np.int64))
    assert receive(sig, None).shape == (2, sc.params.dof)
    assert link.receiver(draws[0], None, 0.1)[2](sig, None).shape == (2, sc.params.dof)


@pytest.mark.parametrize("name", ["otfs_mmse_random", "tf_alloc_mmse_random"])
def test_random_lmmse_solves_once_per_chunk(name, monkeypatch):
    # the band LMMSE builds no dense blocks, no filter and no dense Gram:
    # one cyclic reduction of its band stack per chunk of trials, here 5 trials
    # cut from the run's point-major trials
    def refuse(*args, **kwargs):
        raise AssertionError("dense LMMSE built")

    calls = []
    reduce = equalizer._reduce
    monkeypatch.setattr(runner, "band_blocks", refuse)
    monkeypatch.setattr(runner, "mmse_filter", refuse)
    monkeypatch.setattr(equalizer, "band_gram", refuse)
    monkeypatch.setattr(equalizer, "_reduce", lambda *a: calls.append(1) or reduce(*a))
    sc = load_scenario(GOLDEN / f"{name}.json")
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 5 * _Link(sc).n_samples)
    assert format_csv(run(sc)) == (GOLDEN / f"{name}.csv").read_text()
    assert len(calls) == -(-sc.trials * len(sc.snr_db_list) // 5)


@pytest.mark.parametrize("name", ["tf_spread_gaussian_mmse_random_cyclic", "otfs_ml_random"])
def test_random_dense_chunk_reads_one_band(name, monkeypatch):
    # ML and Gaussian spreading read a chunk of random draws, here 5 trials
    # of the run's point-major trials, through one stacked delay band: the
    # body they detect and every draw's dense operator
    calls = []
    delay_band = runner.delay_band
    monkeypatch.setattr(
        runner, "delay_band", lambda *a, **k: calls.append(1) or delay_band(*a, **k)
    )
    sc = load_scenario(GOLDEN / f"{name}.json")
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 5 * _Link(sc).n_samples)
    assert format_csv(run(sc)) == (GOLDEN / f"{name}.csv").read_text()
    assert len(calls) == -(-sc.trials * len(sc.snr_db_list) // 5)


@pytest.mark.parametrize("name", ["otfs_onetap_random", "tf_alloc_water_fill_random"])
def test_random_one_tap_reads_one_response_per_chunk(name, monkeypatch):
    # the one-tap receiver of a chunk of random draws, here 5 trials of the
    # run's point-major trials, reads
    # every frame's response from one stacked tf_channel call, and its
    # water-filled amplitudes from the same response
    calls = []
    tf_channel = runner.tf_channel
    monkeypatch.setattr(
        runner, "tf_channel", lambda *a, **k: calls.append(1) or tf_channel(*a, **k)
    )
    sc = load_scenario(GOLDEN / f"{name}.json")
    monkeypatch.setattr(runner, "CHUNK_SAMPLES", 5 * _Link(sc).n_samples)
    assert format_csv(run(sc)) == (GOLDEN / f"{name}.csv").read_text()
    assert len(calls) == -(-sc.trials * len(sc.snr_db_list) // 5)


def test_fixed_one_tap_builds_its_rows_once_per_link(monkeypatch):
    # a fixed one-tap link builds its channel's delay rows once, and each of
    # the point's 3 chunks receives through them
    calls = []
    delay_rows = runner.delay_rows
    monkeypatch.setattr(
        runner, "delay_rows", lambda *a, **k: calls.append(1) or delay_rows(*a, **k)
    )
    sc = load_scenario(GOLDEN / "ostf_onetap_fixed_cyclic.json")
    assert -(-sc.trials // _Link(sc).chunk) == 3
    assert format_csv(run(sc)) == (GOLDEN / "ostf_onetap_fixed_cyclic.csv").read_text()
    assert len(calls) == len(sc.snr_db_list)
