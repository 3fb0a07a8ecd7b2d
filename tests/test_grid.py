"""The scenario grid: every cell's pinned output, reproduced byte for byte.

``tests/golden/grid/cells.json`` pins each cell that :func:`cells` enumerates, by
name: the CSV text of ``run`` and the SHA-256 of ``papr_ccdf``'s text, or, for
a refused cell, the error class and the scenario key its message names.  The
grid is 4 schemes x {one_tap_tf, mmse_dd} x 2 channel modes x fixed/random
channel x QPSK/16QAM x {single user and 7 downlinks} on 8 x 4 frames (N = 1
for OFDM and SC-FDMA), 6 trials at 2 SNR points, and then BPSK ML on 4 x 2 frames,
a random channel over two chunks a point, water-filled downlinks, a BPSK row
and a set of refusals.  A moved cell means what a moved golden CSV means (see
``test_golden.py``).  Re-pin only a cell a change is meant to move, by running
``PYTHONPATH=src python tests/test_grid.py``, with a line in CHANGES.md that
gives each moved cell and its reason.
"""

import hashlib
import json

import numpy as np
import pytest

from otfsim.errors import ConfigError, GuardError
from otfsim.runner import (
    _Link, format_csv, load_scenario, papr_ccdf, run, scenario_from_dict,
)
from test_golden import GOLDEN, SCENARIOS

# kept beside the golden scenarios, not among them: test_golden.SCENARIOS
# reads every golden/*.json as a scenario
GRID = GOLDEN / "grid" / "cells.json"
#: (mode, mapping, spreader) of each downlink: 2 x 2 users, 2 x 1 where N = 1
DOWNLINKS = {
    "dd_mapped-localized": ("dd_mapped", "localized", "dft"),
    "dd_mapped-interleaved": ("dd_mapped", "interleaved", "dft"),
    "tf_alloc-localized": ("tf_alloc", "localized", "dft"),
    "tf_alloc-interleaved": ("tf_alloc", "interleaved", "dft"),
    "tf_spread-dft-localized": ("tf_spread", "localized", "dft"),
    "tf_spread-dft-interleaved": ("tf_spread", "interleaved", "dft"),
    "tf_spread-gaussian": ("tf_spread", "localized", "gaussian"),
}


def cell(scheme, equalizer, mode, channel, constellation, downlink=None, M=8, N=4,
         budget=None, **over):
    """A cell's scenario: two taps at delays 0 and 1, the second at Doppler
    N/2, or random taps over the same spreads; one prefix sample a slot in
    ``per_slot_cp`` mode; a downlink's power ``budget`` if given."""
    if channel == "random":
        ch = {"random": {"L_max": 2, "V_max": N // 2 + 1}}
    else:
        ch = {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 0.8, "im": 0.1},
                       {"delay_bin": 1, "doppler_bin": N // 2, "re": -0.3, "im": 0.5}]}
    d = {"frame": {"M": M, "N": N, "cp_len": int(mode == "per_slot_cp")}, "scheme": scheme,
         "constellation": constellation, "channel": ch, "channel_mode": mode,
         "equalizer": equalizer, "snr_db_list": [0.0, 10.0], "trials": 6, "seed": 3}
    if downlink is not None:
        mu_mode, mapping, spreader = DOWNLINKS[downlink]
        d["multiuser"] = {"mode": mu_mode, "K_d": 2, "K_D": min(2, N),
                          "mapping": mapping, "spreader": spreader}
        if budget is not None:
            d["multiuser"]["power_budget"] = budget
    return {**d, **over}


def cells() -> dict:
    """Every cell, in a fixed order: name -> (scenario dict, the key a refusal names)."""
    grid = {}
    for scheme in ("OTFS", "OSTF", "OFDM", "SCFDMA"):
        N = 1 if scheme in ("OFDM", "SCFDMA") else 4
        for equalizer in ("one_tap_tf", "mmse_dd"):
            for mode in ("per_slot_cp", "cyclic"):
                for channel in ("fixed", "random"):
                    for const in ("QPSK", "16QAM"):
                        for downlink in (None, *DOWNLINKS):
                            name = "-".join([scheme, equalizer, mode, channel, const,
                                             downlink or "single"])
                            grid[name] = cell(scheme, equalizer, mode, channel, const,
                                              downlink, N=N), None
    for mode in ("per_slot_cp", "cyclic"):
        for channel in ("fixed", "random"):
            grid[f"OTFS-ml-{mode}-{channel}-BPSK-4x2"] = cell(
                "OTFS", "ml", mode, channel, "BPSK", M=4, N=2), None
            grid[f"OTFS-one_tap_tf-{mode}-{channel}-QPSK-water_fill"] = cell(
                "OTFS", "one_tap_tf", mode, channel, "QPSK", "tf_alloc-localized",
                budget=1.5), None
    for scheme in ("OTFS", "OSTF", "OFDM", "SCFDMA"):
        for equalizer in ("one_tap_tf", "mmse_dd"):
            N = 1 if scheme in ("OFDM", "SCFDMA") else 4
            grid[f"{scheme}-{equalizer}-per_slot_cp-random-BPSK-single"] = cell(
                scheme, equalizer, "per_slot_cp", "random", "BPSK", N=N), None
    # 528 samples a frame: 15 frames a chunk, so 20 trials take two chunks a point
    grid["OTFS-mmse_dd-per_slot_cp-random-QPSK-two_chunks"] = cell(
        "OTFS", "mmse_dd", "per_slot_cp", "random", "QPSK", M=32, N=16, trials=20), None
    refused = {
        "ml-16QAM-over_guard": (cell("OTFS", "ml", "cyclic", "fixed", "16QAM", M=4, N=2),
                                "equalizer"),
        "ml-downlink": (cell("OTFS", "ml", "cyclic", "fixed", "QPSK", "dd_mapped-localized",
                             M=4, N=2), "multiuser"),
        "budget-mmse_dd": (cell("OTFS", "mmse_dd", "cyclic", "fixed", "QPSK",
                                "tf_alloc-localized", budget=1.0), "power_budget"),
        "K_D-no_tiling": (cell("OFDM", "one_tap_tf", "cyclic", "fixed", "QPSK", N=1,
                               multiuser={"mode": "tf_alloc", "K_d": 2, "K_D": 2}), "K_D"),
        "cyclic-prefix": (cell("OTFS", "one_tap_tf", "cyclic", "fixed", "QPSK",
                               frame={"M": 8, "N": 4, "cp_len": 1}), "cp_len"),
        "delay-beyond_prefix": (cell("OTFS", "one_tap_tf", "per_slot_cp", "random", "QPSK",
                                     frame={"M": 8, "N": 4, "cp_len": 0}), None),
    }
    for channel in ("fixed", "random"):
        # the Gaussian map of 128 x 64 points is refused before it is probed
        refused[f"gaussian-{channel}-map_guard"] = cell(
            "OTFS", "mmse_dd", "per_slot_cp", channel, "QPSK", "tf_spread-gaussian",
            M=128, N=64, trials=1, snr_db_list=[10.0]), None
    grid.update((f"refused-{name}", value) for name, value in refused.items())
    return grid


def record(raw: dict, key) -> dict:
    """A cell's pin: its CSV text and PAPR CCDF digest, or its refusal."""
    try:
        sc = scenario_from_dict(raw)
        csv = format_csv(run(sc))
    except (ConfigError, GuardError) as e:
        return {"error": type(e).__name__, "key": key if key and key in str(e) else None}
    return {"csv": csv, "papr_sha256": hashlib.sha256(papr_ccdf(sc).encode()).hexdigest()}


def pinned() -> dict:
    return json.loads(GRID.read_text())


def test_every_cell_reproduces_its_pin():
    pins, grid = pinned(), cells()
    assert list(grid) == list(pins), "the grid no longer enumerates the pinned cells"
    moved = [name for name, (raw, key) in grid.items() if record(raw, key) != pins[name]]
    assert not moved, f"{len(moved)} cells moved: {moved}"


@pytest.mark.parametrize("workers, first", [(2, 0), (8, 10)])
def test_a_tenth_of_the_cells_reproduce_in_a_pool(workers, first):
    # every tenth cell, at 2 and 8 workers in turn: a pool run of a cell takes
    # about 20 ms on 2 cores, so both counts on each would double this test
    pins = pinned()
    moved = [name for name, (raw, _) in list(cells().items())[first::20] if "csv" in pins[name]
             and format_csv(run(scenario_from_dict(raw), workers)) != pins[name]["csv"]]
    assert not moved, f"{len(moved)} cells moved at {workers} workers: {moved}"


BUILDERS = ("_one_tap", "_band_lmmse", "_dense")


def builder_of(sc) -> str:
    """The one receiver builder of a scenario class: one-tap; the band LMMSE of
    every map but Gaussian spreading; the dense detector of ML and Gaussian
    spreading."""
    if sc.equalizer == "one_tap_tf":
        return "_one_tap"
    mu = sc.multiuser
    gaussian = mu is not None and mu.mode == "tf_spread" and mu.spreader == "gaussian"
    return "_dense" if sc.equalizer == "ml" or gaussian else "_band_lmmse"


def test_every_scenario_class_picks_one_builder(monkeypatch):
    # every valid cell and every golden picks its class's builder, and runs a
    # chunk of 2 trials with the other two builders refused
    def refuse(*args):
        raise AssertionError("a second builder was called")

    pins = pinned()
    goldens = [(name, load_scenario(GOLDEN / f"{name}.json")) for name in SCENARIOS]
    wrong = []
    for name, sc in [(name, scenario_from_dict(raw)) for name, (raw, _) in cells().items()
                     if "csv" in pins[name]] + goldens:
        link, want = _Link(sc), builder_of(sc)
        with monkeypatch.context() as m:
            for other in set(BUILDERS) - {want}:
                m.setattr(_Link, other, refuse)
            try:
                fixed_rx = None if link.fixed is None else link.receiver(link.fixed, None, 0.1)
                link.run_chunk([(0, 0), (0, 1)], np.full(2, 0.1), fixed_rx)
            except AssertionError:
                wrong.append(name)
                continue
        if link.builder != want:
            wrong.append(name)
    assert not wrong, f"picked another builder: {wrong}"
    assert {builder_of(sc) for _, sc in goldens} == set(BUILDERS)


if __name__ == "__main__":
    GRID.write_text(json.dumps({name: record(raw, key) for name, (raw, key) in cells().items()},
                               indent=1) + "\n")
