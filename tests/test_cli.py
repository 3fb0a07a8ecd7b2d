"""Command-line behaviour: subcommands, exit codes, output plumbing."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import otfsim as ot
import otfsim.transforms
from otfsim.cli import (
    EXIT_CONFIG, EXIT_GUARD, EXIT_INVARIANT, EXIT_OK, SNR_GRID_CAP, _parse_snr_grid, main,
)
from otfsim.runner import load_scenario
from otfsim.selftest import run_selftest


@pytest.fixture
def config_file(tmp_path):
    def write(name="sc.json", **over):
        d = {
            "frame": {"M": 8, "N": 2},
            "scheme": "OTFS",
            "constellation": "QPSK",
            "channel": {
                "taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 1.0, "im": 0.0}]
            },
            "channel_mode": "cyclic",
            "snr_db_list": [10.0, 20.0],
            "trials": 4,
            "seed": 5,
        }
        d.update(over)
        p = tmp_path / name
        p.write_text(json.dumps(d))
        return str(p)

    return write


# two taps that cancel on subcarrier 0: a null time-frequency cell
NULL_CELL = {"taps": [
    {"delay_bin": 0, "doppler_bin": 0, "re": 0.5, "im": 0.0},
    {"delay_bin": 1, "doppler_bin": 0, "re": -0.5, "im": 0.0},
]}


class TestSimulate:
    def test_stdout_csv(self, config_file, capsys):
        assert main(["simulate", "--config", config_file()]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "scheme,snr_db,trials,ber,ser,papr_mean,papr_p99"
        assert len(lines) == 3  # one per SNR point
        assert lines[1].startswith("OTFS,10,4,")

    def test_out_file(self, config_file, tmp_path, capsys):
        dest = tmp_path / "res.csv"
        assert main(["simulate", "--config", config_file(), "--out", str(dest)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert dest.read_text().splitlines()[0].startswith("scheme,")

    def test_workers_flag_identical_output(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = config_file()
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(a.with_name('a2.csv')), "--workers", "1"]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(b), "--workers", "2"]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_seed_override_changes_random_channel_run(self, config_file, capsys):
        cfg = config_file(channel={"random": {"L_max": 2, "V_max": 1}}, snr_db_list=[10.0])
        main(["simulate", "--config", cfg, "--seed", "1"])
        first = capsys.readouterr().out
        main(["simulate", "--config", cfg, "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second
        main(["simulate", "--config", cfg, "--seed", "1"])
        assert capsys.readouterr().out == first

    def test_negative_seed_rejected(self, config_file, capsys):
        assert main(["simulate", "--config", config_file(), "--seed", "-3"]) == EXIT_CONFIG

    def test_missing_config_flag(self, capsys):
        assert main(["simulate"]) == EXIT_CONFIG

    def test_nonexistent_config(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_scenario_value(self, config_file, capsys):
        assert main(["simulate", "--config", config_file(trials=0)]) == EXIT_CONFIG

    def test_format_choice_guarded(self, config_file):
        assert main(["simulate", "--config", config_file(), "--format", "json"]) == EXIT_CONFIG

    def test_guard_refusal_is_exit_3(self, config_file, capsys):
        # a cyclic-mode LMMSE couples all 8192 points; the 8192 x 8192
        # operator (1 GiB) is refused before it is allocated
        cfg = config_file(
            frame={"M": 128, "N": 64},
            equalizer="mmse_dd",
            snr_db_list=[10.0],
            trials=1,
        )
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", cfg]) == EXIT_GUARD
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "guard" in capsys.readouterr().err
        assert peak < 64 * 2**20

    def test_per_slot_lmmse_guard_is_exit_3(self, config_file, capsys):
        # 65536 x 16 points pass the frame cap, but the per-slot operators
        # would hold 32 GiB; they are refused before they are allocated
        cfg = config_file(
            frame={"M": 65536, "N": 16, "cp_len": 2},
            channel={"random": {"L_max": 3, "V_max": 2}},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
            snr_db_list=[10.0],
            trials=1,
        )
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", cfg]) == EXIT_GUARD
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "guard" in captured.err and "Traceback" not in captured.err
        assert peak < 256 * 2**20

    def test_water_fill_far_below_the_floors_runs(self, tmp_path, capsys):
        # at -200 dB every user's floor is ~1e20 times the budget; the whole
        # budget goes to the strongest user, where it once rounded away to
        # an all-zero frame and an exit-1 PAPR error after the scenario parsed
        golden = Path(__file__).parent / "golden" / "tf_alloc_onetap_water_fill.json"
        d = json.loads(golden.read_text())
        d["snr_db_list"] = [-200]
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(d))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("OTFS,-200,8,")

    def test_dense_downlink_guard_is_exit_3_before_probing(
        self, config_file, capsys, monkeypatch
    ):
        # Gaussian spreading is not unitary, so its joint LMMSE needs the
        # probed user map; 128 x 64 points are refused before the first probe
        # and before the channel's slot blocks are built
        import otfsim.runner

        def refuse(*args, **kwargs):
            raise AssertionError("slot operators built before the user-map guard")

        calls = []
        real = otfsim.runner.apply_channel
        monkeypatch.setattr(
            otfsim.runner, "apply_channel", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        monkeypatch.setattr(otfsim.runner, "slot_operators", refuse)
        cfg = config_file(
            frame={"M": 128, "N": 64, "cp_len": 1},
            channel_mode="per_slot_cp",
            equalizer="mmse_dd",
            snr_db_list=[10.0],
            trials=1,
            multiuser={"mode": "tf_spread", "K_d": 2, "K_D": 2, "spreader": "gaussian"},
        )
        assert main(["simulate", "--config", cfg]) == EXIT_GUARD
        assert "guard" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("path,value", [
        (("channel", "taps"), 5),
        (("channel", "taps"), [3]),
        (("frame", "M"), None),
        (("multiuser", "K_d"), 0),
        (("trials",), 2.7),
        (("trials",), True),
    ])
    def test_ill_typed_scenario_is_exit_1(self, config_file, capsys, path, value):
        # on a tf_alloc downlink these once ended in TypeError or
        # ZeroDivisionError tracebacks, or silently ran 2 or 1 trials
        d = {
            "frame": {"M": 8, "N": 2},
            "channel": {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 1.0, "im": 0.0}]},
            "multiuser": {"mode": "tf_alloc", "K_d": 2, "K_D": 1},
            "trials": 4,
        }
        assert main(["simulate", "--config", config_file(**d)]) == EXIT_OK
        capsys.readouterr()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert main(["simulate", "--config", config_file(**d)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("over", [
        # a tap set without power once printed a BER 0.51 row and exit 0
        {"channel": {"taps": [{"delay_bin": 1, "doppler_bin": 0, "re": 0.0, "im": 0.0}]}},
        # these parsed and then failed in the first trial
        {"frame": {"M": 8, "N": 2, "cp_len": 1}, "channel_mode": "per_slot_cp",
         "channel": {"taps": [{"delay_bin": 2, "doppler_bin": 0, "re": 1.0, "im": 0.0}]}},
        {"frame": {"M": 8, "N": 2, "cp_len": 1}, "channel_mode": "per_slot_cp",
         "channel": {"random": {"L_max": 3, "V_max": 1}}},
        {"channel": {"random": {"L_max": 1, "V_max": 3}}},
        {"channel": {"random": {"L_max": 0, "V_max": 1}}},
        {"frame": {"M": 8, "N": 2, "cp_len": 1}},
        {"multiuser": {"mode": "tf_alloc", "K_d": 2, "K_D": 1, "power_budget": 0.0}},
        {"multiuser": {"mode": "tf_alloc", "K_d": 2, "K_D": 1, "power_budget": -1.0}},
        {"seed": 2**128},
        # an overflowing noise variance ended in a traceback
        {"snr_db_list": [10.0, -1e308]},
        # a numpy allocation traceback ("Unable to allocate 7.28 TiB")
        {"frame": {"M": 10**12, "N": 2}},
        # a zero noise variance: a ZeroDivisionError traceback from the
        # one-tap equalizer on the null cell, a silent noise-free run with mmse_dd
        {"channel": NULL_CELL, "snr_db_list": [4000]},
        {"channel": NULL_CELL, "snr_db_list": [4000], "equalizer": "mmse_dd"},
    ], ids=["zero_power_taps", "fixed_delay_over_cp", "random_delay_over_cp",
            "random_doppler_over_half_N", "random_zero_spread", "cyclic_with_cp",
            "power_budget_zero", "power_budget_negative", "seed_over_philox_key",
            "snr_overflows_noise", "frame_over_cap", "snr_underflows_noise",
            "snr_underflows_noise_mmse"])
    def test_scenario_outside_the_boundary_is_exit_1_before_any_trial(
        self, config_file, capsys, monkeypatch, over
    ):
        import otfsim.runner

        def refuse(*a, **k):
            raise AssertionError("a link was built for a refused scenario")

        monkeypatch.setattr(otfsim.runner, "_Link", refuse)
        assert main(["simulate", "--config", config_file(**over)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_snr_is_exit_1_without_rows(self, tmp_path, config_file, bad, capsys):
        # Python's JSON reader accepts NaN and Infinity literals; they are
        # refused before any trial runs
        cfg = config_file(snr_db_list=[10.0, float(bad)])
        assert bad in Path(cfg).read_text()
        dest = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err
        assert main(["simulate", "--config", cfg, "--out", str(dest)]) == EXIT_CONFIG
        assert not dest.exists()


class TestOverridesAreValidated:
    """A scenario changed on the command line meets the file's checks, before any trial."""

    def test_null_cell_scenario_is_valid(self, config_file):
        sc = load_scenario(config_file(channel=NULL_CELL))
        H = ot.tf_channel(ot.DDChannelSpec(taps=((0, 0, 0.5), (1, 0, -0.5))), sc.params)
        assert np.abs(H).min() == 0.0

    @pytest.mark.parametrize("argv,message", [
        # 2**128 once parsed and failed in the first trial
        (["simulate", "--seed", str(2**128)], "2**128"),
        (["simulate", "--seed", "-1"], "2**128"),
        # 10**-400 underflows to a zero noise variance; the one-tap
        # equalizer then divided by the null cell's zero gain
        (["sweep", "--snr", "4000:4000:1"], "noise variance"),
    ], ids=["seed_over_philox_key", "seed_negative", "sweep_snr_without_noise"])
    def test_override_outside_the_boundary_is_exit_1_before_any_trial(
        self, config_file, capsys, monkeypatch, argv, message
    ):
        import otfsim.runner

        def refuse(*a, **k):
            raise AssertionError("a link was built for a refused scenario")

        monkeypatch.setattr(otfsim.runner, "_Link", refuse)
        assert main([*argv, "--config", config_file(channel=NULL_CELL)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "Traceback" not in captured.err
        assert message in captured.err


class TestSweep:
    def test_grid_overrides_snr_list(self, config_file, capsys):
        assert main(["sweep", "--config", config_file(), "--snr", "0:4:2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "2", "4"]

    def test_fractional_step(self, config_file, capsys):
        assert main(["sweep", "--config", config_file(), "--snr", "0:1:0.5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "0.5", "1"]

    def test_tenth_step_keeps_its_rounded_points(self):
        assert _parse_snr_grid("0:1:0.1") == tuple(i / 10 for i in range(11))

    # steps that cannot move the rounded grid from its first point or from a
    # later one, and a grid over the point cap
    @pytest.mark.parametrize("bad", [
        "abc", "0:10", "4:0:2", "0:10:0", "0:10:-1",
        "1:2:1e-20", "1:2:1e-10", "0:1:6e-10", f"0:1:{1 / SNR_GRID_CAP}",
    ])
    def test_bad_grids(self, config_file, bad, capsys):
        assert main(["sweep", "--config", config_file(), "--snr", bad]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan:10:2", "0:inf:1", "-inf:0:1", "0:10:nan"])
    def test_non_finite_grids(self, config_file, bad, capsys):
        assert main(["sweep", "--config", config_file(), f"--snr={bad}"]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    def test_snr_required(self, config_file):
        assert main(["sweep", "--config", config_file()]) == EXIT_CONFIG


class TestInspectChannel:
    def test_writes_and_lists_files(self, config_file, tmp_path, capsys):
        out = tmp_path / "views"
        assert main(["inspect-channel", "--config", config_file(), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        for name in ("tf_channel_db.csv", "windowed_dd_abs.csv", "taps.csv"):
            assert (out / name).exists()

    def test_seed_changes_drawn_channel(self, config_file, tmp_path, capsys):
        cfg = config_file(channel={"random": {"L_max": 2, "V_max": 2}})
        main(["inspect-channel", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["inspect-channel", "--config", cfg, "--out", str(tmp_path / "s2"), "--seed", "2"])
        t1 = (tmp_path / "s1" / "taps.csv").read_text()
        t2 = (tmp_path / "s2" / "taps.csv").read_text()
        assert t1 != t2


class TestPaprCcdf:
    def test_stdout(self, config_file, capsys):
        assert main(["papr-ccdf", "--config", config_file(trials=20)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "papr_db,ccdf"
        assert float(lines[1].split(",")[1]) == 1.0

    def test_out_file(self, config_file, tmp_path):
        dest = tmp_path / "ccdf.csv"
        assert main(["papr-ccdf", "--config", config_file(trials=10), "--out", str(dest)]) == EXIT_OK
        assert dest.read_text().startswith("papr_db,ccdf")


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6 and "[FAIL]" not in out

    def test_library_results(self):
        results = run_selftest()
        assert [r.name for r in results] == [
            "transform_unitarity",
            "scheme_reductions",
            "channel_dd_oracle",
            "tf_channel_factored",
            "multiuser_interference_null",
            "kron_vec_identity",
        ]
        assert all(r.passed for r in results)

    def test_injected_sign_error_caught(self, monkeypatch, capsys):
        # negative control: break the lattice transform and the invariant
        # suite must notice and flip the exit code
        real = otfsim.transforms.isfft
        monkeypatch.setattr(otfsim.transforms, "isfft", lambda x: -real(x))
        assert main(["selftest"]) == EXIT_INVARIANT
        assert "[FAIL] transform_unitarity" in capsys.readouterr().out

    def test_injected_crash_reported_not_raised(self, monkeypatch, capsys):
        def boom(x):
            raise RuntimeError("broken transform")

        monkeypatch.setattr(otfsim.transforms, "isfft", boom)
        assert main(["selftest"]) == EXIT_INVARIANT
        assert "RuntimeError" in capsys.readouterr().out


def child_env():
    """Environment for a fresh interpreter that imports this otfsim source tree."""
    src = str(Path(otfsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


class TestParserPlumbing:
    def test_no_arguments(self):
        assert main([]) == EXIT_CONFIG

    def test_unknown_subcommand(self):
        assert main(["analyze"]) == EXIT_CONFIG

    def test_entrypoint_module_execution(self, config_file, tmp_path):
        # the module runs as a script end to end in a fresh interpreter
        dest = tmp_path / "cli_out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "otfsim.cli", "simulate",
             "--config", config_file(), "--out", str(dest)],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert dest.read_text().startswith("scheme,")

    def test_entrypoint_exit_code_propagates(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "otfsim.cli", "simulate",
             "--config", str(tmp_path / "missing.json")],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 1
