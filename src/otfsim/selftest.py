"""Built-in invariant suite backing the CLI ``selftest`` subcommand.

Each check re-derives an algebraic identity the library is supposed to
satisfy and measures the worst deviation on deterministic random data.
Checks call through the module namespaces (not frozen local references),
so a deliberately broken function is caught — the test suite exercises
that with an injected sign error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, equalizer, modem, multiuser, oracles, runner, transforms
from .frame import interleaved_map, localized_map, make_frame
from .modem import SchemeConfig

_SEED = 20240915
_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_unitarity() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for M, N in [(4, 4), (8, 2), (16, 8), (1, 8), (8, 1)]:
        params = make_frame(M, N)
        x = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
        X = transforms.isfft(x)
        worst = max(worst, np.max(np.abs(transforms.sfft(X) - x)))
        worst = max(worst, abs(np.linalg.norm(X) - np.linalg.norm(x)))
        sig = transforms.heisenberg(X, params, cp_len=2 if M > 2 else 0)
        worst = max(worst, np.max(np.abs(transforms.wigner(sig, params) - X)))
    return CheckResult("transform_unitarity", worst < _TOL, f"max deviation {worst:.3e}")


def _check_reductions() -> CheckResult:
    rng = np.random.default_rng(_SEED + 1)
    M = 16
    params1 = make_frame(M, 1)
    x = rng.normal(size=M) + 1j * rng.normal(size=M)
    a = modem.modulate(SchemeConfig("OTFS", params1), x[None, :]).samples
    b = modem.modulate(SchemeConfig("SCFDMA", params1), x).samples
    worst = np.max(np.abs(a - b))
    c = modem.modulate(SchemeConfig("OSTF", params1), x[:, None]).samples
    d = modem.modulate(SchemeConfig("OFDM", params1), x).samples
    worst = max(worst, np.max(np.abs(c - d)))
    params = make_frame(8, 4)
    g = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    e = modem.modulate(SchemeConfig("OTFS", params), g).samples
    f = modem.modulate(SchemeConfig("OSTF", params), transforms.isfft(g)).samples
    worst = max(worst, np.max(np.abs(e - f)))
    return CheckResult("scheme_reductions", worst < _TOL, f"max deviation {worst:.3e}")


def _check_channel_oracle() -> CheckResult:
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for M, N in [(8, 4), (4, 8)]:
        params = make_frame(M, N)
        ch = channel.random_channel(3, N // 2 + 1, rng)  # Doppler bins -N/2 .. +N/2
        A = oracles.effective_matrix(SchemeConfig("OTFS", params), ch, mode="cyclic")
        T = channel.dd_domain_operator(ch, params)
        worst = max(worst, np.max(np.abs(A - T)))
    return CheckResult("channel_dd_oracle", worst < 1e-9, f"max deviation {worst:.3e}")


def _check_tf_views() -> CheckResult:
    rng = np.random.default_rng(_SEED + 3)
    params = make_frame(16, 8)
    ch = channel.random_channel(4, 3, rng)
    d = np.max(np.abs(channel.tf_channel(ch, params) - oracles.tf_channel_factored(ch, params)))
    return CheckResult("tf_channel_factored", d < _TOL, f"max deviation {d:.3e}")


def _check_mui_nulls() -> CheckResult:
    rng = np.random.default_rng(_SEED + 4)
    params = make_frame(16, 8)
    worst = 0.0
    for map_fn in (localized_map, interleaved_map):
        fmaps = [map_fn(params.M, 4, u) for u in range(4)]
        tmaps = [map_fn(params.N, 2, u) for u in range(4)]
        blocks = [rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)) for _ in range(4)]
        X = sum(
            multiuser.uplink_map_dd(b, f, t) for b, f, t in zip(blocks, fmaps, tmaps)
        )
        for u in range(4):
            est = multiuser.despread_user(X, freq_map=fmaps[u], time_map=tmaps[u], domain="dd")
            worst = max(worst, np.max(np.abs(est - blocks[u])))
    return CheckResult("multiuser_interference_null", worst < _TOL, f"max deviation {worst:.3e}")


def _check_kron() -> CheckResult:
    rng = np.random.default_rng(_SEED + 5)
    fmap = interleaved_map(8, 4, 1)
    tmap = localized_map(4, 2, 0)
    pair = multiuser.dft_spreading_pair(fmap, tmap)
    x = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    lhs = multiuser.kron_spreader(pair) @ multiuser.vec_dd(x)
    rhs = multiuser.vec_tf(multiuser.tf_spread(x, pair))
    d = np.max(np.abs(lhs - rhs))
    return CheckResult("kron_vec_identity", d < _TOL, f"max deviation {d:.3e}")


def _check_trial_stream() -> CheckResult:
    # BPSK on 3 x 3: an odd bit count, after a random channel's draw
    sc = runner.scenario_from_dict({
        "frame": {"M": 3, "N": 3, "cp_len": 1}, "scheme": "OTFS", "constellation": "BPSK",
        "channel": {"random": {"L_max": 2, "V_max": 2}}, "snr_db_list": [3.0],
        "trials": 4, "seed": _SEED,
    })
    link = runner._Link(sc)
    frames = [(0, t) for t in range(sc.trials)]
    _, _, bits, (re, im) = link.draw(frames, np.full(sc.trials, 0.5))
    differ = 0
    for t in range(sc.trials):
        rng = runner.trial_rng(sc.seed, 0, t)
        runner.scenario_channel(sc, rng)
        n = link.n_samples
        want = rng.integers(0, 2, link.n_bits), rng.normal(0, 0.5, n), rng.normal(0, 0.5, n)
        differ += sum(not np.array_equal(a, b) for a, b in zip((bits[t], re[t], im[t]), want))
    return CheckResult("trial_stream", differ == 0, f"{differ} of {3 * sc.trials} draws differ")


def _check_band_channel() -> CheckResult:
    # a chunk of a seeded link per mode, banded and one-tap, on a random channel and on a
    # fixed one with a delay gap: Doppler -N/2..N/2 and the widest delay each mode allows
    differ = 0
    for mode, cp_len, L in (("per_slot_cp", 2, 3), ("cyclic", 0, 5)):
        fixed = [{"delay_bin": l, "doppler_bin": k, "re": 0.6, "im": 0.2 * l}
                 for l, k in ((0, 0), (L - 1, 2), (L - 1, -2))]
        for equalizer, chan in [(e, c) for e in ("mmse_dd", "one_tap_tf")
                                for c in ({"random": {"L_max": L, "V_max": 3}}, {"taps": fixed})]:
            sc = runner.scenario_from_dict({
                "frame": {"M": 5, "N": 4, "cp_len": cp_len}, "scheme": "OTFS", "channel": chan,
                "constellation": "QPSK", "channel_mode": mode, "equalizer": equalizer,
                "snr_db_list": [3.0], "trials": 3, "seed": _SEED,
            })
            link = runner._Link(sc)
            frames = [(0, t) for t in range(sc.trials)]
            ch, gains, bits, noise = link.draw(frames, np.full(sc.trials, 0.5))
            sig = link.transmit(bits)
            got = link.receiver(ch, gains, 0.5)[2](sig, noise)
            want = channel.apply_channel(sig, ch, link.params, mode=mode, gains=gains, noise=noise)
            differ += int(np.sum(got != want.body))
    return CheckResult("band_channel", differ == 0, f"{differ} received body samples differ")


def _check_band_lmmse() -> CheckResult:
    # a chunk of a seeded random banded link per mode, solved by cyclic
    # reduction (4 and 8 block rows) and by the dense Gram stack
    worst = 0.0
    for mode, cp_len, L in (("per_slot_cp", 2, 3), ("cyclic", 0, 5)):
        sc = runner.scenario_from_dict({
            "frame": {"M": 8, "N": 4, "cp_len": cp_len}, "scheme": "OTFS", "constellation": "QPSK",
            "channel": {"random": {"L_max": L, "V_max": 2}}, "channel_mode": mode,
            "equalizer": "mmse_dd", "snr_db_list": [3.0], "trials": 3, "seed": _SEED,
        })
        link, noise_var = runner._Link(sc), np.full(sc.trials, 0.5)
        frames = [(0, t) for t in range(sc.trials)]
        ch, gains, bits, noise = link.draw(frames, noise_var)
        band = channel.delay_band(ch, link.params, gains)
        y = channel.band_channel(channel.band_rows(band), link.transmit(bits), mode, noise)
        band, y = band.reshape(sc.trials, L, link.blocks, -1), y.reshape(sc.trials, link.blocks, -1)
        got = equalizer._band_adjoint(band, equalizer._reduce_solve(band, y, noise_var))
        want = equalizer._band_adjoint(band, equalizer._dense_solve(band, y, noise_var))
        worst = max(worst, np.max(np.abs(got - want)))
    return CheckResult("band_lmmse", worst < 1e-12, f"max deviation {worst:.3e}")


_CHECKS = (
    _check_unitarity,
    _check_reductions,
    _check_channel_oracle,
    _check_tf_views,
    _check_mui_nulls,
    _check_kron,
    _check_trial_stream,
    _check_band_channel,
    _check_band_lmmse,
)


def run_selftest() -> list:
    """Run all invariant checks; never raises on check failure."""
    results = []
    for fn in _CHECKS:
        try:
            results.append(fn())
        except Exception as e:  # a crash is a failure, not an abort
            name = fn.__name__.lstrip("_").replace("check_", "", 1)
            results.append(CheckResult(name, False, f"raised {type(e).__name__}: {e}"))
    return results
