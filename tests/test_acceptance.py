"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` for the printed
measurement details).  Every criterion states its tolerance explicitly and
measures it with machinery independent of the code path under test.
"""

import math

import numpy as np

import otfsim as ot
from otfsim.frame import interleaved_map, localized_map
from otfsim.metrics import get_constellation, map_bits
from otfsim.modem import SchemeConfig, modulate
from otfsim.multiuser import (
    despread_user,
    dft_spreading_pair,
    kron_spreader,
    tf_spread,
    uplink_map_dd,
    uplink_map_tf,
    vec_dd,
    vec_tf,
    zf_precode,
)
from otfsim.runner import format_csv, run, scenario_from_dict
from otfsim.transforms import heisenberg, isfft, sfft, wigner


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def qfunc(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_criterion_01_transform_unitarity():
    """Lattice and slot transforms invert and preserve energy, < 1e-10."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for M in (1, 2, 4, 8, 16):
        for N in (1, 2, 4, 8):
            params = ot.make_frame(M, N)
            x = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
            X = isfft(x)
            worst = max(worst, np.abs(sfft(X) - x).max())
            worst = max(worst, abs(np.linalg.norm(X) - np.linalg.norm(x)))
            for cp in {0, min(2, M - 1)}:
                sig = heisenberg(X, params, cp_len=cp)
                worst = max(worst, np.abs(wigner(sig, params) - X).max())
    report("transform_unitarity", worst < 1e-10, f"worst deviation {worst:.3e} (tol 1e-10)")


def test_criterion_02_scheme_reductions():
    """Single-slot reductions and OTFS as OSTF after the ISFFT, 100 payloads, < 1e-12."""
    rng = np.random.default_rng(1002)
    M = 16
    p1 = ot.make_frame(M, 1)
    p84 = ot.make_frame(8, 4)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=M) + 1j * rng.normal(size=M)
        a = modulate(SchemeConfig("OTFS", p1), x[None, :]).samples
        b = modulate(SchemeConfig("SCFDMA", p1), x).samples
        worst = max(worst, np.abs(a - b).max())
        c = modulate(SchemeConfig("OSTF", p1), x[:, None]).samples
        d = modulate(SchemeConfig("OFDM", p1), x).samples
        worst = max(worst, np.abs(c - d).max())
        g = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        e = modulate(SchemeConfig("OTFS", p84), g).samples
        f = modulate(SchemeConfig("OSTF", p84), isfft(g)).samples
        worst = max(worst, np.abs(e - f).max())
    report("scheme_reductions", worst < 1e-12, f"worst deviation {worst:.3e} (tol 1e-12)")


def test_criterion_03_dd_operator_oracle():
    """Analytic delay-Doppler operator equals the composed chain, 50 channels, < 1e-9.

    Every channel draws taps on all Doppler bins -N/2 .. +N/2.
    """
    rng = np.random.default_rng(1003)
    sizes = [(4, 4), (8, 4), (4, 8), (8, 8), (16, 8), (8, 16), (16, 16), (2, 8), (8, 2), (16, 4)]
    worst = 0.0
    count = 0
    for M, N in sizes:
        params = ot.make_frame(M, N)
        cfg = SchemeConfig("OTFS", params)
        L = min(3, M)
        V = N // 2 + 1  # Doppler bins -N/2 .. +N/2
        for _ in range(5):
            ch = ot.random_channel(L, V, rng)
            A = ot.effective_matrix(cfg, ch, mode="cyclic")
            T = ot.dd_domain_operator(ch, params)
            worst = max(worst, np.abs(A - T).max())
            count += 1
    report(
        "dd_operator_oracle",
        worst < 1e-9 and count == 50,
        f"{count} channels, worst deviation {worst:.3e} (tol 1e-9)",
    )


def test_criterion_04_tf_response_factored():
    """Factored grid response matches the direct sum; frozen one-tap gains."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for M, N in [(8, 4), (16, 8), (4, 4), (16, 16)]:
        params = ot.make_frame(M, N)
        ch = ot.random_channel(min(4, M), min(3, N // 2 + 1), rng)
        worst = max(
            worst, np.abs(ot.tf_channel(ch, params) - ot.tf_channel_factored(ch, params)).max()
        )
    delay_only = ot.tf_channel(
        ot.DDChannelSpec(taps=((1, 0, 1.0),)), ot.make_frame(4, 2)
    )
    expect_delay = np.array([1, -1j, -1, 1j])
    frozen = max(np.abs(delay_only[:, n] - expect_delay).max() for n in range(2))
    doppler_only = ot.tf_channel(
        ot.DDChannelSpec(taps=((0, 1, 1.0),)), ot.make_frame(1, 4)
    )
    expect_doppler = np.array([1, 1j, -1, -1j])
    frozen = max(frozen, np.abs(doppler_only[0, :] - expect_doppler).max())
    ok = worst < 1e-10 and frozen < 1e-12
    report(
        "tf_response_factored",
        ok,
        f"factored deviation {worst:.3e} (tol 1e-10), frozen one-tap gains off by {frozen:.3e}",
    )


def test_criterion_05_coupling_reconstruction():
    """Coupling tensor reproduces the chain on 10 random channels, < 1e-10."""
    rng = np.random.default_rng(1005)
    params = ot.make_frame(4, 4)
    worst = 0.0
    for i in range(10):
        ch = ot.random_channel(3, 2, rng)
        for mode, cp in (("cyclic", 0), ("per_slot_cp", 3)):
            H = ot.coupling_tensor(ch, params, cp_len=cp, mode=mode)
            X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            direct = wigner(
                ot.apply_channel(heisenberg(X, params, cp_len=cp), ch, params, mode=mode),
                params,
            )
            recon = np.einsum("mnpq,pq->mn", H, X)
            worst = max(worst, np.abs(recon - direct).max())
    report(
        "coupling_reconstruction",
        worst < 1e-10,
        f"10 channels x 2 modes, worst deviation {worst:.3e} (tol 1e-10)",
    )


def test_criterion_06_multiuser_algebra():
    """Uplink map identities, exact placement, zero interference, clean ZF."""
    rng = np.random.default_rng(1006)
    M, N = 16, 8
    M_d, N_D = 4, 4  # K_d = 4, K_D = 2
    worst_alg = 0.0
    placement_ok = True
    worst_mui = 0.0
    for map_fn in (localized_map, interleaved_map):
        fmaps = [map_fn(M, M_d, u) for u in range(4)]
        tmaps = [map_fn(N, N_D, u) for u in range(2)]
        users = [(f, t) for f in fmaps for t in tmaps]
        blocks = [
            rng.normal(size=(N_D, M_d)) + 1j * rng.normal(size=(N_D, M_d))
            for _ in users
        ]
        for x, (f, t) in zip(blocks, users):
            a = uplink_map_dd(x, f, t)
            pair = dft_spreading_pair(f, t)
            b = tf_spread(x, pair)
            c = kron_spreader(pair) @ vec_dd(x)
            worst_alg = max(worst_alg, np.abs(a - b).max())
            worst_alg = max(worst_alg, np.abs(c - vec_tf(b)).max())
            grid = uplink_map_tf(x, f, t)
            mask = np.zeros((M, N), dtype=bool)
            mask[np.ix_(list(f.selected), list(t.selected))] = True
            placement_ok &= bool(np.abs(grid[~mask]).max() == 0.0)
            placement_ok &= bool(np.abs(grid[mask]).max() > 0.0)
        Y = sum(uplink_map_dd(x, f, t) for x, (f, t) in zip(blocks, users))
        for x, (f, t) in zip(blocks, users):
            est = despread_user(Y, freq_map=f, time_map=t, domain="dd")
            worst_mui = max(worst_mui, np.abs(est - x).max())
    # explicit index formulas for both mapping families
    placement_ok &= localized_map(M, M_d, 2).selected == (8, 9, 10, 11)
    placement_ok &= interleaved_map(M, M_d, 2).selected == (2, 6, 10, 14)

    params = ot.make_frame(4, 4)
    ch = ot.DDChannelSpec(taps=((0, 0, 1.0), (1, 1, 0.25), (2, -1, 0.15j)))
    H = ot.effective_matrix(SchemeConfig("OTFS", params), ch, mode="cyclic")
    pre = zf_precode(H, user_partition=[range(0, 8), range(8, 16)], power_budget=2.0)
    G = H @ pre.P
    zf_resid = np.abs(G - pre.beta[0] * np.eye(16)).max()
    budget_err = abs(np.linalg.norm(pre.P, "fro") ** 2 - 2.0)

    ok = (
        worst_alg < 1e-12
        and placement_ok
        and worst_mui < 1e-12
        and zf_resid < 1e-9
        and budget_err < 1e-10
    )
    report(
        "multiuser_algebra",
        ok,
        f"route deviation {worst_alg:.3e} (tol 1e-12), interference {worst_mui:.3e} "
        f"(tol 1e-12), placement exact: {placement_ok}, ZF residual {zf_resid:.3e} "
        f"(tol 1e-9), budget error {budget_err:.3e}",
    )


def test_criterion_07_papr_bounds():
    """Single-carrier envelopes are exactly flat; N_D-slot uplink PAPR <= N_D."""
    rng = np.random.default_rng(1007)
    qpsk = get_constellation("QPSK")

    # SC-FDMA blocks: PAPR exactly 1
    p_sc = ot.make_frame(16, 1)
    cfg_sc = SchemeConfig("SCFDMA", p_sc)
    worst_sc = 0.0
    for _ in range(100):
        bits = rng.integers(0, 2, size=32)
        sig = modulate(cfg_sc, map_bits(bits, qpsk))
        worst_sc = max(worst_sc, abs(ot.papr(sig) - 1.0))

    # uplink-mapped single-slot user on the (16, 8) frame: PAPR exactly 1
    M, N = 16, 8
    params = ot.make_frame(M, N)
    fmap = localized_map(M, M, 0)
    worst_one = 0.0
    for slot in range(N):
        tmap = ot.MappingMatrix(N, (slot,))
        bits = rng.integers(0, 2, size=2 * M)
        x = map_bits(bits, qpsk).reshape(1, M)
        sig = heisenberg(uplink_map_tf(x, fmap, tmap), params)
        body = sig.body.reshape(N, M)[list(tmap.selected)].reshape(-1)
        worst_one = max(worst_one, abs(ot.papr_samples(body) - 1.0))

    # N_D active slots: PAPR over the active slots bounded by N_D
    bound_ok = True
    details = []
    for N_D in (2, 4):
        tmap = localized_map(N, N_D, 0)
        sel = list(tmap.selected)
        worst = 0.0
        for _ in range(10_000):
            bits = rng.integers(0, 2, size=2 * N_D * M)
            x = map_bits(bits, qpsk).reshape(N_D, M)
            sig = heisenberg(uplink_map_tf(x, fmap, tmap), params)
            body = sig.body.reshape(N, M)[sel].reshape(-1)
            worst = max(worst, ot.papr_samples(body))
        bound_ok &= worst <= N_D + 1e-9
        details.append(f"N_D={N_D}: worst {worst:.6f} <= {N_D}")

    ok = worst_sc < 1e-10 and worst_one < 1e-10 and bound_ok
    report(
        "papr_bounds",
        ok,
        f"single-carrier |papr-1| {worst_sc:.2e}, single-slot uplink {worst_one:.2e} "
        f"(tol 1e-10); " + "; ".join(details),
    )


def test_criterion_08_awgn_reference_curve():
    """Simulated BPSK matches the closed-form error rate within 3 stderr."""
    sc = scenario_from_dict({
        "frame": {"M": 50, "N": 1},
        "scheme": "OFDM",
        "constellation": "BPSK",
        "channel": {"taps": [{"delay_bin": 0, "doppler_bin": 0, "re": 1.0, "im": 0.0}]},
        "channel_mode": "cyclic",
        "equalizer": "one_tap_tf",
        "snr_db_list": [0.0, 4.0, 8.0],
        "trials": 2000,
        "seed": 80,
    })
    results = run(sc)
    lines = []
    ok = True
    for r in results:
        snr = 10.0 ** (r.snr_db / 10.0)
        p_th = qfunc(math.sqrt(2.0 * snr))
        n = r.total_bits
        stderr = math.sqrt(p_th * (1.0 - p_th) / n)
        dev = abs(r.ber - p_th)
        ok &= n == 100_000 and dev <= 3.0 * stderr
        lines.append(
            f"{r.snr_db:g} dB: ber {r.ber:.3e} vs theory {p_th:.3e} "
            f"({dev / stderr if stderr else 0.0:.2f} stderr)"
        )
    report("awgn_reference_curve", ok, "; ".join(lines))


def test_criterion_09_doubly_selective_ordering():
    """Full-spread modulation with joint MMSE beats per-cell equalization."""
    base = {
        "frame": {"M": 16, "N": 8, "cp_len": 4},
        "constellation": "QPSK",
        "channel": {"taps": [
            {"delay_bin": 0, "doppler_bin": 0, "re": 0.5, "im": 0.0},
            {"delay_bin": 1, "doppler_bin": 1, "re": 0.5, "im": 0.0},
            {"delay_bin": 2, "doppler_bin": -1, "re": 0.5, "im": 0.0},
            {"delay_bin": 3, "doppler_bin": 2, "re": 0.5, "im": 0.0},
        ]},
        "channel_mode": "per_slot_cp",
        "snr_db_list": [15.0],
        "trials": 782,  # 782 * 128 symbols > 1e5
        "seed": 90,
    }
    otfs = dict(base, scheme="OTFS", equalizer="mmse_dd")
    ostf = dict(base, scheme="OSTF", equalizer="one_tap_tf")
    r_otfs = run(scenario_from_dict(otfs))[0]
    r_ostf = run(scenario_from_dict(ostf))[0]
    ok = (
        r_otfs.total_symbols >= 100_000
        and r_ostf.total_symbols >= 100_000
        and r_otfs.ber < r_ostf.ber
    )
    report(
        "doubly_selective_ordering",
        ok,
        f"joint-MMSE full-spread ber {r_otfs.ber:.3e} < per-cell ber {r_ostf.ber:.3e} "
        f"over {r_otfs.total_symbols} symbols at 15 dB",
    )


def test_criterion_10_worker_determinism():
    """CSV output is byte-identical for 1, 2 and 8 worker processes."""
    sc = scenario_from_dict({
        "frame": {"M": 8, "N": 4},
        "scheme": "OTFS",
        "constellation": "QPSK",
        "channel": {"random": {"L_max": 2, "V_max": 2}},
        "channel_mode": "cyclic",
        "equalizer": "mmse_dd",
        "snr_db_list": [5.0, 15.0],
        "trials": 16,
        "seed": 100,
    })
    texts = {w: format_csv(run(sc, workers=w)) for w in (1, 2, 8)}
    ok = texts[1] == texts[2] == texts[8]
    report(
        "worker_determinism",
        ok,
        f"{len(texts[1].splitlines()) - 1} result rows, byte-identical across workers 1/2/8",
    )
