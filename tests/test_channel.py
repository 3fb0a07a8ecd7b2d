"""Channel application, analytic views and operator-level oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim import channel, oracles
from otfsim.channel import (
    EFFECTIVE_GUARD, band_blocks, band_rows, check_blocks, delay_band, draw_noise,
)
from otfsim.errors import ConfigError, GuardError
from otfsim.oracles import COUPLING_GUARD, chain_matrix
from test_workspace import traced


def impulse_probe(tx, rx, dim):
    """The one-impulse reference of :func:`chain_matrix`: each unit impulse
    goes through the stacked closures alone, as a stack of one."""
    return np.column_stack([np.reshape(rx(tx(e[None])), -1) for e in np.eye(dim, dtype=complex)])


def one_tap_response_oracle(taps, M, N):
    """Independent oracle: per-cell gain summed tap by tap with both phases."""
    H = np.zeros((M, N), dtype=complex)
    for m in range(M):
        for n in range(N):
            for l, k, g in taps:
                H[m, n] += (
                    g
                    * np.exp(-2j * np.pi * (m * l / M - n * k / N))
                    * np.exp(-2j * np.pi * l * k / (M * N))
                )
    return H


def per_tap_channel_oracle(sig, ch, params, mode, gains=None):
    """Independent oracle: r[s] = sum_taps g * x[s - l] * w^(k*(clock - l)), tap by tap.

    w = exp(2j*pi/(M*N)).  The delay wraps round the frame in ``cyclic``
    mode and fills with zeros in ``per_slot_cp`` mode, where the clock
    counts body samples and holds at the slot's first one inside its
    prefix.  ``gains`` (..., taps) gives each frame of a stack its own.
    """
    x = sig.samples
    q = np.arange(sig.slot_len)
    clock = (np.arange(params.N)[:, None] * params.M + np.maximum(0, q - sig.cp_len)).reshape(-1)
    r = np.zeros(x.shape, dtype=complex)
    for i, (l, k, g) in enumerate(ch.taps):
        if mode == "cyclic":
            delayed = np.roll(x, l, axis=-1)
        else:
            delayed = np.concatenate([np.zeros((*x.shape[:-1], l)), x[..., : x.shape[-1] - l]], -1)
        g = g if gains is None else gains[..., i, None]
        r += g * delayed * np.exp(2j * np.pi * k * (clock - l) / params.dof)
    return r


def lattice_window_oracle(delta_l, delta_k, M, N):
    """Independent oracle: the full double geometric sum of lattice phases."""
    acc = 0.0
    for m in range(M):
        for n in range(N):
            acc += np.exp(-2j * np.pi * (delta_k * n / N - delta_l * m / M))
    return acc


class TestChannelSpec:
    def test_spreads(self):
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0), (3, -2, 0.5j)))
        assert ch.L_max == 4 and ch.V_max == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ot.DDChannelSpec(taps=())
        with pytest.raises(ValueError):
            ot.DDChannelSpec(taps=((0, 0, 1.0), (0, 0, 0.5)))
        with pytest.raises(ValueError):
            ot.DDChannelSpec(taps=((-1, 0, 1.0),))

    @pytest.mark.parametrize("tap", [(1.9, 0, 1.0), (1, 0.5, 1.0), (2.0, 1, 1.0), (1, 1.0, 1.0)])
    def test_non_integer_bins_refused(self, tap):
        # int() would read (1.9, 0.5) as delay 1, Doppler 0
        with pytest.raises(ValueError, match="integers"):
            ot.DDChannelSpec(taps=(tap,))

    def test_numpy_integer_bins_accepted(self):
        ch = ot.DDChannelSpec(taps=((np.int64(2), np.int32(-1), 1.0), (np.uint8(0), 0, 0.5)))
        assert ch.taps == ((2, -1, 1.0), (0, 0, 0.5))
        assert all(type(v) is int for t in ch.taps for v in t[:2])

    def test_random_channel_power_exact(self):
        rng = np.random.default_rng(0)
        ch = ot.random_channel(4, 2, rng)
        assert ot.received_power(ch) == pytest.approx(1.0, abs=1e-12)

    def test_received_power_overflows_to_inf(self):
        # |gain|^2 past the float range is inf, for one tap or as a sum, never
        # an OverflowError; finite taps sum their squared parts
        one = ot.DDChannelSpec(((0, 0, 1e200 + 0j),))
        two = ot.DDChannelSpec(((0, 0, 1e154), (1, 0, 1e154j)))
        assert ot.received_power(one) == ot.received_power(two) == math.inf
        assert ot.received_power(ot.DDChannelSpec(((0, 0, 3 + 4j), (2, -1, 1j)))) == 26.0

    def test_random_channel_grid(self):
        rng = np.random.default_rng(1)
        ch = ot.random_channel(2, 1, rng)
        assert len(ch.taps) == 2  # delay {0,1} x doppler {0}
        assert {t.doppler_bin for t in ch.taps} == {0}
        single = ot.random_channel(1, 1, rng)
        assert len(single.taps) == 1
        assert (single.taps[0].delay_bin, single.taps[0].doppler_bin) == (0, 0)

    def test_random_channel_centered_dopplers(self):
        rng = np.random.default_rng(2)
        ch = ot.random_channel(2, 3, rng)
        assert sorted({t.doppler_bin for t in ch.taps}) == [-2, -1, 0, 1, 2]
        assert ch.V_max == 3


class TestApplyChannel:
    def setup_method(self):
        self.params = ot.make_frame(8, 4)
        rng = np.random.default_rng(10)
        X = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        self.sig = ot.heisenberg(X, self.params)

    def test_identity_tap(self):
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        out = ot.apply_channel(self.sig, ch, self.params, mode="cyclic")
        assert_allclose(out.samples, self.sig.samples, atol=1e-15)

    def test_pure_delay_is_circular_shift(self):
        ch = ot.DDChannelSpec(taps=((2, 0, 1.0),))
        out = ot.apply_channel(self.sig, ch, self.params, mode="cyclic")
        assert_allclose(out.samples, np.roll(self.sig.samples, 2), atol=1e-15)

    def test_pure_doppler_is_phase_ramp(self):
        ch = ot.DDChannelSpec(taps=((0, 1, 1.0),))
        out = ot.apply_channel(self.sig, ch, self.params, mode="cyclic")
        ramp = np.exp(2j * np.pi * np.arange(32) / 32)
        assert_allclose(out.samples, self.sig.samples * ramp, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        ch = ot.random_channel(3, 2, rng)
        X2 = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        sig2 = ot.heisenberg(X2, self.params)
        both = ot.TimeSignal(
            samples=self.sig.samples + 2j * sig2.samples,
            cp_len=0,
            sample_rate=self.sig.sample_rate,
            num_slots=4,
        )
        a = ot.apply_channel(both, ch, self.params, mode="cyclic").samples
        b = (
            ot.apply_channel(self.sig, ch, self.params, mode="cyclic").samples
            + 2j * ot.apply_channel(sig2, ch, self.params, mode="cyclic").samples
        )
        assert_allclose(a, b, atol=1e-13)

    def test_power_conservation_statistical(self):
        # E||r||^2 / E||s||^2 -> received power, within 2%
        rng = np.random.default_rng(12)
        ch = ot.random_channel(3, 2, rng)
        num, den = 0.0, 0.0
        for _ in range(400):
            X = (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))) / np.sqrt(2)
            sig = ot.heisenberg(X, self.params)
            r = ot.apply_channel(sig, ch, self.params, mode="cyclic")
            num += np.linalg.norm(r.samples) ** 2
            den += np.linalg.norm(sig.samples) ** 2
        assert num / den == pytest.approx(ot.received_power(ch), rel=0.02)

    def test_per_slot_requires_prefix_cover(self):
        ch = ot.DDChannelSpec(taps=((3, 0, 1.0),))
        X = np.ones((8, 4), dtype=complex)
        sig = ot.heisenberg(X, self.params, cp_len=2)
        with pytest.raises(ConfigError):
            ot.apply_channel(sig, ch, self.params, mode="per_slot_cp")

    def test_cyclic_rejects_prefixed_signal(self):
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        sig = ot.heisenberg(np.ones((8, 4), dtype=complex), self.params, cp_len=2)
        with pytest.raises(ConfigError):
            ot.apply_channel(sig, ch, self.params, mode="cyclic")

    def test_unknown_mode(self):
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        with pytest.raises(ConfigError):
            ot.apply_channel(self.sig, ch, self.params, mode="linear")

    def test_per_slot_delay_only_equals_per_slot_circular(self):
        # with the prefix covering the delay, each slot sees a clean
        # circular convolution of its own body
        params = ot.make_frame(8, 4)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        sig = ot.heisenberg(X, params, cp_len=3)
        ch = ot.DDChannelSpec(taps=((2, 0, 0.8), (0, 0, 0.6j)))
        out = ot.apply_channel(sig, ch, params, mode="per_slot_cp")
        body_in = sig.body.reshape(4, 8)
        body_out = out.body.reshape(4, 8)
        for s in range(4):
            ref = 0.6j * body_in[s] + 0.8 * np.roll(body_in[s], 2)
            assert_allclose(body_out[s], ref, atol=1e-13)

    def test_noise_requires_rng(self):
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        with pytest.raises(ValueError):
            ot.apply_channel(self.sig, ch, self.params, noise_var=0.1, mode="cyclic")

    @pytest.mark.parametrize("mode,M,N,cp", [
        ("per_slot_cp", 8, 4, 3), ("per_slot_cp", 7, 4, 6), ("per_slot_cp", 7, 3, 2),
        ("per_slot_cp", 7, 1, 2), ("cyclic", 8, 4, 0), ("cyclic", 7, 1, 0), ("cyclic", 5, 4, 0),
    ])
    def test_matches_per_tap_oracle(self, mode, M, N, cp):
        # the full stream, prefixes included, of one frame and of a stack
        # with a (T, taps) gain stack; the largest delay the mode allows
        # (cp_len, or M - 1 round the frame) and Doppler bins up to N/2
        params = ot.make_frame(M, N)
        rng = np.random.default_rng(14)
        ch = ot.random_channel(cp + 1 if cp else M, N // 2 + 1, rng)
        assert max(abs(t.doppler_bin) for t in ch.taps) == N // 2
        X = rng.normal(size=(3, M, N)) + 1j * rng.normal(size=(3, M, N))
        sig = ot.heisenberg(X, params, cp_len=cp)
        one = ot.heisenberg(X[0], params, cp_len=cp)
        gains = rng.normal(size=(3, len(ch.taps))) + 1j * rng.normal(size=(3, len(ch.taps)))
        got = ot.apply_channel(sig, ch, params, mode=mode, gains=gains).samples
        assert np.abs(got - per_tap_channel_oracle(sig, ch, params, mode, gains)).max() <= 1e-12
        got = ot.apply_channel(one, ch, params, mode=mode).samples
        assert np.abs(got - per_tap_channel_oracle(one, ch, params, mode)).max() <= 1e-12


class TestNoiseWhiteness:
    @pytest.mark.parametrize("scheme", ["OTFS", "OSTF"])
    def test_demod_noise_variance_preserved(self, scheme):
        # pure AWGN through the receive chain keeps per-entry variance
        params = ot.make_frame(16, 8)
        cfg = ot.SchemeConfig(scheme, params)
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        rng = np.random.default_rng(14)
        sigma2 = 0.7
        acc, count = 0.0, 0
        zero = ot.heisenberg(np.zeros((16, 8), dtype=complex), params)
        from otfsim.modem import demodulate

        while count < 100_000:
            r = ot.apply_channel(zero, ch, params, noise_var=sigma2, rng=rng, mode="cyclic")
            y = demodulate(cfg, r)
            acc += np.sum(np.abs(y) ** 2)
            count += y.size
        assert acc / count == pytest.approx(sigma2, rel=0.03)


class TestTFChannel:
    def test_delay_only_frozen(self):
        # single delay tap at l=1, M=4: gains (1, -j, -1, j), same every slot
        params = ot.make_frame(4, 2)
        ch = ot.DDChannelSpec(taps=((1, 0, 1.0),))
        H = ot.tf_channel(ch, params)
        for n in range(2):
            assert_allclose(H[:, n], [1, -1j, -1, 1j], atol=1e-14)

    def test_doppler_only_frozen(self):
        # single Doppler tap at k=1, N=4: gains (1, j, -1, -j) across slots
        params = ot.make_frame(1, 4)
        ch = ot.DDChannelSpec(taps=((0, 1, 1.0),))
        H = ot.tf_channel(ch, params)
        assert_allclose(H[0, :], [1, 1j, -1, -1j], atol=1e-14)

    def test_flat_tap(self):
        params = ot.make_frame(8, 4)
        ch = ot.DDChannelSpec(taps=((0, 0, 0.3 - 0.4j),))
        assert_allclose(ot.tf_channel(ch, params), np.full((8, 4), 0.3 - 0.4j), atol=1e-14)

    def test_matches_per_tap_oracle(self):
        params = ot.make_frame(8, 4)
        rng = np.random.default_rng(15)
        ch = ot.random_channel(3, 2, rng)
        assert_allclose(
            ot.tf_channel(ch, params),
            one_tap_response_oracle(ch.taps, 8, 4),
            atol=1e-12,
        )

    def test_factored_equals_direct(self):
        rng = np.random.default_rng(16)
        for M, N in [(8, 4), (16, 8), (4, 4)]:
            params = ot.make_frame(M, N)
            ch = ot.random_channel(min(3, M), max(1, N // 4), rng)
            assert (
                np.abs(ot.tf_channel(ch, params) - ot.tf_channel_factored(ch, params)).max()
                < 1e-10
            )

    def test_factored_rank_guard(self):
        params = ot.make_frame(4, 2)
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0), (1, 0, 0.1), (2, 0, 0.1), (3, 0, 0.1), (0, 1, 0.1)))
        assert ch.L_max == 4 and ch.V_max == 2
        ot.tf_channel_factored(ch, params)  # boundary case M == L_max, N == V_max
        with pytest.raises(ValueError):
            ot.tf_channel_factored(ch, ot.make_frame(2, 2))

    def test_factored_nyquist_aliasing_merges(self):
        # +1 and -1 Doppler land on the same grid row at N=2; their slot
        # phase ramps coincide there, so the merged placement must still
        # reproduce the direct per-tap sum
        params = ot.make_frame(4, 2)
        ch = ot.DDChannelSpec(taps=((0, 1, 0.8), (1, -1, 0.5j)))
        diff = np.abs(ot.tf_channel(ch, params) - ot.tf_channel_factored(ch, params))
        assert diff.max() < 1e-12


class TestWindowedDDChannel:
    def test_frozen_unit_tap(self):
        # tap (l=1, k=1) on a 4x4 frame: 16 * exp(-j*pi/8) at cell [1,1]
        params = ot.make_frame(4, 4)
        ch = ot.DDChannelSpec(taps=((1, 1, 1.0),))
        hw = ot.windowed_dd_channel(ch, params)
        expect = np.zeros((4, 4), dtype=complex)
        expect[1, 1] = 16 * np.exp(-2j * np.pi / 16)
        assert_allclose(hw, expect, atol=1e-12)

    def test_window_oracle_collapse(self):
        # the full window double-sum is M*N on the lattice, 0 off it,
        # so the windowed response is the window-weighted tap sum
        M, N = 4, 4
        params = ot.make_frame(M, N)
        rng = np.random.default_rng(17)
        ch = ot.random_channel(3, 2, rng)
        hw = ot.windowed_dd_channel(ch, params)
        for l_out in range(M):
            for k_out in range(N):
                acc = 0.0
                for l, k, g in ch.taps:
                    w = lattice_window_oracle(l_out - l, k_out - k, M, N)
                    # cross phase evaluated at the tap's signed placement
                    acc += g * w * np.exp(-2j * np.pi * l * k / (M * N))
                assert hw[k_out, l_out] == pytest.approx(acc, abs=1e-9)

    def test_negative_doppler_row(self):
        params = ot.make_frame(4, 4)
        ch = ot.DDChannelSpec(taps=((1, -1, 1.0),))
        hw = ot.windowed_dd_channel(ch, params)
        assert hw[3, 1] == pytest.approx(16 * np.exp(2j * np.pi / 16))
        assert np.count_nonzero(hw) == 1


class TestEffectiveMatrix:
    def test_identity_channel_is_identity(self):
        params = ot.make_frame(8, 4)
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        A = ot.effective_matrix(ot.SchemeConfig("OTFS", params), ch, mode="cyclic")
        assert_allclose(A, np.eye(32), atol=1e-12)

    def test_matches_analytic_operator(self):
        # Doppler bins reach -N/2 and +N/2: a random draw over every bin,
        # and one tap at each edge bin alone
        rng = np.random.default_rng(18)
        for M, N in [(4, 4), (8, 4), (4, 8), (5, 2), (4, 1)]:
            params = ot.make_frame(M, N)
            chans = [ot.random_channel(3, N // 2 + 1, rng)]
            chans += [ot.DDChannelSpec(taps=((1, k, 1.0),)) for k in (-(N // 2), N // 2)]
            for ch in chans:
                A = ot.effective_matrix(ot.SchemeConfig("OTFS", params), ch, mode="cyclic")
                T = ot.dd_domain_operator(ch, params)
                assert np.abs(A - T).max() < 1e-9, f"mismatch at ({M},{N}) for {ch.taps}"

    def test_analytic_operator_guard(self):
        params = ot.make_frame(128, 64)
        with pytest.raises(ot.GuardError):
            ot.dd_domain_operator(ot.DDChannelSpec(taps=((0, 0, 1.0),)), params)

    def test_acts_like_the_chain(self):
        # multiplying by the matrix reproduces modulate->channel->demodulate
        from otfsim.modem import demodulate, modulate

        params = ot.make_frame(8, 4)
        rng = np.random.default_rng(19)
        ch = ot.random_channel(2, 2, rng)
        cfg = ot.SchemeConfig("OTFS", params)
        A = ot.effective_matrix(cfg, ch, mode="cyclic")
        x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        direct = demodulate(
            cfg, ot.apply_channel(modulate(cfg, x), ch, params, mode="cyclic")
        )
        assert_allclose(A @ x.reshape(-1), direct.reshape(-1), atol=1e-12)

    def test_ofdm_delay_only_diagonal(self):
        # single-slot frame + delay-only channel -> diagonal with the
        # one-tap frequency gains
        params = ot.make_frame(8, 1)
        ch = ot.DDChannelSpec(taps=((0, 0, 0.7), (2, 0, 0.5j)))
        A = ot.effective_matrix(ot.SchemeConfig("OFDM", params), ch, mode="cyclic")
        H = ot.tf_channel(ch, params)[:, 0]
        assert_allclose(A, np.diag(H), atol=1e-12)

    def test_size_guard(self):
        params = ot.make_frame(128, 64)
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        assert params.dof > EFFECTIVE_GUARD
        with pytest.raises(GuardError):
            ot.effective_matrix(ot.SchemeConfig("OTFS", params), ch)

    def test_chain_matrix_guard_refuses_before_probing(self):
        def never(v):
            raise AssertionError("probe ran")

        with pytest.raises(GuardError):
            chain_matrix(never, never, EFFECTIVE_GUARD + 1)

    def test_chain_matrix_keeps_responses_that_view_the_probe(self):
        # an OFDM payload maps to its grid by a view of the probe stack; over
        # several blocks, so that a probe buffer reused across them shows
        dim, calls = 100, []

        def tx(V):
            calls.append(len(V))
            return V[..., None]

        assert_allclose(chain_matrix(tx, lambda X: X[..., 0], dim), np.eye(dim))
        assert calls == [40, 40, 20]  # blocks of EFFECTIVE_GUARD // dim rows

    def test_effective_matrix_probes_one_block_per_channel_call(self, monkeypatch):
        # 128 grid points go through in blocks of EFFECTIVE_GUARD // 128 = 32
        # impulses: one apply_channel call a block, each on a stack of 32
        calls = []
        real = oracles.apply_channel
        monkeypatch.setattr(oracles, "apply_channel",
                            lambda sig, *a: calls.append(sig.samples.shape) or real(sig, *a))
        params = ot.make_frame(16, 8)
        ch = ot.random_channel(3, 2, np.random.default_rng(21))
        ot.effective_matrix(ot.SchemeConfig("OTFS", params, cp_len=2), ch, "per_slot_cp")
        assert calls == [(32, 8 * 18)] * 4

    def test_chain_matrix_peak_is_the_matrix_and_one_block(self):
        # 512 points in blocks of 8 impulses: the matrix, one block's
        # responses and the chain's work on one block are all that is held
        params = ot.make_frame(32, 16)
        ch = ot.random_channel(3, 2, np.random.default_rng(22))
        cfg = ot.SchemeConfig("OTFS", params, cp_len=2)
        ot.effective_matrix(cfg, ch, "per_slot_cp")  # warm lazy imports
        A, peak = traced(lambda: ot.effective_matrix(cfg, ch, "per_slot_cp"))
        assert A.shape == (512, 512)
        assert peak < A.nbytes + (EFFECTIVE_GUARD // 512) * 512 * 16 + 2**20


class TestCouplingTensor:
    @pytest.mark.parametrize("mode", ["cyclic", "per_slot_cp"])
    def test_reconstruction_matches_chain(self, mode):
        params = ot.make_frame(4, 4)
        rng = np.random.default_rng(20)
        for _ in range(4):
            ch = ot.random_channel(3, 2, rng)
            cp = 0 if mode == "cyclic" else 3
            H = ot.coupling_tensor(ch, params, cp_len=cp, mode=mode)
            X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            sig = ot.heisenberg(X, params, cp_len=cp)
            direct = ot.wigner(ot.apply_channel(sig, ch, params, mode=mode), params)
            recon = np.einsum("mnpq,pq->mn", H, X)
            assert np.abs(recon - direct).max() < 1e-10

    def test_delay_only_diagonal_with_prefix(self):
        # prefix-protected delay-only channel: perfectly diagonal coupling
        # with the one-tap gains (full-block cyclic mode would smear the
        # delayed pulse across the slot boundary instead)
        params = ot.make_frame(4, 4)
        ch = ot.DDChannelSpec(taps=((1, 0, 1.0),))
        H = ot.coupling_tensor(ch, params, cp_len=1, mode="per_slot_cp")
        gains = np.exp(-2j * np.pi * np.arange(4) / 4)
        for m in range(4):
            for n in range(4):
                for mp in range(4):
                    for np_ in range(4):
                        expect = gains[m] if (m, n) == (mp, np_) else 0.0
                        assert H[m, n, mp, np_] == pytest.approx(expect, abs=1e-12)

    def test_size_guard(self):
        params = ot.make_frame(32, 32)
        assert params.dof > COUPLING_GUARD
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        with pytest.raises(GuardError):
            ot.coupling_tensor(ch, params)


def slot_stack_payload_operator(cfg, B):
    """Payload-grid operator of a slot stack: precode, B_n per slot, undo precoding,
    applied to the stack of every unit impulse at once."""
    from otfsim.modem import payload_from_tf, payload_shape, tf_from_payload

    dof = cfg.params.dof
    X = tf_from_payload(cfg, np.eye(dof, dtype=complex).reshape(dof, *payload_shape(cfg)))
    Y = np.einsum("nij,cjn->cin", B, X)
    return payload_from_tf(cfg, Y).reshape(dof, -1).T


def probed_slot_chain(ch, params, mode, cp):
    """The OSTF chain probed slot-major: impulse n*M + m is subcarrier m of slot n,
    and row n*M + m reads it back, so that the blocks on the diagonal are the
    slots' ``slot_operators``."""
    def tx(V):
        return ot.heisenberg(V.reshape(-1, params.N, params.M).swapaxes(-1, -2), params, cp_len=cp)

    def rx(sig):
        return ot.wigner(ot.apply_channel(sig, ch, params, mode=mode), params).swapaxes(-1, -2)

    return chain_matrix(tx, rx, params.dof)


class TestSlotOperators:
    @pytest.mark.parametrize("scheme,M,N", [
        ("OTFS", 16, 8),
        ("OTFS", 8, 4),
        ("OSTF", 16, 8),
        ("OSTF", 8, 2),
        ("OFDM", 16, 1),
        ("SCFDMA", 16, 1),
    ])
    def test_matches_probed_effective_matrix(self, scheme, M, N):
        # the closed-form stack against the chain itself, with the largest
        # delay exactly at the prefix
        rng = np.random.default_rng(40)
        params = ot.make_frame(M, N)
        for cp, V in [(1, 1), (3, N // 2 + 1), (M // 2, 2 if N > 1 else 1)]:
            cfg = ot.SchemeConfig(scheme, params, cp_len=cp)
            ch = ot.random_channel(cp + 1, V, rng)
            assert ch.L_max - 1 == cp
            A = ot.effective_matrix(cfg, ch, mode="per_slot_cp")
            T = slot_stack_payload_operator(cfg, ot.slot_operators(ch, params))
            assert np.abs(A - T).max() < 1e-10, f"cp={cp}"

    def test_acts_per_slot_on_the_tf_grid(self):
        from otfsim.transforms import heisenberg, wigner

        params = ot.make_frame(8, 4)
        rng = np.random.default_rng(41)
        ch = ot.random_channel(3, 3, rng)
        X = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        sig = ot.apply_channel(heisenberg(X, params, cp_len=2), ch, params)
        B = ot.slot_operators(ch, params)
        assert B.shape == (4, 8, 8)
        for n in range(4):
            assert_allclose(B[n] @ X[:, n], wigner(sig, params)[:, n], atol=1e-12)

    def test_delay_free_channel_is_diagonal(self):
        # Doppler-free, delay-free taps: every slot is the scalar tap sum
        params = ot.make_frame(8, 4)
        ch = ot.DDChannelSpec(taps=((0, 0, 0.6 - 0.2j),))
        B = ot.slot_operators(ch, params)
        assert_allclose(B, np.broadcast_to((0.6 - 0.2j) * np.eye(8), B.shape), atol=1e-14)

    def test_rejects_taps_outside_the_grid(self):
        with pytest.raises(ValueError):
            ot.slot_operators(ot.DDChannelSpec(taps=((0, 3, 1.0),)), ot.make_frame(8, 4))

    @pytest.mark.parametrize("M,N", [(8, 4), (7, 4), (5, 1), (6, 3), (4, 8)])
    def test_cyclic_matches_probed_chain(self, M, N):
        # delays wrap round the whole block; Doppler bins reach -N/2 and +N/2
        params = ot.make_frame(M, N)
        ch = ot.random_channel(3, N // 2 + 1, np.random.default_rng(42))
        probed = probed_slot_chain(ch, params, "cyclic", 0)
        T = ot.slot_operators(ch, params, "cyclic")
        assert T.shape == (1, M * N, M * N)
        assert np.abs(T[0] - probed).max() < 1e-10

    @pytest.mark.parametrize("mode,M,N,L", [
        ("per_slot_cp", 128, 64, 3), ("per_slot_cp", 512, 1, 9), ("cyclic", 32, 32, 3),
    ])
    def test_peak_memory_is_twice_the_output(self, mode, M, N, L):
        # the blocks and one transform of them, whatever the tap count
        params = ot.make_frame(M, N)
        ch = ot.random_channel(L, min(2, N // 2 + 1), np.random.default_rng(46))
        B, peak = traced(lambda: ot.slot_operators(ch, params, mode))
        assert peak <= 2 * B.nbytes + 2**20

    def test_guard_counts_the_blocks_built(self):
        # N * M**2 entries in per_slot_cp mode and (M*N)**2 in cyclic mode,
        # whatever the taps: 512 x 64 slot blocks and the 64 x 64 cyclic
        # block sit at the guard's 2**24 entries and pass
        check_blocks(ot.make_frame(512, 64), "per_slot_cp")
        check_blocks(ot.make_frame(64, 64), "cyclic")
        for M, N, mode in [(512, 128, "per_slot_cp"), (65536, 16, "per_slot_cp"),
                           (128, 64, "cyclic"), (512, 64, "cyclic")]:
            with pytest.raises(GuardError):
                check_blocks(ot.make_frame(M, N), mode)

    def test_cyclic_guard_and_unknown_mode(self):
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        with pytest.raises(GuardError):
            ot.slot_operators(ch, ot.make_frame(128, 64), "cyclic")
        with pytest.raises(ConfigError):
            ot.slot_operators(ch, ot.make_frame(8, 4), "linear")


def probed_time_channel(ch, params, mode, cp):
    """The channel on the M*N body samples, probed through ``apply_channel``.

    Each slot of the probe takes the last ``cp`` of its samples as prefix,
    and the receiver strips them.
    """
    def tx(V):
        slots = V.reshape(-1, params.N, params.M)
        samples = np.concatenate([slots[..., params.M - cp:], slots], axis=-1)
        return ot.TimeSignal(samples.reshape(len(V), -1), cp, params.bandwidth, params.N)

    return chain_matrix(tx, lambda sig: ot.apply_channel(sig, ch, params, mode=mode).body, params.dof)


class TestDelayBand:
    @pytest.mark.parametrize("M,N,cp", [(8, 4, 3), (7, 4, 2), (9, 1, 2), (5, 6, 4), (16, 8, 2)])
    def test_per_slot_blocks_are_the_probed_channel(self, M, N, cp):
        # the largest delay at the prefix, Doppler bins -N/2 to +N/2: the
        # channel acts slot by slot on the body samples
        params = ot.make_frame(M, N)
        ch = ot.random_channel(cp + 1, N // 2 + 1, np.random.default_rng(43))
        band = delay_band(ch, params)
        assert band.shape == (cp + 1, N, M)
        A = band_blocks(band)
        assert A.shape == (N, M, M)
        probed = probed_time_channel(ch, params, "per_slot_cp", cp)
        want = np.zeros_like(probed)
        for n in range(N):
            want[n * M:(n + 1) * M, n * M:(n + 1) * M] = A[n]
        assert np.abs(probed - want).max() < 1e-12

    @pytest.mark.parametrize("M,N,L", [(8, 4, 3), (7, 4, 7), (5, 1, 3), (6, 3, 2), (4, 8, 4)])
    def test_cyclic_block_is_the_probed_channel(self, M, N, L):
        params = ot.make_frame(M, N)
        ch = ot.random_channel(L, N // 2 + 1, np.random.default_rng(44))
        A = band_blocks(delay_band(ch, params).reshape(L, 1, M * N))
        probed = probed_time_channel(ch, params, "cyclic", 0)
        assert np.abs(A[0] - probed).max() < 1e-12

    def test_gain_stack_is_one_band_per_frame(self):
        params = ot.make_frame(8, 4)
        rng = np.random.default_rng(45)
        ch = ot.random_channel(3, 3, rng)
        gains = rng.normal(size=(2, 3, len(ch.taps))) + 1j * rng.normal(size=(2, 3, len(ch.taps)))
        band = delay_band(ch, params, gains)
        assert band.shape == (2, 3, 3, 4, 8)
        # the time-frequency response and the received streams of a stack
        # equal the one-frame calls bit for bit
        H = ot.tf_channel(ch, params, gains)
        assert H.shape == (2, 3, 8, 4)
        X = rng.normal(size=(2, 3, 8, 4)) + 1j * rng.normal(size=(2, 3, 8, 4))
        sig = ot.heisenberg(X, params, cp_len=2)
        rx = ot.apply_channel(sig, ch, params, gains=gains).samples
        for idx in np.ndindex(2, 3):
            own = ot.DDChannelSpec(taps=tuple(
                (l, k, g) for (l, k, _), g in zip(ch.taps, gains[idx])
            ))
            assert_allclose(band[idx], delay_band(own, params), atol=1e-14)
            assert np.array_equal(H[idx], ot.tf_channel(own, params))
            one = ot.heisenberg(X[idx], params, cp_len=2)
            assert np.array_equal(rx[idx], ot.apply_channel(one, own, params).samples)
        with pytest.raises(ValueError, match="taps"):
            delay_band(ch, params, gains[..., 1:])

    @staticmethod
    def widest_case():
        """A 7 x 4 frame, a channel on every delay to M - 1 and Doppler -N/2..N/2,
        and a (2, 3, taps) gain stack."""
        params = ot.make_frame(7, 4)
        rng = np.random.default_rng(46)
        ch = ot.random_channel(7, 3, rng)
        stack = rng.normal(size=(2, 3, len(ch.taps))) + 1j * rng.normal(size=(2, 3, len(ch.taps)))
        return params, ch, stack

    def test_band_is_the_direct_definition(self):
        # D[l, n, p] = sum over taps at delay l of g * w^(k*(n*M + p - l)), tap by tap
        params, ch, stack = self.widest_case()
        s = np.arange(params.dof)
        for gains in (None, stack):
            g = np.array([t.gain for t in ch.taps]) if gains is None else gains
            want = np.zeros((*g.shape[:-1], ch.L_max, params.dof), dtype=complex)
            for i, (l, k, _) in enumerate(ch.taps):
                want[..., l, :] += g[..., i, None] * np.exp(2j * np.pi * k * (s - l) / params.dof)
            got = delay_band(ch, params, gains)
            assert np.abs(got - want.reshape(got.shape)).max() <= 1e-12

    def test_delay_rows_are_the_band_rows(self):
        # bitwise the band's rows, in ascending delay, at the delays that carry taps only
        params, ch, stack = self.widest_case()
        keep = [t.delay_bin in (1, 4, 6) for t in ch.taps]
        gapped = ot.DDChannelSpec(tuple(t for t, k in zip(ch.taps, keep) if k))
        for c, drawn in ((ch, stack), (gapped, stack[..., keep])):
            for gains in (None, drawn):
                band = delay_band(c, params, gains)
                rows = list(channel.delay_rows(c, params, gains))
                assert [d for d, _ in rows] == sorted({t.delay_bin for t in c.taps})
                for d, row in rows:
                    assert np.array_equal(row, band[..., d, :, :])

    def test_tf_channel_is_the_delay_fft_of_the_band(self):
        params, ch, stack = self.widest_case()
        for gains in (None, stack):
            first = delay_band(ch, params, gains)[..., 0]  # D[l, n, 0]
            want = np.fft.fft(first, n=params.M, axis=-2)
            assert np.abs(ot.tf_channel(ch, params, gains) - want).max() <= 1e-12


class TestBandChannel:
    """The received body formed from the delay band, against ``apply_channel``'s."""

    def draw_case(self, rng, mode):
        """A frame, a channel at its widest delay and Doppler +-N/2, and a signal stack."""
        M, N = int(rng.integers(1, 10)), int(rng.choice([1, 2, 3, 4, 5, 8]))
        widest = M - 1 if mode == "cyclic" else int(rng.integers(0, M))
        cp = 0 if mode == "cyclic" else int(rng.integers(widest, M))
        k = N // 2
        spots = [(l, v) for l in range(widest + 1) for v in range(-k, k + 1)]
        at = [(widest, int(rng.choice([-k, k])))]
        at += [spots[i] for i in rng.permutation(len(spots))[:int(rng.integers(0, 5))]]
        at = list(dict.fromkeys(at))  # no tap position twice
        ch = ot.DDChannelSpec(tuple((l, v, rng.normal() + 1j * rng.normal()) for l, v in at))
        T = int(rng.integers(1, 5))
        lead = () if rng.random() < 0.2 else (T,)
        gains = None
        if lead and rng.random() < 0.7:  # a (T, taps) gain stack
            gains = rng.normal(size=(T, len(at))) + 1j * rng.normal(size=(T, len(at)))
        X = rng.normal(size=(*lead, M, N)) + 1j * rng.normal(size=(*lead, M, N))
        return ot.make_frame(M, N), ch, gains, ot.heisenberg(X, ot.make_frame(M, N), cp_len=cp)

    def test_seeded_draws_equal_apply_channel_bitwise(self):
        rng = np.random.default_rng(2026)
        seen = set()
        for case in range(240):
            mode = ("per_slot_cp", "cyclic")[case % 2]
            params, ch, gains, sig = self.draw_case(rng, mode)
            noise = draw_noise(rng, 0.3, sig.samples.shape) if case % 3 else None
            want = ot.apply_channel(sig, ch, params, mode=mode, gains=gains, noise=noise).body
            # the rows of the whole band, and those of the delays that carry taps alone
            for rows in (band_rows(delay_band(ch, params, gains)),
                         channel.delay_rows(ch, params, gains)):
                got = channel.band_channel(rows, sig, mode, noise)
                assert got.shape == want.shape and np.array_equal(got, want), case
            M, N = params.M, params.N
            seen |= {(mode, gains is None, sig.samples.ndim > 1, noise is None),
                     "odd M" * (M % 2), "N = 1" * (N == 1), "prefix full" * (ch.L_max - 1 == sig.cp_len > 0),
                     "+N/2" * any(2 * t.doppler_bin == N > 1 for t in ch.taps),
                     "-N/2" * any(-2 * t.doppler_bin == N > 1 for t in ch.taps)}
        flags = {"odd M", "N = 1", "prefix full", "+N/2", "-N/2"}
        assert flags <= seen
        combos = {(m, fixed, stacked, quiet) for m in ("per_slot_cp", "cyclic")
                  for fixed, stacked in ((True, False), (True, True), (False, True))
                  for quiet in (True, False)}
        assert combos <= seen

    def test_short_prefix_refused(self):
        params = ot.make_frame(6, 2)
        ch = ot.DDChannelSpec(((3, 0, 1.0),))
        short = ot.heisenberg(np.ones((6, 2)), params, cp_len=2)
        prefixed = ot.heisenberg(np.ones((6, 2)), params, cp_len=3)
        for rows in (lambda: band_rows(delay_band(ch, params)), lambda: channel.delay_rows(ch, params)):
            with pytest.raises(ConfigError, match="prefix"):
                channel.band_channel(rows(), short, "per_slot_cp")
            with pytest.raises(ConfigError, match="prefix"):
                channel.band_channel(rows(), prefixed, "cyclic")
