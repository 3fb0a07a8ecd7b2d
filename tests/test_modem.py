"""Scheme round trips and the structural reductions between them."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim.modem import demodulate, modulate, payload_from_tf, payload_shape, tf_from_payload
from otfsim.transforms import isfft, sfft


def random_payload(cfg, rng):
    shape = payload_shape(cfg)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestConfigValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            ot.SchemeConfig("CDMA", ot.make_frame(8, 4))

    @pytest.mark.parametrize("scheme", ["OFDM", "SCFDMA"])
    def test_single_slot_schemes_reject_multislot(self, scheme):
        with pytest.raises(ValueError):
            ot.SchemeConfig(scheme, ot.make_frame(8, 4))

    def test_cp_range(self):
        with pytest.raises(ValueError):
            ot.SchemeConfig("OTFS", ot.make_frame(8, 4), cp_len=8)
        with pytest.raises(ValueError):
            ot.SchemeConfig("OTFS", ot.make_frame(8, 4), cp_len=-1)

    def test_payload_shapes(self):
        params = ot.make_frame(8, 4)
        assert payload_shape(ot.SchemeConfig("OTFS", params)) == (4, 8)
        assert payload_shape(ot.SchemeConfig("OSTF", params)) == (8, 4)
        single = ot.make_frame(8, 1)
        assert payload_shape(ot.SchemeConfig("OFDM", single)) == (8,)
        assert payload_shape(ot.SchemeConfig("SCFDMA", single)) == (8,)

    def test_wrong_payload_shape_rejected(self):
        cfg = ot.SchemeConfig("OTFS", ot.make_frame(8, 4))
        with pytest.raises(ValueError):
            modulate(cfg, np.ones((8, 4)))  # transposed

    def test_wrong_tf_shape_rejected(self):
        cfg = ot.SchemeConfig("OSTF", ot.make_frame(8, 4))
        with pytest.raises(ValueError):
            payload_from_tf(cfg, np.ones((4, 8)))


class TestRoundTrips:
    @pytest.mark.parametrize("scheme,M,N", [
        ("OTFS", 8, 4),
        ("OTFS", 16, 8),
        ("OSTF", 8, 4),
        ("OFDM", 16, 1),
        ("SCFDMA", 16, 1),
    ])
    @pytest.mark.parametrize("cp", [0, 3])
    def test_demod_inverts_mod(self, scheme, M, N, cp):
        rng = np.random.default_rng(100)
        cfg = ot.SchemeConfig(scheme, ot.make_frame(M, N), cp_len=cp)
        x = random_payload(cfg, rng)
        assert_allclose(demodulate(cfg, modulate(cfg, x)), x, atol=1e-12)

    @pytest.mark.parametrize("scheme,M,N", [("OTFS", 8, 4), ("OSTF", 8, 4), ("SCFDMA", 8, 1)])
    def test_energy_preserved(self, scheme, M, N):
        rng = np.random.default_rng(102)
        cfg = ot.SchemeConfig(scheme, ot.make_frame(M, N))
        x = random_payload(cfg, rng)
        sig = modulate(cfg, x)
        assert np.linalg.norm(sig.body) == pytest.approx(np.linalg.norm(x), abs=1e-10)


class TestReductions:
    def test_otfs_single_slot_is_scfdma(self):
        # collapsing the frame to one slot turns the lattice transform
        # into the DFT precoder: identical samples, payload for payload
        rng = np.random.default_rng(103)
        params = ot.make_frame(16, 1)
        a = ot.SchemeConfig("OTFS", params)
        b = ot.SchemeConfig("SCFDMA", params)
        for _ in range(20):
            x = rng.normal(size=16) + 1j * rng.normal(size=16)
            sa = modulate(a, x[None, :])
            sb = modulate(b, x)
            assert np.abs(sa.samples - sb.samples).max() < 1e-13

    def test_ostf_single_slot_is_ofdm(self):
        rng = np.random.default_rng(104)
        params = ot.make_frame(16, 1)
        a = ot.SchemeConfig("OSTF", params)
        b = ot.SchemeConfig("OFDM", params)
        for _ in range(20):
            x = rng.normal(size=16) + 1j * rng.normal(size=16)
            sa = modulate(a, x[:, None])
            sb = modulate(b, x)
            assert np.abs(sa.samples - sb.samples).max() < 1e-13

    def test_otfs_is_ostf_after_the_isfft(self):
        # OTFS embeds OSTF: its modulator is OSTF's on the ISFFT of the
        # payload, and its demodulator OSTF's followed by the SFFT
        rng = np.random.default_rng(105)
        params = ot.make_frame(8, 4)
        a = ot.SchemeConfig("OTFS", params, cp_len=2)
        b = ot.SchemeConfig("OSTF", params, cp_len=2)
        for _ in range(20):
            x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
            sig = modulate(a, x)
            assert np.array_equal(sig.samples, modulate(b, isfft(x)).samples)
            assert np.array_equal(demodulate(a, sig), sfft(demodulate(b, sig)))

    def test_reduction_chain_with_cp(self):
        rng = np.random.default_rng(106)
        params = ot.make_frame(8, 1)
        a = ot.SchemeConfig("OTFS", params, cp_len=2)
        b = ot.SchemeConfig("SCFDMA", params, cp_len=2)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.abs(modulate(a, x[None, :]).samples - modulate(b, x).samples).max() < 1e-13


class TestSCFDMAEnvelope:
    def test_time_body_equals_payload(self):
        # DFT precoding then unitary slot synthesis cancels exactly: the
        # transmitted body IS the payload sequence
        rng = np.random.default_rng(107)
        cfg = ot.SchemeConfig("SCFDMA", ot.make_frame(32, 1))
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert_allclose(modulate(cfg, x).body, x, atol=1e-13)

    def test_constant_envelope_for_psk(self):
        cfg = ot.SchemeConfig("SCFDMA", ot.make_frame(32, 1))
        rng = np.random.default_rng(108)
        x = np.exp(2j * np.pi * rng.integers(0, 4, size=32) / 4)
        body = modulate(cfg, x).body
        assert_allclose(np.abs(body), 1.0, atol=1e-12)

    def test_ofdm_envelope_varies(self):
        # contrast: plain OFDM with the same PSK payload has a fluctuating
        # envelope (this is the PAPR story in miniature)
        cfg = ot.SchemeConfig("OFDM", ot.make_frame(32, 1))
        rng = np.random.default_rng(109)
        x = np.exp(2j * np.pi * rng.integers(0, 4, size=32) / 4)
        body = modulate(cfg, x).body
        assert np.abs(body).max() / np.abs(body).min() > 1.5


class TestThroughChannel:
    def test_ofdm_one_tap_recovery(self):
        # prefix-protected OFDM over a delay-only channel: dividing by the
        # per-subcarrier response recovers the payload
        params = ot.make_frame(16, 1)
        cfg = ot.SchemeConfig("OFDM", params, cp_len=4)
        ch = ot.DDChannelSpec(taps=((0, 0, 0.9), (2, 0, 0.3j), (4, 0, -0.2)))
        rng = np.random.default_rng(110)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        r = ot.apply_channel(modulate(cfg, x), ch, params, mode="per_slot_cp")
        y = demodulate(cfg, r)
        H = ot.tf_channel(ch, params)[:, 0]
        assert_allclose(y / H, x, atol=1e-10)

    def test_otfs_cyclic_identity_channel(self):
        params = ot.make_frame(8, 4)
        cfg = ot.SchemeConfig("OTFS", params)
        ch = ot.DDChannelSpec(taps=((0, 0, 1.0),))
        rng = np.random.default_rng(111)
        x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        r = ot.apply_channel(modulate(cfg, x), ch, params, mode="cyclic")
        assert_allclose(demodulate(cfg, r), x, atol=1e-12)


class TestPrecodeStageAlgebra:
    def test_tf_from_payload_unitary(self):
        # every scheme's precoding stage preserves inner products
        rng = np.random.default_rng(112)
        for scheme, M, N in [("OTFS", 8, 4), ("OSTF", 8, 4), ("OFDM", 8, 1), ("SCFDMA", 8, 1)]:
            cfg = ot.SchemeConfig(scheme, ot.make_frame(M, N))
            x = random_payload(cfg, rng)
            y = random_payload(cfg, rng)
            gx, gy = tf_from_payload(cfg, x), tf_from_payload(cfg, y)
            assert np.vdot(gx, gy) == pytest.approx(np.vdot(x, y), abs=1e-10)

    def test_stage_inverse(self):
        rng = np.random.default_rng(113)
        for scheme, M, N in [("OTFS", 8, 4), ("OSTF", 8, 4), ("OFDM", 8, 1), ("SCFDMA", 8, 1)]:
            cfg = ot.SchemeConfig(scheme, ot.make_frame(M, N))
            x = random_payload(cfg, rng)
            assert_allclose(payload_from_tf(cfg, tf_from_payload(cfg, x)), x, atol=1e-12)
