"""Lattice transforms against direct double-sum oracles and frozen values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim.transforms import dd_analysis, dd_synthesis

SIZES = [(1, 1), (2, 1), (1, 4), (4, 2), (8, 4), (4, 8)]


def isfft_double_sum(x_dd):
    """Independent oracle: brute-force evaluation of the forward transform."""
    N, M = x_dd.shape
    out = np.zeros((M, N), dtype=complex)
    for m in range(M):
        for n in range(N):
            acc = 0.0
            for nd in range(N):
                for md in range(M):
                    acc += x_dd[nd, md] * np.exp(2j * np.pi * (n * nd / N - m * md / M))
            out[m, n] = acc / np.sqrt(M * N)
    return out


def sfft_double_sum(y_tf):
    """Independent oracle: brute-force evaluation of the inverse transform."""
    M, N = y_tf.shape
    out = np.zeros((N, M), dtype=complex)
    for nd in range(N):
        for md in range(M):
            acc = 0.0
            for m in range(M):
                for n in range(N):
                    acc += y_tf[m, n] * np.exp(-2j * np.pi * (nd * n / N - md * m / M))
            out[nd, md] = acc / np.sqrt(M * N)
    return out


class TestDftMatrix:
    def test_unitary(self):
        for n in (1, 2, 5, 8):
            F = ot.dft_matrix(n)
            assert_allclose(F @ F.conj().T, np.eye(n), atol=1e-12)

    def test_entry_value(self):
        # F[1,1] at n=4 is exp(-j*pi/2)/2 = -j/2
        F = ot.dft_matrix(4)
        assert F[1, 1] == pytest.approx(-0.5j)


class TestISFFT:
    @pytest.mark.parametrize("M,N", SIZES)
    def test_matches_double_sum(self, M, N):
        rng = np.random.default_rng(M * 100 + N)
        x = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
        assert_allclose(ot.isfft(x), isfft_double_sum(x), atol=1e-12)

    @pytest.mark.parametrize("M,N", SIZES)
    def test_sfft_matches_double_sum(self, M, N):
        rng = np.random.default_rng(M * 100 + N + 1)
        y = rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))
        assert_allclose(ot.sfft(y), sfft_double_sum(y), atol=1e-12)

    def test_impulse_to_constant(self):
        x = np.zeros((4, 8))
        x[0, 0] = 1.0
        X = ot.isfft(x)
        assert_allclose(X, np.full((8, 4), 1 / np.sqrt(32)), atol=1e-14)

    def test_constant_to_impulse(self):
        Y = np.full((8, 4), 1 / np.sqrt(32))
        y = ot.sfft(Y)
        expect = np.zeros((4, 8))
        expect[0, 0] = 1.0
        assert_allclose(y, expect, atol=1e-14)

    @pytest.mark.parametrize("M,N", SIZES)
    def test_roundtrip_and_parseval(self, M, N):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(N, M)) + 1j * rng.normal(size=(N, M))
        X = ot.isfft(x)
        assert_allclose(ot.sfft(X), x, atol=1e-12)
        assert np.linalg.norm(X) == pytest.approx(np.linalg.norm(x), abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        b = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        alpha, beta = 1.7 - 0.3j, -0.4 + 2.1j
        assert_allclose(
            ot.isfft(alpha * a + beta * b),
            alpha * ot.isfft(a) + beta * ot.isfft(b),
            atol=1e-12,
        )

    def test_separable_matrix_form(self):
        # the transform factors exactly as F_M @ x.T @ F_N^H
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        F_M, F_N = ot.dft_matrix(8), ot.dft_matrix(4)
        assert_allclose(ot.isfft(x), F_M @ x.T @ F_N.conj().T, atol=1e-12)


class TestHeisenberg:
    def test_frozen_single_slot_dc(self):
        params = ot.make_frame(4, 1)
        X = np.zeros((4, 1), dtype=complex)
        X[0, 0] = 1.0
        sig = ot.heisenberg(X, params)
        assert_allclose(sig.samples, np.full(4, 0.5), atol=1e-14)

    def test_frozen_single_slot_tone(self):
        params = ot.make_frame(4, 1)
        X = np.zeros((4, 1), dtype=complex)
        X[1, 0] = 1.0
        sig = ot.heisenberg(X, params)
        assert_allclose(sig.samples, 0.5 * np.array([1, 1j, -1, -1j]), atol=1e-14)

    def test_prefix_structure(self):
        params = ot.make_frame(8, 3)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        sig = ot.heisenberg(X, params, cp_len=2)
        assert sig.samples.size == 3 * (8 + 2)
        slots = sig.samples.reshape(3, 10)
        assert_allclose(slots[:, :2], slots[:, -2:])  # prefix copies the tail

    @pytest.mark.parametrize("M,N", SIZES)
    @pytest.mark.parametrize("cp", [0, 1])
    def test_wigner_inverts(self, M, N, cp):
        if cp >= M:
            pytest.skip("prefix longer than slot body")
        params = ot.make_frame(M, N)
        rng = np.random.default_rng(17)
        X = rng.normal(size=(M, N)) + 1j * rng.normal(size=(M, N))
        sig = ot.heisenberg(X, params, cp_len=cp)
        assert_allclose(ot.wigner(sig, params), X, atol=1e-12)

    def test_body_energy_preserved(self):
        params = ot.make_frame(8, 4)
        rng = np.random.default_rng(19)
        X = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        sig = ot.heisenberg(X, params, cp_len=3)
        assert np.linalg.norm(sig.body) == pytest.approx(np.linalg.norm(X), abs=1e-12)

    def test_cp_out_of_range(self):
        params = ot.make_frame(4, 2)
        with pytest.raises(ValueError):
            ot.heisenberg(np.zeros((4, 2)), params, cp_len=4)


class TestDDSynthesis:
    # odd M, N = 1, and a prefix or none; a (2, 3) stack of grids
    @pytest.mark.parametrize("M,N,cp", [(8, 4, 0), (8, 4, 3), (7, 3, 2), (9, 1, 0), (5, 1, 4)])
    def test_is_heisenberg_of_the_isfft(self, M, N, cp):
        params = ot.make_frame(M, N)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 3, N, M)) + 1j * rng.normal(size=(2, 3, N, M))
        got, want = dd_synthesis(x, params, cp), ot.heisenberg(ot.isfft(x), params, cp)
        assert (got.cp_len, got.num_slots, got.sample_rate) == (cp, N, params.bandwidth)
        assert got.samples.shape == want.samples.shape == (2, 3, N * (M + cp))
        assert np.abs(got.samples - want.samples).max() < 1e-12
        body = got.body.reshape(2, 3, N, M)
        assert np.abs(dd_analysis(body) - ot.sfft(ot.wigner(want, params))).max() < 1e-12
        assert np.abs(dd_analysis(body) - x).max() < 1e-12

    def test_refuses_a_grid_of_another_frame_and_a_long_prefix(self):
        params = ot.make_frame(4, 2)
        with pytest.raises(ValueError):
            dd_synthesis(np.zeros((4, 2)), params)
        with pytest.raises(ValueError):
            dd_synthesis(np.zeros((2, 4)), params, cp_len=4)


class TestBasisWaveforms:
    def test_orthonormal(self):
        params = ot.make_frame(4, 3)
        pulses = [
            ot.basis_waveform(m, n, params).samples
            for n in range(3)
            for m in range(4)
        ]
        G = np.array([[np.vdot(q, p) for q in pulses] for p in pulses])
        assert_allclose(G, np.eye(12), atol=1e-12)

    def test_synthesis_is_linear_combination(self):
        # heisenberg(X) == sum_{m,n} X[m,n] * pulse(m,n), prefix included
        params = ot.make_frame(4, 2)
        rng = np.random.default_rng(23)
        X = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        sig = ot.heisenberg(X, params, cp_len=1)
        acc = np.zeros_like(sig.samples)
        for m in range(4):
            for n in range(2):
                acc = acc + X[m, n] * ot.basis_waveform(m, n, params, cp_len=1).samples
        assert_allclose(sig.samples, acc, atol=1e-12)

    def test_wigner_is_receive_correlation(self):
        # the matched-filter output equals direct correlation with each pulse
        params = ot.make_frame(4, 3)
        rng = np.random.default_rng(29)
        r = ot.TimeSignal(
            samples=rng.normal(size=12) + 1j * rng.normal(size=12),
            cp_len=0,
            sample_rate=params.bandwidth,
            num_slots=3,
        )
        Y = ot.wigner(r, params)
        for m in range(4):
            for n in range(3):
                ref = np.vdot(ot.basis_waveform(m, n, params).samples, r.samples)
                assert Y[m, n] == pytest.approx(ref, abs=1e-12)


class TestAmbiguity:
    def test_origin_and_full_shift(self):
        params = ot.make_frame(8, 4)
        assert ot.ambiguity(0, 0, params) == pytest.approx(1.0)
        assert ot.ambiguity(8, 0, params) == pytest.approx(0.0)

    def test_partial_overlap_magnitude(self):
        # delay-only: |A(l,0)| = (M - l)/M for the rectangular pulse pair
        params = ot.make_frame(8, 4)
        for l in range(1, 8):
            assert abs(ot.ambiguity(l, 0, params)) == pytest.approx((8 - l) / 8)
        assert abs(ot.ambiguity(-3, 0, params)) == pytest.approx(5 / 8)

    def test_off_origin_leakage_nonzero(self):
        # rectangular pulses are NOT bi-orthogonal under fractional offsets;
        # the diagnostic records this rather than hiding it
        params = ot.make_frame(8, 4)
        assert abs(ot.ambiguity(1, 1, params)) > 1e-3
