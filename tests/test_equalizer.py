"""Detector contracts: scalar one-tap, linear MMSE, exhaustive ML."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim.channel import band_blocks
from otfsim.equalizer import (
    ML_GUARD_BITS,
    band_filter,
    band_gram,
    ml_detect,
    mmse_dd,
    mmse_filter,
    one_tap_tf,
)
from otfsim.errors import GuardError
from otfsim.metrics import get_constellation, map_bits, symbol_indices


def linear_mse(W, H, noise_var):
    """Closed-form MSE of estimator W for y = Hx + n, white unit x and n."""
    n = H.shape[1]
    bias = W @ H - np.eye(n)
    return np.linalg.norm(bias, "fro") ** 2 + noise_var * np.linalg.norm(W, "fro") ** 2


class TestOneTap:
    def test_frozen_scalar(self):
        out = one_tap_tf(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]), 1.0)
        assert out[0, 0] == pytest.approx(1.0)

    def test_zero_noise_is_zero_forcing(self):
        rng = np.random.default_rng(300)
        h = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        x = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        assert_allclose(one_tap_tf(h * x, h, 0.0), x, atol=1e-12)

    def test_zero_gain_zero_noise_raises(self):
        h = np.array([[1.0, 0.0]], dtype=complex)
        with pytest.raises(ZeroDivisionError):
            one_tap_tf(np.ones((1, 2), dtype=complex), h, 0.0)

    def test_zero_gain_with_noise_is_fine(self):
        h = np.array([[1.0, 0.0]], dtype=complex)
        out = one_tap_tf(np.ones((1, 2), dtype=complex), h, 0.5)
        assert out[0, 1] == 0.0

    def test_shrinks_toward_zero_with_noise(self):
        # scalar MMSE gain |h|^2/(|h|^2+s2) < 1: estimates are damped, not inverted
        out = one_tap_tf(np.array([[4.0 + 0j]]), np.array([[2.0 + 0j]]), 2.0)
        assert out[0, 0] == pytest.approx(8.0 / 6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            one_tap_tf(np.ones((2, 2)), np.ones((2, 3)), 0.1)
        with pytest.raises(ValueError):
            one_tap_tf(np.ones((2, 2)), np.ones((2, 2)), -0.1)


class TestMMSE:
    def test_identity_channel_frozen(self):
        y = np.array([2.0, -4.0j])
        assert_allclose(mmse_dd(y, np.eye(2), 1.0), y / 2.0, atol=1e-13)

    def test_matches_precomputed_filter(self):
        rng = np.random.default_rng(301)
        H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        y = rng.normal(size=6) + 1j * rng.normal(size=6)
        W = mmse_filter(H, 0.3)
        assert_allclose(W @ y, mmse_dd(y, H, 0.3), atol=1e-12)

    def test_zero_noise_limit_is_inverse(self):
        rng = np.random.default_rng(302)
        H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        x_hat = mmse_dd(H @ x, H, 0.0)
        assert_allclose(x_hat, x, atol=1e-9)

    def test_singular_gram_uses_pinv(self, monkeypatch):
        pinvs, pinv = [], np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda G: pinvs.append(G) or pinv(G))
        mmse_dd(np.ones(2), np.eye(2), 0.1)
        assert pinvs == []
        H = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        y = np.array([3.0, 1.0], dtype=complex)
        x_hat = mmse_dd(y, H, 0.0)
        assert len(pinvs) == 1
        # min-norm least squares: first coordinate solved, dead one zeroed
        assert_allclose(x_hat, [3.0, 0.0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            mmse_dd(np.ones(3), np.eye(2), 0.1)
        with pytest.raises(ValueError):
            mmse_dd(np.ones(2), np.eye(2), -0.1)

    def test_mse_optimality_closed_form(self):
        # analytic MSE of the MMSE filter never exceeds zero-forcing's,
        # and perturbing the filter can only increase it
        rng = np.random.default_rng(303)
        H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        # squeeze one direction so inversion actually hurts
        U, s, Vh = np.linalg.svd(H)
        s[-1] = 0.05
        H = U @ np.diag(s) @ Vh
        noise_var = 0.4
        W = mmse_filter(H, noise_var)
        base = linear_mse(W, H, noise_var)
        assert base <= linear_mse(np.linalg.inv(H), H, noise_var) + 1e-10
        for _ in range(10):
            E = rng.normal(size=W.shape) + 1j * rng.normal(size=W.shape)
            assert base <= linear_mse(W + 0.01 * E, H, noise_var) + 1e-10

    def test_mse_optimality_monte_carlo(self):
        rng = np.random.default_rng(304)
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise_var = 0.5
        W = mmse_filter(H, noise_var)
        Wzf = np.linalg.inv(H)
        err_mmse = err_zf = 0.0
        for _ in range(500):
            x = (rng.normal(size=4) + 1j * rng.normal(size=4)) / np.sqrt(2)
            n = (rng.normal(size=4) + 1j * rng.normal(size=4)) * np.sqrt(noise_var / 2)
            y = H @ x + n
            err_mmse += np.linalg.norm(W @ y - x) ** 2
            err_zf += np.linalg.norm(Wzf @ y - x) ** 2
        assert err_mmse < err_zf

    def test_stacked_filter_matches_per_slice(self):
        rng = np.random.default_rng(308)
        for shape in [(5, 6, 6), (2, 3, 4, 7)]:
            H = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            W = mmse_filter(H, 0.2)
            assert W.shape == shape[:-2] + (shape[-1], shape[-2])
            for idx in np.ndindex(*shape[:-2]):
                assert_allclose(W[idx], mmse_filter(H[idx], 0.2), atol=1e-12)

    def test_stacked_filter_singular_slice_falls_back_to_pinv(self):
        # one singular Gram matrix at zero noise redoes the stack slice by
        # slice: only that slice takes pinv, and each regular slice is the
        # filter of its operator alone
        rng = np.random.default_rng(309)
        H = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        H[1] = np.diag([1.0, 2.0, 0.0, 0.0])
        W = mmse_filter(H, 0.0)
        assert np.all(np.isfinite(W))
        assert_allclose(W[1], np.diag([1.0, 0.5, 0.0, 0.0]), atol=1e-12)
        for i in (0, 2):
            assert np.array_equal(W[i], mmse_filter(H[i], 0.0))
            assert_allclose(W[i], np.linalg.inv(H[i]), atol=1e-10)


class TestMLDetect:
    def test_matches_exhaustive_oracle(self):
        # independent enumeration with itertools, same candidate order
        rng = np.random.default_rng(305)
        c = get_constellation("QPSK")
        H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for _ in range(10):
            bits = rng.integers(0, 2, size=6)
            x = map_bits(bits, c)
            y = H @ x + 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            got = ml_detect(y, H, c)

            best_cost, best_vec = None, None
            for combo in itertools.product(range(c.size), repeat=3):
                cand = c.points[list(combo)]
                cost = np.linalg.norm(y - H @ cand) ** 2
                if best_cost is None or cost < best_cost - 1e-15:
                    best_cost, best_vec = cost, cand
            assert_allclose(got, best_vec, atol=1e-12)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(306)
        c = get_constellation("16QAM")
        H = np.eye(4) + 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        bits = rng.integers(0, 2, size=16)
        x = map_bits(bits, c)
        assert_allclose(ml_detect(H @ x, H, c), x, atol=1e-12)

    def test_tie_breaks_to_first_candidate(self):
        # y = 0 through a BPSK scalar channel: +1 and -1 tie; the
        # enumeration order puts +1 (index 0) first
        c = get_constellation("BPSK")
        out = ml_detect(np.array([0.0 + 0j]), np.array([[1.0 + 0j]]), c)
        assert out[0] == 1.0

    def test_guard_bits(self):
        c = get_constellation("QPSK")
        n = ML_GUARD_BITS // 2  # exactly at the guard: allowed
        H = np.eye(n, dtype=complex)
        x = map_bits(np.zeros(2 * n, dtype=int), c)
        got = ml_detect(H @ x, H, c)
        assert_allclose(got, x, atol=1e-12)
        # a fresh array: a view would keep the (Q^n, n) candidate table alive
        assert got.base is None
        with pytest.raises(GuardError):
            ml_detect(np.zeros(n + 1), np.eye(n + 1), c)

    def test_ml_beats_mmse_on_symbol_errors(self):
        # same realisations through both detectors; ML is the floor
        rng = np.random.default_rng(307)
        c = get_constellation("QPSK")
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise_var = 1.0
        ml_err = mmse_err = 0
        for _ in range(150):
            bits = rng.integers(0, 2, size=8)
            x = map_bits(bits, c)
            y = H @ x + np.sqrt(noise_var / 2) * (
                rng.normal(size=4) + 1j * rng.normal(size=4)
            )
            tx_idx = symbol_indices(x, c)
            ml_err += int(np.sum(symbol_indices(ml_detect(y, H, c), c) != tx_idx))
            mmse_err += int(np.sum(symbol_indices(mmse_dd(y, H, noise_var), c) != tx_idx))
        assert ml_err <= mmse_err
        assert mmse_err > 0  # the comparison actually exercised errors


def random_band(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestBandLMMSE:
    # (L, B): wide blocks, the band as wide as the block, and Gram
    # diagonals that alias round small blocks
    @pytest.mark.parametrize("L,B", [(3, 8), (3, 3), (3, 4), (5, 5), (1, 1), (2, 7)])
    def test_gram_and_filter_match_the_dense_blocks(self, L, B):
        rng = np.random.default_rng(310)
        band = random_band(rng, (2, L, 3, B))
        A = band_blocks(band)
        A_adj = A.swapaxes(-1, -2).conj()
        assert_allclose(band_gram(band, 0.3), A @ A_adj + 0.3 * np.eye(B), atol=1e-12)
        y = random_band(rng, (2, 3, B))
        want = (mmse_filter(A, 0.3) @ y[..., None])[..., 0]
        assert_allclose(band_filter(band, 0.3)(y), want, atol=1e-12)

    def test_filter_is_the_lmmse_of_the_blocks(self):
        # one band for every frame (its Gram inverse formed once), and one
        # band per frame (solved)
        rng = np.random.default_rng(311)
        band, y = random_band(rng, (4, 3, 5, 8)), random_band(rng, (4, 5, 8))
        A = band_blocks(band)
        want = (mmse_filter(A, 0.2) @ y[..., None])[..., 0]
        assert_allclose(band_filter(band, 0.2)(y), want, atol=1e-12)
        want = (mmse_filter(A[0], 0.2) @ y[..., None])[..., 0]
        assert_allclose(band_filter(band[0], 0.2)(y), want, atol=1e-12)

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_failed_stack_is_redone_trial_by_trial(self, failure, monkeypatch):
        # the stack's solve fails, and so does trial 1's on its own: only
        # trial 1 takes the pseudo-inverse, the others solve as alone
        rng = np.random.default_rng(312)
        band, y = random_band(rng, (4, 3, 2, 8)), random_band(rng, (4, 2, 8))
        bad = band_gram(band[1:2], 0.2)
        solve, pinv = np.linalg.solve, np.linalg.pinv

        def flaky(G, b):
            if len(G) > 1 or np.array_equal(G, bad):
                if failure == "raise":
                    raise np.linalg.LinAlgError("Singular matrix")
                return np.full(b.shape, np.nan + 0j)
            return solve(G, b)

        pinvs = []
        monkeypatch.setattr(np.linalg, "solve", flaky)
        monkeypatch.setattr(np.linalg, "pinv", lambda G: pinvs.append(G) or pinv(G))
        got = band_filter(band, 0.2)(y)
        monkeypatch.undo()
        assert len(pinvs) == 1 and np.array_equal(pinvs[0], bad)
        for t in (0, 2, 3):
            assert np.array_equal(got[t:t + 1], band_filter(band[t:t + 1], 0.2)(y[t:t + 1]))
        assert_allclose(got[1:2], band_filter(band[1:2], 0.2)(y[1:2]), atol=1e-10)

    def test_singular_gram_takes_the_pseudo_inverse(self):
        # a trial with no channel at zero noise has a zero Gram, stacked or
        # serving every frame
        rng = np.random.default_rng(313)
        band, y = random_band(rng, (3, 2, 2, 6)), random_band(rng, (3, 2, 6))
        band[1] = 0
        got = band_filter(band, 0.0)(y)
        assert np.array_equal(got[1], np.zeros((2, 6)))
        assert np.array_equal(band_filter(band[1], 0.0)(y), np.zeros((3, 2, 6)))
        for t in (0, 2):
            assert np.array_equal(got[t:t + 1], band_filter(band[t:t + 1], 0.0)(y[t:t + 1]))

    def test_stack_is_bounded_by_the_guard(self, monkeypatch):
        # 4 blocks of 8 x 8 are 256 Gram entries a trial; a guard of 23
        # (529 entries) solves 7 trials as 2 + 2 + 2 + 1, bitwise as one stack
        from otfsim import equalizer

        rng = np.random.default_rng(314)
        band, y = random_band(rng, (7, 3, 4, 8)), random_band(rng, (7, 4, 8))
        whole = band_filter(band, 0.1)(y)
        sizes, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda G, b: sizes.append(len(G)) or solve(G, b))
        monkeypatch.setattr(equalizer, "EFFECTIVE_GUARD", 23)
        assert np.array_equal(band_filter(band, 0.1)(y), whole)
        assert sizes == [2, 2, 2, 1]
