"""Detector contracts: scalar one-tap, linear MMSE, exhaustive ML."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim import equalizer
from otfsim.channel import band_blocks, delay_band, random_channel
from otfsim.equalizer import (
    ML_GUARD_BITS,
    band_filter,
    band_gram,
    band_solver,
    ml_detect,
    mmse_dd,
    mmse_filter,
    one_tap_tf,
    reduction_split,
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
        with pytest.raises(ValueError):  # one grid's variance of a stack
            one_tap_tf(np.ones((3, 2, 2)), np.ones((2, 2)), np.array([0.1, -0.1, 0.2]))

    def test_zero_noise_checks_each_grid_of_a_stack(self):
        # zero-forcing is refused only for a grid whose own variance is 0 and
        # whose own response has a zero gain
        y, h = np.ones((2, 1, 2), dtype=complex), np.array([[[1.0, 0.0]], [[1.0, 1.0]]])
        with pytest.raises(ZeroDivisionError):
            one_tap_tf(y, h, np.array([0.0, 0.5]))
        with pytest.raises(ZeroDivisionError):  # a shared response with a zero gain
            one_tap_tf(y, h[0], np.array([0.5, 0.0]))
        out = one_tap_tf(y, h, np.array([0.5, 0.0]))
        assert out[0, 0, 1] == 0.0 and np.array_equal(out[1], [[1.0, 1.0]])

    @pytest.mark.parametrize("shared", [True, False])
    def test_per_grid_noise_rows_equal_one_grid_calls_bitwise(self, shared):
        # a stack whose grids carry their own variances (one a zero-forcing
        # grid) against each grid's scalar call, for a shared response and
        # for one response per grid
        rng = np.random.default_rng(301)
        y = rng.normal(size=(4, 8, 4)) + 1j * rng.normal(size=(4, 8, 4))
        h = rng.normal(size=(4, 8, 4)) + 1j * rng.normal(size=(4, 8, 4))
        h = h[0] if shared else h
        noise_var = np.array([0.3, 0.0, 1e-3, 2.5])
        got = one_tap_tf(y, h, noise_var)
        for t, nv in enumerate(noise_var):
            assert np.array_equal(got[t], one_tap_tf(y[t], h if shared else h[t], float(nv)))


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

    def test_stack_equals_per_frame_calls(self):
        # one call on a (2, 3, rows) stack equals each frame's 1-D call, bitwise
        rng = np.random.default_rng(308)
        c = get_constellation("QPSK")
        H = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        y = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        got = ml_detect(y, H, c)
        assert got.shape == (2, 3, 3)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], ml_detect(y[idx], H, c))
        assert np.array_equal(ml_detect(y[1, :1], H, c), got[1, :1])

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


def gram_by_roll(band, noise_var):
    """The band Gram as it was first written: each diagonal scattered by an
    index table from a rolled copy of the band (the oracle of ``band_gram``)."""
    L, B = band.shape[-3], band.shape[-1]
    p = np.arange(B)
    conj = band.conj()
    gram = np.zeros((*band.shape[:-3], band.shape[-2], B * B), dtype=np.complex128)
    gram[..., p * (B + 1)] = noise_var
    for d in range(1 - L, L):
        late = np.roll(conj, d, axis=-1)  # conj(band) delayed by d round each block
        gram[..., p * B + (p - d) % B] += sum(
            band[..., l, :, :] * late[..., l - d, :, :] for l in range(max(0, d), L + min(0, d))
        )
    return gram.reshape(*gram.shape[:-1], B, B)


def adjoint_by_roll(band, z):
    """A^H z of the band's blocks by rolled products, the oracle of ``band_filter``'s last step."""
    return sum(np.roll(band[..., l, :, :].conj() * z, -l, axis=-1) for l in range(band.shape[-3]))


def dense_filter(band, noise_var):
    """``band_filter`` of a band stack through its dense Gram stack, the cyclic reduction's fallback."""
    return lambda y: equalizer._band_adjoint(band, equalizer._dense_solve(band, y, noise_var))


def reduce_filter(band, noise_var):
    """``band_filter`` of a band stack through cyclic reduction, whatever ``band_solver`` picks."""
    return lambda y: equalizer._band_adjoint(band, equalizer._reduce_solve(band, y, noise_var))


def refuse(*args):
    raise AssertionError("the other band LMMSE path was taken")


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
        # blocks this short are faster dense, and those that do not split
        # into two rows of L - 1 samples can only be dense
        assert band_solver(L, 3, B) is equalizer._dense_solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equalizer, "_reduce", refuse)
            got = band_filter(band, 0.3)(y)
        assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("L,B", [(3, 8), (3, 3), (3, 4), (5, 5), (1, 1), (2, 7)])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_gram_and_adjoint_equal_the_rolled_oracles_bitwise(self, L, B, lead):
        # strided slices write each diagonal, aliased ones (2L - 1 > B) included,
        # in the order and with the products of the rolled index scatter
        rng = np.random.default_rng(315)
        band = random_band(rng, (*lead, L, 3, B))
        gram = band_gram(band, 0.3)
        assert np.array_equal(gram, gram_by_roll(band, 0.3))
        if len(lead) == 2:
            return  # band_filter takes one band for every frame, or one per frame
        y = random_band(rng, (4, 3, B))
        if lead:  # one band per frame: the dense stack is solved
            z = np.linalg.solve(gram, y[..., None])[..., 0]
            want, got = adjoint_by_roll(band, z), dense_filter(band, 0.3)(y)
        else:  # one band for every frame: W = A^H of the inverse's columns, formed once
            inv = np.linalg.solve(gram_by_roll(band[None], 0.3)[0], np.eye(B))
            W = adjoint_by_roll(band, inv.transpose(2, 0, 1)).transpose(1, 2, 0)
            want = (W @ y[..., None])[..., 0]  # frame by frame: the same bits in any stack
            got = band_filter(band, 0.3)(y)
        assert np.array_equal(got, want)

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
        # the dense stack's solve fails, and so does trial 1's on its own:
        # only trial 1 takes the pseudo-inverse, the others solve as alone
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
        got = dense_filter(band, 0.2)(y)
        monkeypatch.undo()
        assert len(pinvs) == 1 and np.array_equal(pinvs[0], bad)
        for t in (0, 2, 3):
            assert np.array_equal(got[t:t + 1], dense_filter(band[t:t + 1], 0.2)(y[t:t + 1]))
        assert_allclose(got[1:2], dense_filter(band[1:2], 0.2)(y[1:2]), atol=1e-10)

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
        # 4 blocks of 8 x 8 are 256 dense Gram entries a trial; a guard of 23
        # (529 entries) solves 7 trials as 2 + 2 + 2 + 1, bitwise as one stack,
        # with one variance or one per frame
        rng = np.random.default_rng(314)
        band, y = random_band(rng, (7, 3, 4, 8)), random_band(rng, (7, 4, 8))
        solve = np.linalg.solve
        for noise_var in (0.1, np.linspace(0.05, 2.0, 7)):
            whole, sizes = dense_filter(band, noise_var)(y), []
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", lambda G, b: sizes.append(len(G)) or solve(G, b))
                m.setattr(equalizer, "EFFECTIVE_GUARD", 23)
                assert np.array_equal(dense_filter(band, noise_var)(y), whole)
            assert sizes == [2, 2, 2, 1]

    def test_per_frame_noise_rows_equal_one_frame_calls_bitwise(self):
        # frames of one dense stack, each with its own variance, against each
        # frame's Gram and solve at its scalar variance
        rng = np.random.default_rng(320)
        band, y = random_band(rng, (5, 3, 2, 8)), random_band(rng, (5, 2, 8))
        noise_var = np.array([0.4, 1e-4, 3.0, 0.4, 0.02])
        gram, got = band_gram(band, noise_var), dense_filter(band, noise_var)(y)
        for t, nv in enumerate(noise_var):
            assert np.array_equal(gram[t], band_gram(band[t], float(nv)))
            assert np.array_equal(got[t:t + 1], dense_filter(band[t:t + 1], float(nv))(y[t:t + 1]))
        assert_allclose(got[2], (mmse_filter(band_blocks(band[2]), 3.0) @ y[2, ..., None])[..., 0],
                        atol=1e-12)


def frame_band(rng, mode, L, B, T=3):
    """The delay bands (T, L, blocks, B) of T random draws of an L-delay channel in ``mode``."""
    if mode == "per_slot_cp":
        params = ot.make_frame(B, 3)
    else:  # one block of B = M * N samples, two slots where the delays fit M
        params = ot.make_frame(*((B // 2, 2) if L <= B // 2 else (B, 1)))
    ch = random_channel(L, 2 if params.N > 1 else 1, rng)
    band = delay_band(ch, params, random_band(rng, (T, len(ch.taps))))
    return band.reshape(T, L, 1 if mode == "cyclic" else params.N, B)


class TestCyclicReduction:
    @pytest.mark.parametrize("mode", ["per_slot_cp", "cyclic"])
    @pytest.mark.parametrize("B", [8, 16, 24])
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_matches_the_dense_solve_and_the_blocks(self, mode, B, L, monkeypatch):
        rng = np.random.default_rng(316)
        band = frame_band(rng, mode, L, B)
        y = random_band(rng, band[:, 0].shape)
        monkeypatch.setattr(equalizer, "_dense_solve", refuse)  # no frame falls back
        got = reduce_filter(band, 0.2)(y)
        monkeypatch.undo()
        assert_allclose(got, dense_filter(band, 0.2)(y), atol=1e-12)
        want = (mmse_filter(band_blocks(band), 0.2) @ y[..., None])[..., 0]
        assert_allclose(got, want, atol=1e-12)

    def test_the_cases_split_into_two_rows_and_more(self):
        # (nb, K) of the cases above: two and four rows are covered, and K >= L - 1
        splits = {(L, B): reduction_split(L, B) for B in (8, 16, 24) for L in range(1, 6)}
        assert splits[4, 8] == splits[5, 8] == (2, 4)
        assert splits[3, 8] == (4, 2) and splits[5, 16] == (4, 4) and splits[5, 24] == (4, 6)
        assert splits[1, 16] == (16, 1)
        assert all(B // nb >= L - 1 and B % nb == 0 for (L, B), (nb, _) in splits.items())

    def test_solver_takes_the_measured_faster_path(self):
        # cyclic reduction from min(4K, 32) block rows of K samples up
        dense, reduce = equalizer._dense_solve, equalizer._reduce_solve
        assert band_solver(3, 16, 32) is reduce  # 16 rows of 2, a 32 x 16 slot stack
        assert band_solver(3, 8, 16) is reduce  # 8 rows of 2
        assert band_solver(1, 1, 8) is reduce  # 8 rows of 1
        assert band_solver(3, 3, 8) is dense  # 4 rows of 2
        assert band_solver(5, 16, 32) is dense  # 8 rows of 4
        assert band_solver(5, 16, 64) is reduce  # 16 rows of 4
        assert band_solver(17, 1, 256) is dense  # 16 rows of 16
        assert band_solver(17, 1, 512) is reduce  # 32 rows of 16
        assert band_solver(2, 4, 7) is dense  # an odd block does not split

    def test_guard_refuses_only_frames_neither_path_fits(self):
        dense, reduce = equalizer._dense_solve, equalizer._reduce_solve
        limit = equalizer.EFFECTIVE_GUARD**2
        # per_slot_cp 32 x 16384 with 3 delays: the dense Grams hold 4096^2
        # entries, the reduction would hold 28.3M
        assert equalizer.reduction_entries(3, 16384, 32) > limit == 16384 * 32**2
        assert band_solver(3, 16384, 32) is dense
        # per_slot_cp 512 x 64 with 256 delays: 151M working entries, 16.8M dense
        assert equalizer.reduction_entries(256, 64, 512) > limit >= 64 * 512**2
        assert band_solver(256, 64, 512) is dense
        # 2650 blocks of 80 = 16 rows of 5 are faster dense, but only the
        # reduction fits
        assert 2650 * 80**2 > limit >= equalizer.reduction_entries(1, 2650, 80)
        assert band_solver(1, 2650, 80) is reduce
        # per_slot_cp 65536 x 16 fits neither, nor does an unsplit block past the guard
        with pytest.raises(GuardError, match="working set"):
            band_solver(3, 16, 65536)
        with pytest.raises(GuardError, match="dense Gram"):
            band_solver(3, 1, 4097)

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("L,B", [(1, 8), (2, 12), (3, 6), (3, 16), (4, 24), (5, 32)])
    def test_stack_rows_equal_one_frame_calls_bitwise(self, L, B, blocks):
        # every step is elementwise over the frames; a one-block frame alone
        # is a batch of one, whose products numpy must round as in a stack;
        # frames with their own variances equal their one-frame scalar calls
        rng = np.random.default_rng(317)
        band, y = random_band(rng, (5, L, blocks, B)), random_band(rng, (5, blocks, B))
        for noise_var in (0.1, np.array([0.1, 2.0, 1e-3, 0.1, 0.7])):
            got = reduce_filter(band, noise_var)(y)
            for t in range(5):
                one = float(np.broadcast_to(noise_var, 5)[t])
                assert np.array_equal(got[t:t + 1], reduce_filter(band[t:t + 1], one)(y[t:t + 1]))

    def test_stack_is_bounded_by_the_guard(self, monkeypatch):
        # a guard of 60 (3600 working entries) reduces 5 trials as 2 + 2 + 1,
        # bitwise as one stack, with one variance or one per frame
        rng = np.random.default_rng(319)
        band, y = random_band(rng, (5, 3, 2, 16)), random_band(rng, (5, 2, 16))
        assert equalizer.reduction_entries(3, 2, 16) == 2 * 16 * (12 * 3 + 18)  # 1728
        reduce = equalizer._reduce
        for noise_var in (0.1, np.array([0.1, 0.5, 2.0, 1e-3, 0.3])):
            whole, sizes = reduce_filter(band, noise_var)(y), []
            with monkeypatch.context() as m:
                m.setattr(equalizer, "_reduce", lambda b, *a: sizes.append(len(b)) or reduce(b, *a))
                m.setattr(equalizer, "EFFECTIVE_GUARD", 60)
                assert np.array_equal(reduce_filter(band, noise_var)(y), whole)
            assert sizes == [2, 2, 1]

    def test_singular_frame_alone_takes_the_pseudo_inverse(self, monkeypatch):
        # trial 1 has no channel at zero noise: its reduction divides by a zero
        # pivot, and only it is redone densely, where its own solve fails
        rng = np.random.default_rng(318)
        band, y = random_band(rng, (3, 3, 2, 8)), random_band(rng, (3, 2, 8))
        band[1] = 0
        dense, pinvs, pinv = [], [], np.linalg.pinv
        solve = equalizer._dense_solve
        monkeypatch.setattr(equalizer, "_dense_solve", lambda b, *a: dense.append(b) or solve(b, *a))
        monkeypatch.setattr(np.linalg, "pinv", lambda G: pinvs.append(G) or pinv(G))
        got = reduce_filter(band, 0.0)(y)
        monkeypatch.undo()
        assert len(dense) == 1 and np.array_equal(dense[0], band[1:2])
        assert len(pinvs) == 1 and np.array_equal(pinvs[0], np.zeros((1, 2, 8, 8)))
        assert np.array_equal(got[1], np.zeros((2, 8)))
        for t in (0, 2):
            assert np.array_equal(got[t:t + 1], reduce_filter(band[t:t + 1], 0.0)(y[t:t + 1]))
        assert_allclose(got, (mmse_filter(band_blocks(band), 0.0) @ y[..., None])[..., 0], atol=1e-9)

    def test_singular_frame_keeps_its_own_variance_in_the_dense_redo(self, monkeypatch):
        # only trial 1, with no channel at zero noise, is redone densely, at its
        # own variance; its neighbours keep theirs, as in their one-frame calls
        rng = np.random.default_rng(321)
        band, y = random_band(rng, (3, 3, 2, 8)), random_band(rng, (3, 2, 8))
        band[1] = 0
        noise_var, redone, solve = np.array([0.2, 0.0, 1.5]), [], equalizer._dense_solve
        monkeypatch.setattr(equalizer, "_dense_solve",
                            lambda b, y, nv: redone.append(nv.tolist()) or solve(b, y, nv))
        got = reduce_filter(band, noise_var)(y)
        monkeypatch.undo()
        assert redone == [[0.0]] and np.array_equal(got[1], np.zeros((2, 8)))
        for t in (0, 2):
            alone = reduce_filter(band[t:t + 1], float(noise_var[t]))(y[t:t + 1])
            assert np.array_equal(got[t:t + 1], alone)
