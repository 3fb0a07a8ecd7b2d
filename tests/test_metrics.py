"""Constellation contracts, PAPR, and error accounting."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import otfsim as ot
from otfsim.metrics import (
    Constellation,
    count_errors,
    get_constellation,
    map_bits,
    papr,
    papr_samples,
    slice_symbols,
    symbol_indices,
)


class TestConstellations:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_constellation("64QAM")

    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16QAM"])
    def test_unit_energy(self, name):
        c = get_constellation(name)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_bpsk_labels(self):
        c = get_constellation("BPSK")
        assert_allclose(map_bits(np.array([0, 1]), c), [1.0, -1.0])

    def test_qpsk_frozen_labels(self):
        c = get_constellation("QPSK")
        s = 1 / np.sqrt(2)
        expect = {
            (0, 0): s * (1 + 1j),
            (0, 1): s * (1 - 1j),
            (1, 0): s * (-1 + 1j),
            (1, 1): s * (-1 - 1j),
        }
        for bits, point in expect.items():
            got = map_bits(np.array(bits), c)[0]
            assert got == pytest.approx(point, abs=1e-12)

    def test_16qam_frozen_corners(self):
        c = get_constellation("16QAM")
        s = 1 / np.sqrt(10)
        # per-axis Gray: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
        assert map_bits(np.array([0, 0, 0, 0]), c)[0] == pytest.approx(s * (-3 - 3j))
        assert map_bits(np.array([1, 0, 1, 0]), c)[0] == pytest.approx(s * (3 + 3j))
        assert map_bits(np.array([1, 1, 0, 1]), c)[0] == pytest.approx(s * (1 - 1j))

    @pytest.mark.parametrize("name", ["QPSK", "16QAM"])
    def test_gray_property(self, name):
        # nearest neighbours in the plane differ by exactly one bit
        c = get_constellation(name)
        bps = c.bits_per_symbol
        labels = [np.array(b) for b in itertools.product((0, 1), repeat=bps)]
        pts = np.array([map_bits(b, c)[0] for b in labels])
        dmin = min(
            abs(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i) if i != j
        )
        for i in range(len(pts)):
            for j in range(i):
                if abs(pts[i] - pts[j]) < dmin * 1.001:
                    assert int(np.sum(labels[i] != labels[j])) == 1

    @pytest.mark.parametrize("name", ["BPSK", "QPSK", "16QAM"])
    def test_map_slice_round_trip(self, name):
        c = get_constellation(name)
        rng = np.random.default_rng(200)
        bits = rng.integers(0, 2, size=20 * c.bits_per_symbol)
        assert np.array_equal(slice_symbols(map_bits(bits, c), c), bits)

    def test_map_bits_validation(self):
        c = get_constellation("QPSK")
        with pytest.raises(ValueError):
            map_bits(np.array([0, 1, 0]), c)  # odd count
        with pytest.raises(ValueError):
            map_bits(np.array([0, 2]), c)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan, 1.0])
    def test_map_bits_rejects_non_bits(self, bad):
        # 1.0 makes a float array of 0/1 values: refused for its dtype
        c = get_constellation("QPSK")
        with pytest.raises(ValueError, match="0 or 1"):
            map_bits(np.array([0, 1, bad, 1]), c)

    def test_map_bits_accepts_bool_bits(self):
        c = get_constellation("QPSK")
        ref = map_bits(np.array([0, 1, 1, 0]), c)
        assert_allclose(map_bits(np.array([False, True, True, False]), c), ref)

    def test_index_is_big_endian_group_value(self):
        c = get_constellation("16QAM")
        bits = np.array([1, 0, 1, 1])
        sym = map_bits(bits, c)
        assert symbol_indices(sym, c)[0] == 0b1011

    def test_slice_tie_is_deterministic_first_index(self):
        # a point equidistant from BPSK's +1 and -1 resolves to index 0
        c = get_constellation("BPSK")
        assert symbol_indices(np.array([0.0 + 0.7j]), c)[0] == 0

    def test_slicing_is_nearest_point(self):
        c = get_constellation("16QAM")
        rng = np.random.default_rng(201)
        noisy = rng.normal(size=50) * 0.5 + 1j * rng.normal(size=50) * 0.5
        idx = symbol_indices(noisy, c)
        for z, i in zip(noisy, idx):
            assert abs(z - c.points[i]) == pytest.approx(np.abs(z - c.points).min())


def argmin_slicer(symbols, constellation):
    """The distance-table slicer the per-axis decisions replaced: the argmin
    of the distances to every point, the lowest index on a tie."""
    z = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    return np.argmin(np.abs(z[:, None] - constellation.points[None, :]), axis=1)


@pytest.mark.parametrize("name", ["BPSK", "QPSK", "16QAM"])
class TestPerAxisSlicer:
    def test_seeded_points(self, name):
        c = get_constellation(name)
        rng = np.random.default_rng(202)
        spread = rng.choice([0.05, 0.3, 1.0, 3.0], size=10**5)
        z = (rng.normal(size=10**5) + 1j * rng.normal(size=10**5)) * spread
        assert np.array_equal(symbol_indices(z, c), argmin_slicer(z, c))

    def test_midpoints_and_their_float_neighbours(self, name):
        # every midpoint of two points, and the floats either side of it on each axis
        c = get_constellation(name)
        mids = ((c.points[:, None] + c.points[None, :]) / 2).reshape(-1)
        re = [mids.real, *(np.nextafter(mids.real, d) for d in (-np.inf, np.inf))]
        im = [mids.imag, *(np.nextafter(mids.imag, d) for d in (-np.inf, np.inf))]
        z = np.concatenate([a + 1j * b for a in re for b in im])
        assert np.array_equal(symbol_indices(z, c), argmin_slicer(z, c))

    def test_signed_zeros_and_nan(self, name):
        c = get_constellation(name)
        parts = [0.0, -0.0, np.nan, 0.4, -0.4]
        z = np.array([complex(a, b) for a in parts for b in parts])
        idx = symbol_indices(z, c)
        assert np.array_equal(idx, argmin_slicer(z, c))
        assert not idx[np.isnan(z)].any()

    def test_stacks(self, name):
        c = get_constellation(name)
        rng = np.random.default_rng(203)
        z = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
        assert np.array_equal(symbol_indices(z, c), argmin_slicer(z, c))
        bits = slice_symbols(z, c)
        assert bits.shape == (3, 4, 5 * c.bits_per_symbol)
        assert all(np.array_equal(bits[i], slice_symbols(z[i], c)) for i in range(3))


def test_constellation_must_be_a_grid_of_axis_levels():
    # a rotated QPSK is not decided per axis
    with pytest.raises(ValueError, match="grid"):
        Constellation("diamond", np.array([1, 1j, -1, -1j]), 2)


class TestPAPR:
    def test_constant_modulus_is_unity(self):
        x = np.exp(1j * np.linspace(0, 5, 64))
        assert papr_samples(x) == pytest.approx(1.0, abs=1e-12)

    def test_single_spike(self):
        x = np.zeros(16, dtype=complex)
        x[3] = 2.0
        assert papr_samples(x) == pytest.approx(16.0)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            papr_samples(np.zeros(8))

    def test_prefix_excluded(self):
        # the prefix repeats the block tail; measuring it would double-count
        # the peak region, so papr() is defined on the body only
        params = ot.make_frame(8, 4)
        X = np.zeros((8, 4), dtype=complex)
        X[2, 1] = 1.0
        sig = ot.heisenberg(X, params, cp_len=3)
        assert papr(sig) == pytest.approx(papr_samples(sig.body))
        assert sig.samples.size == 44 and sig.body.size == 32


class TestErrorCounting:
    def test_basic_counts(self):
        tx = np.array([0, 0, 1, 1, 0, 1])
        rx = np.array([0, 1, 1, 0, 0, 1])
        assert count_errors(tx, rx) == (2, 2)
        assert count_errors(tx, rx, bits_per_symbol=2) == (2, 2)
        assert count_errors(tx, rx, bits_per_symbol=3) == (2, 2)

    def test_symbol_errors_group_bits(self):
        tx = np.array([0, 0, 0, 0])
        rx = np.array([1, 1, 0, 0])
        assert count_errors(tx, rx, bits_per_symbol=2) == (2, 1)

    @pytest.mark.parametrize("bps", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
    def test_counts_equal_the_any_oracle(self, bps, lead):
        # the symbol count ORs the bps columns; the oracle reduces each
        # symbol's bits with any, over stacks and 1-D input alike
        rng = np.random.default_rng(200 + bps)
        tx = rng.integers(0, 2, (*lead, 12 * bps))
        rx = np.where(rng.random(tx.shape) < 0.1, 1 - tx, tx)
        wrong = tx != rx
        want = int(wrong.sum()), int(wrong.reshape(-1, bps).any(axis=1).sum())
        assert want[1] > 0
        got = count_errors(tx, rx, bps)
        assert got == want and all(type(v) is int for v in got)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_errors(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError):
            count_errors(np.array([0, 1, 0]), np.array([0, 1, 0]), bits_per_symbol=2)


class TestLinkResult:
    def make(self, trials, be, se, tb, ts, paprs):
        return ot.LinkResult(
            scheme="OTFS",
            snr_db=10.0,
            trials=trials,
            bit_errors=be,
            symbol_errors=se,
            total_bits=tb,
            total_symbols=ts,
            papr_values=np.asarray(paprs, dtype=float),
        )

    def test_rates(self):
        r = self.make(2, 5, 3, 100, 50, [2.0, 4.0])
        assert r.ber == 0.05 and r.ser == 0.06
        assert r.papr_mean == pytest.approx(3.0)

    def test_empty_rates_are_zero(self):
        r = self.make(0, 0, 0, 0, 0, [])
        assert r.ber == 0.0 and r.ser == 0.0 and r.papr_mean == 0.0 and r.papr_p99 == 0.0

    def test_p99_is_numpys_percentile_bit_for_bit(self):
        rng = np.random.default_rng(99)
        for n in range(1, 401):
            for v in (rng.standard_normal(n) * 3 + 5, rng.integers(0, 4, n).astype(float)):
                r = self.make(n, 0, 0, 0, 0, v)
                assert np.float64(r.papr_p99).tobytes() == np.percentile(v, 99).tobytes(), n
        v = np.array([1.0, np.nan, 2.0])
        assert np.isnan(self.make(1, 0, 0, 0, 0, v).papr_p99)

    def test_merge_adds_fields(self):
        a = self.make(1, 2, 1, 64, 32, [2.0])
        b = self.make(3, 4, 2, 192, 96, [3.0, 5.0, 1.0])
        m = a.merge(b)
        assert (m.trials, m.bit_errors, m.symbol_errors) == (4, 6, 3)
        assert (m.total_bits, m.total_symbols) == (256, 128)
        assert m.papr_values.tolist() == [2.0, 3.0, 5.0, 1.0]

    def test_merge_is_associative_on_stats(self):
        a = self.make(1, 1, 1, 10, 5, [1.0])
        b = self.make(1, 2, 1, 10, 5, [2.0])
        c = self.make(1, 3, 2, 10, 5, [4.0])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.ber == right.ber and left.papr_mean == right.papr_mean
        assert left.trials == right.trials

    def test_merge_rejects_mismatched_points(self):
        a = self.make(1, 0, 0, 8, 4, [])
        b = ot.LinkResult(scheme="OFDM", snr_db=10.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_all_is_the_chained_merge(self):
        parts = [self.make(i + 1, i, i % 2, 64, 32, np.arange(i) + 0.25 * i) for i in range(5)]
        chained = parts[0]
        for p in parts[1:]:
            chained = chained.merge(p)
        m = ot.LinkResult.merge_all(parts)
        fields = ("trials", "bit_errors", "symbol_errors", "total_bits", "total_symbols")
        assert [getattr(m, f) for f in fields] == [getattr(chained, f) for f in fields]
        assert m.papr_values.tobytes() == chained.papr_values.tobytes()
        with pytest.raises(ValueError):
            ot.LinkResult.merge_all([*parts, ot.LinkResult(scheme="OTFS", snr_db=11.0)])
