"""Symbol mappings and link-quality metrics.

Constellations are unit-energy and Gray-labeled; the exact labelings are
part of the library contract:

* BPSK:   bit 0 -> +1, bit 1 -> -1
* QPSK:   bits (b0, b1) -> ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2), so
  ``00 -> (1+1j)/sqrt(2)``; the real axis carries the first bit.
* 16QAM:  bits (b0, b1, b2, b3) -> I from (b0, b1), Q from (b2, b3),
  per-axis Gray levels 00, 01, 11, 10 -> -3, -1, +1, +3, scaled 1/sqrt(10).

The symbol index of a bit group is its big-endian integer value, and
``Constellation.points[index]`` is the mapped symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frame import TimeSignal


@dataclass(frozen=True, eq=False)
class Constellation:
    """Points on a grid of per-axis levels, ``points[i * A + q] = re[i] + 1j * im[q]``,
    so the nearest point is the nearest level on each axis.
    """

    name: str
    points: np.ndarray
    bits_per_symbol: int
    #: each axis's ascending decision thresholds (:func:`_axis_slicer`), real axis first
    thresholds: tuple = field(init=False, repr=False)
    #: the point index of the level ranks (r_re, r_im), at r_re * A + r_im
    lookup: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        object.__setattr__(self, "points", pts)
        if pts.size != 2 ** self.bits_per_symbol:
            raise ValueError(
                f"{self.name}: {pts.size} points but {self.bits_per_symbol} bits/symbol"
            )
        A = len(set(pts.imag.tolist()))
        re, im = pts[::A].real, pts[:A].imag
        if not np.array_equal(pts, (re[:, None] + 1j * im).reshape(-1)):
            raise ValueError(f"{self.name}: points are not a grid of per-axis levels")
        (t_re, i_re), (t_im, i_im) = _axis_slicer(re), _axis_slicer(im)
        object.__setattr__(self, "thresholds", (t_re, t_im))
        object.__setattr__(self, "lookup", (i_re[:, None] * A + i_im).reshape(-1))

    @property
    def size(self) -> int:
        return self.points.size


def _axis_slicer(levels: np.ndarray) -> tuple:
    """(thresholds, indices): x's nearest level is ``indices[r]``, r the number
    of ascending thresholds at or below x.

    It is the level ``argmin(abs(x - levels))`` picks in floating point, the
    lowest index on a tie (for |x| well below 2**52): threshold r is the least
    float that argmin puts at or above the r-th lowest level, by bisection.
    """
    lv = levels.tolist()
    order = sorted(range(len(lv)), key=lv.__getitem__)
    thresholds = []
    for r in range(1, len(lv)):
        lo, hi = lv[order[r - 1]], lv[order[r]]
        while lo < (mid := lo + (hi - lo) / 2) < hi:
            nearest = min(range(len(lv)), key=lambda i: abs(mid - lv[i]))
            lo, hi = (lo, mid) if order.index(nearest) >= r else (mid, hi)
        thresholds.append(hi)
    return np.array(thresholds), np.array(order)


def _gray_axis_levels() -> np.ndarray:
    # two-bit Gray code 00, 01, 11, 10 mapped onto the 4-PAM levels
    levels = np.empty(4)
    levels[0b00], levels[0b01], levels[0b11], levels[0b10] = -3.0, -1.0, 1.0, 3.0
    return levels


def _build(name: str) -> Constellation:
    if name == "BPSK":
        return Constellation("BPSK", np.array([1.0, -1.0], dtype=complex), 1)
    if name == "QPSK":
        pts = np.array(
            [(1 - 2 * b0 + 1j * (1 - 2 * b1)) / np.sqrt(2) for b0 in (0, 1) for b1 in (0, 1)]
        )
        return Constellation("QPSK", pts, 2)
    if name == "16QAM":
        lv = _gray_axis_levels()
        pts = np.array(
            [(lv[i] + 1j * lv[q]) / np.sqrt(10) for i in range(4) for q in range(4)]
        )
        return Constellation("16QAM", pts, 4)


_CONSTELLATIONS = {name: _build(name) for name in ("BPSK", "QPSK", "16QAM")}


def get_constellation(name: str) -> Constellation:
    try:
        return _CONSTELLATIONS[name]
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}, expected BPSK, QPSK or 16QAM") from None


def map_bits(
    bits: np.ndarray, constellation: Constellation, out: np.ndarray | None = None
) -> np.ndarray:
    """Map a 0/1 array to symbols along its last axis (length divisible by bits/symbol).

    Leading axes index independent frames: bits of shape (..., n) give
    symbols of shape (..., n / bits_per_symbol), written to ``out`` if given.
    """
    bits = np.asarray(bits)
    bps = constellation.bits_per_symbol
    if bits.ndim < 1:
        raise ValueError("bits must have at least one axis")
    if bits.shape[-1] % bps != 0:
        raise ValueError(f"bit count {bits.shape[-1]} not divisible by {bps}")
    if bits.dtype.kind not in "biu" or not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1, in an integer or bool array")
    groups = bits.reshape(*bits.shape[:-1], -1, bps)
    idx = groups @ (1 << np.arange(bps - 1, -1, -1))
    # mode "clip": with "raise", take fills a buffer of out's size and copies it over
    return constellation.points.take(idx, out=out, mode="clip")


def symbol_indices(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Nearest-point hard decision, returned as constellation indices.

    Decided on each axis by its thresholds: a tie goes to the lower index,
    and a symbol with a NaN part to index 0, as the argmin of the distances
    to all points decides.
    """
    z = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    ranks = np.zeros(z.shape, dtype=np.uint8)
    for part, thresholds in zip((z.real, z.imag), constellation.thresholds):
        ranks *= thresholds.size + 1
        part = np.ascontiguousarray(part)  # compared faster than a strided view
        for t in thresholds:
            ranks += part >= t
        del part  # freed before the next copy and the lookup
    idx = constellation.lookup.take(ranks)
    idx[np.isnan(z)] = 0
    return idx


def slice_symbols(
    symbols: np.ndarray, constellation: Constellation, out: np.ndarray | None = None
) -> np.ndarray:
    """Hard-decide symbols back to bits (inverse of map_bits).

    Symbols of shape (..., n) give int64 bits of shape (..., n * bits_per_symbol),
    written to a C-contiguous ``out`` if given.
    """
    symbols = np.asarray(symbols)
    idx = symbol_indices(symbols, constellation)
    bps = constellation.bits_per_symbol
    bits = np.empty((idx.size, bps), dtype=np.int64) if out is None else out.reshape(idx.size, bps)
    for j in range(bps):  # most significant bit first
        np.right_shift(idx, bps - 1 - j, out=bits[:, j])
    bits &= 1
    return bits.reshape(*symbols.shape[:-1], -1)


def papr_samples(x: np.ndarray):
    """Peak-to-average power ratio (linear) of a sample array.

    A 1-D array gives a float; an (..., n) stack gives one ratio per row
    of its last axis.
    """
    power = np.abs(np.asarray(x))
    np.square(power, out=power)
    mean = power.mean(axis=-1)
    if np.any(mean == 0):
        raise ValueError("PAPR of an all-zero signal is undefined")
    ratio = power.max(axis=-1) / mean
    return float(ratio) if ratio.ndim == 0 else ratio


def papr(sig: TimeSignal, work: np.ndarray | None = None):
    """PAPR of a block at critical sampling, prefixes excluded (one per frame of a stack).

    ``work``, a C-contiguous complex array of the body samples' shape,
    receives the slot bodies where the prefixes must be cut out: the power
    array is then the one temporary of the frame's size.
    """
    if work is None or sig.cp_len == 0:
        return papr_samples(sig.body)
    bodies = sig.slot_bodies
    np.copyto(work.reshape(bodies.shape), bodies)
    return papr_samples(work)


def count_errors(tx_bits: np.ndarray, rx_bits: np.ndarray, bits_per_symbol: int = 1):
    """(bit errors, symbol errors) between two equal-shape bit arrays.

    Symbols are groups of ``bits_per_symbol`` consecutive bits along the
    last axis; counts are totals over every frame of a stack.
    """
    tx_bits = np.asarray(tx_bits)
    rx_bits = np.asarray(rx_bits)
    if tx_bits.shape != rx_bits.shape:
        raise ValueError(f"shape mismatch {tx_bits.shape} vs {rx_bits.shape}")
    n = tx_bits.shape[-1] if tx_bits.ndim else tx_bits.size
    if n % bits_per_symbol != 0:
        raise ValueError(f"bit count {n} not divisible by {bits_per_symbol}")
    wrong = tx_bits != rx_bits
    columns = wrong.reshape(-1, bits_per_symbol)  # one symbol a row
    hit = columns[:, 0]
    for j in range(1, bits_per_symbol):
        hit = hit | columns[:, j]
    return int(np.count_nonzero(wrong)), int(np.count_nonzero(hit))


@dataclass(frozen=True, eq=False)
class LinkResult:
    """Mergeable accumulator for one (scheme, SNR) simulation point."""

    scheme: str
    snr_db: float
    trials: int = 0
    bit_errors: int = 0
    symbol_errors: int = 0
    total_bits: int = 0
    total_symbols: int = 0
    papr_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def ber(self) -> float:
        return self.bit_errors / self.total_bits if self.total_bits else 0.0

    @property
    def ser(self) -> float:
        return self.symbol_errors / self.total_symbols if self.total_symbols else 0.0

    @property
    def papr_mean(self) -> float:
        return float(np.mean(self.papr_values)) if self.papr_values.size else 0.0

    @property
    def papr_p99(self) -> float:
        """``np.percentile(papr_values, 99)`` by numpy's linear rule, bit for bit,
        without its ``np.unique`` (which imports ``numpy.ma``)."""
        v = np.sort(self.papr_values)
        if not v.size:
            return 0.0
        i = (v.size - 1) * 0.99
        if i >= v.size - 1 or np.isnan(v[-1]):  # numpy's last value, or its NaN
            return float(v[-1])
        k = int(i)
        a, b, t = v[k], v[k + 1], i - k
        return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))

    def merge(self, other: "LinkResult") -> "LinkResult":
        """Combine two partial results for the same point (associative)."""
        return LinkResult.merge_all([self, other])

    @staticmethod
    def merge_all(parts) -> "LinkResult":
        """Combine partial results for the same point, in order, in one step:
        the PAPR values are concatenated once, not once a part."""
        first = parts[0]
        for other in parts[1:]:
            if (first.scheme, first.snr_db) != (other.scheme, other.snr_db):
                raise ValueError(
                    f"cannot merge {first.scheme}@{first.snr_db} with {other.scheme}@{other.snr_db}"
                )
        return LinkResult(
            scheme=first.scheme,
            snr_db=first.snr_db,
            trials=sum(p.trials for p in parts),
            bit_errors=sum(p.bit_errors for p in parts),
            symbol_errors=sum(p.symbol_errors for p in parts),
            total_bits=sum(p.total_bits for p in parts),
            total_symbols=sum(p.total_symbols for p in parts),
            papr_values=np.concatenate([p.papr_values for p in parts]),
        )
