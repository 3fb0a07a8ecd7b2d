"""Equalization and detection.

Three detectors, in increasing order of cost:

* :func:`one_tap_tf` — per-cell scalar MMSE on the time-frequency grid,
  the classic multicarrier equalizer (exact when the channel is diagonal
  on the grid, interference-blind otherwise).
* :func:`mmse_dd` — linear MMSE against a full composed operator;
  :func:`mmse_filter` builds the same estimator as a matrix, or as a
  stack of them.
* :func:`ml_detect` — exhaustive maximum-likelihood search, guarded to
  tiny problems; the error-rate floor other detectors are compared to.

Every scheme's precoding and every user map but Gaussian spreading is
unitary, so the Monte-Carlo runner's joint LMMSE is :func:`band_filter` on
each time-domain block (a slot in ``per_slot_cp`` mode, the frame in
``cyclic`` mode), whose channel is periodic-banded (``channel.delay_band``),
then the link's analysis DFT and the map's adjoint.  A random draw's blocks
of B samples are solved by periodic block cyclic reduction in O(B K)
entries, K >= L - 1, without a dense Gram, where that is measured faster
(:func:`band_solver`); a fixed channel's filter, formed once, and the
other blocks take the dense Gram.  Gaussian spreading and ML read the body
samples through the same band's dense blocks (``channel.band_blocks``)
times the user map: :func:`mmse_filter` or :func:`ml_detect` of that.

:func:`band_filter`, :func:`mmse_filter` and :func:`mmse_dd` share one
singular-Gram rule (``_solve``): only a frame whose own Gram fails takes
the pseudo-inverse.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channel import EFFECTIVE_GUARD
from .errors import GuardError
from .metrics import Constellation

#: largest bit count (symbols * bits/symbol) ml_detect will enumerate
ML_GUARD_BITS = 16


def one_tap_tf(
    y_tf: np.ndarray, h_tf: np.ndarray, noise_var: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Scalar MMSE per grid cell: conj(H)*Y / (|H|^2 + noise_var).

    ``y_tf`` may be a stack of grids that share the response ``h_tf``
    (whose shape must end ``y_tf``'s).  ``noise_var`` is one variance, or
    one per grid of the stack's leading shape.  Where a grid's variance is
    0 this is zero-forcing and every cell gain it reads must be nonzero.
    ``out``, of ``y_tf``'s shape and memory order, may be ``y_tf`` itself.
    """
    y_tf = np.asarray(y_tf, dtype=np.complex128)
    h_tf = np.asarray(h_tf, dtype=np.complex128)
    if h_tf.ndim > y_tf.ndim or y_tf.shape[y_tf.ndim - h_tf.ndim:] != h_tf.shape:
        raise ValueError(f"grid shapes differ: {y_tf.shape} vs {h_tf.shape}")
    noise_var = np.asarray(noise_var, dtype=float)[..., None, None]  # one per grid
    if (noise_var < 0).any():
        raise ValueError(f"noise variance must be >= 0, got {noise_var.min()}")
    zero = noise_var == 0
    if zero.any() and np.any(zero & (h_tf == 0)):
        raise ZeroDivisionError("zero channel gain with zero noise variance")
    est = np.multiply(h_tf.conj(), y_tf, out=out)
    return np.divide(est, np.abs(h_tf) ** 2 + noise_var, out=est)


def mmse_filter(h_eff: np.ndarray, noise_var: float) -> np.ndarray:
    """The LMMSE matrix W = H^H (H H^H + noise_var I)^-1 (precomputable).

    ``h_eff`` may be a stack (..., rows, cols) of operators; each gets its
    own filter.  The Gram inverses are solved against the identity, and
    only an operator whose own Gram is singular takes the pseudo-inverse
    (see :func:`band_filter`).
    """
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    h_adj = h_eff.swapaxes(-1, -2).conj()
    gram = h_eff @ h_adj + noise_var * np.eye(h_eff.shape[-2])
    stack = gram.reshape(-1, *gram.shape[-2:])
    inv = _solve(stack, np.broadcast_to(np.eye(gram.shape[-1]), stack.shape))
    return h_adj @ inv.reshape(gram.shape)


def band_gram(band: np.ndarray, noise_var) -> np.ndarray:
    """The Gram A A^H + noise_var I of periodic-banded blocks: (..., blocks, B, B).

    ``noise_var`` is one variance, or one per frame of the leading shape.
    ``band`` (..., L, blocks, B), L <= B, holds the blocks' delay diagonals,
    A[p, (p - l) mod B] = band[..., l, b, p] (``channel.delay_band``).  Gram
    diagonal d, at (p, (p - d) mod B), sums band_l[p] * conj(band_m[p - d])
    over l - m = d: L^2 vectorised products, never a dense product.  In the
    flat Gram, rows p >= q = d mod B of the diagonal lie at q*B + p*(B + 1)
    and the wrapped rows p < q at B - q + p*(B + 1): two strided slices.
    """
    L, B = band.shape[-3], band.shape[-1]
    conj = band.conj()
    gram = np.zeros((*band.shape[:-3], band.shape[-2], B * B), dtype=np.complex128)
    gram[..., :: B + 1] = np.asarray(noise_var)[..., None, None]
    for d in range(1 - L, L):
        q, pairs = d % B, [(l, l - d) for l in range(max(0, d), L + min(0, d))]
        gram[..., q * B :: B + 1] += sum(
            band[..., l, :, q:] * conj[..., m, :, : B - q] for l, m in pairs
        )
        gram[..., B - q : q * B : B + 1] += sum(
            band[..., l, :, :q] * conj[..., m, :, B - q :] for l, m in pairs
        )
    return gram.reshape(*gram.shape[:-1], B, B)


def band_filter(band: np.ndarray, noise_var):
    """The LMMSE of periodic-banded blocks, y -> A^H (A A^H + noise_var I)^-1 y.

    The filter is ``equalize(y, out=None)``, ``out`` a C-contiguous array of
    y's shape.  A ``band`` (L, blocks, B) and one ``noise_var`` serve every frame
    of y (..., blocks, B): its filter W, A^H of the columns of the Gram inverse,
    is formed once and applied frame by frame, so a frame's estimate is the same
    in any stack.  A ``band`` (T, L, blocks, B) gives frame t of y (T, blocks, B)
    its own blocks and ``noise_var`` (one, or (T,) one per frame) its own
    variance, solved by periodic block cyclic reduction (:func:`_reduce`) in
    O(B * K) entries and no dense Gram, or by the dense Gram stack
    (:func:`_dense_solve`), as :func:`band_solver` picks.  A frame whose
    reduction is not finite is redone through the dense solve on its own,
    and only a frame whose own solve fails takes the pseudo-inverse.
    """
    B = band.shape[-1]
    if band.ndim == 3:
        inv = _solve(band_gram(band[None], noise_var), np.eye(B))[0]
        W = _band_adjoint(band, inv.transpose(2, 0, 1)).transpose(1, 2, 0)
        return lambda y, out=None: np.matmul(
            W, y[..., None], out=None if out is None else out[..., None])[..., 0]
    solve = band_solver(*band.shape[-3:])
    return lambda y, out=None: _band_adjoint(band, solve(band, y, noise_var), out)


def reduction_split(L: int, B: int) -> tuple:
    """(nb, K): the most block rows nb, a power of two, that leave K = B/nb >= max(1, L - 1)."""
    nb = B & -B  # the largest power of two dividing B
    while nb > 1 and B // nb < max(1, L - 1):
        nb //= 2
    return nb, B // nb


def reduction_entries(L: int, blocks: int, B: int) -> int:
    """Complex entries the cyclic reduction of one frame's band holds at its peak, at most.

    About 12 (K + 1) entries a sample for the block rows, their products,
    pivots and every level's eliminated rows, and 6 L for the band, its
    wrapped copy and the Gram diagonals (tracemalloc, K = 1 to 16, L = 1 to 17).
    """
    return blocks * B * (12 * (reduction_split(L, B)[1] + 1) + 6 * L)


def band_solver(L: int, blocks: int, B: int):
    """The solve of a band stack (T, L, blocks, B): :func:`_reduce_solve` or :func:`_dense_solve`.

    Cyclic reduction where B splits into nb >= min(4K, 32) block rows of K
    samples (:func:`reduction_split`), the measured point past which it
    beats the dense Gram solve (its cost a sample grows as K^2, the dense
    solve's as B^2).  A path whose frame would hold more than
    ``EFFECTIVE_GUARD**2`` entries (``blocks * B**2`` for the dense Gram,
    :func:`reduction_entries` for the reduction) gives way to the other,
    and a frame that neither fits is refused, before the band is built.
    """
    nb, K = reduction_split(L, B)
    limit, dense = EFFECTIVE_GUARD**2, blocks * B * B
    reduce = reduction_entries(L, blocks, B)
    if nb > 1 and reduce <= limit and (nb >= min(4 * K, 32) or dense > limit):
        return _reduce_solve
    if dense <= limit:
        return _dense_solve
    raise GuardError(
        f"band LMMSE of {blocks} blocks of {B} samples exceeds guard {limit}: dense Gram "
        f"{dense} entries, cyclic reduction working set {reduce if nb > 1 else 'none'}"
    )


def _dense_solve(band: np.ndarray, y: np.ndarray, noise_var) -> np.ndarray:
    """Gram^-1 y of a band stack (T, L, blocks, B) against y (T, blocks, B) by dense Grams,
    ``noise_var`` one variance or (T,) one per frame.

    The Grams of as many frames as fit ``EFFECTIVE_GUARD**2`` entries (one
    at least) are solved in one call (``_solve``'s rule).
    """
    per = max(1, EFFECTIVE_GUARD**2 // (band[0, 0].size * band.shape[-1]))
    noise_var = np.broadcast_to(noise_var, len(y))
    return np.concatenate([
        _solve(band_gram(band[a:a + per], noise_var[a:a + per]), y[a:a + per, ..., None])[..., 0]
        for a in range(0, len(y), per)
    ])


def _reduce_solve(band: np.ndarray, y: np.ndarray, noise_var) -> np.ndarray:
    """Gram^-1 y of a band stack by :func:`_reduce`, as many frames a call as fit
    ``EFFECTIVE_GUARD**2`` working entries; non-finite frames redone by :func:`_dense_solve`."""
    L, blocks, B = band.shape[-3:]
    per = max(1, EFFECTIVE_GUARD**2 // reduction_entries(L, blocks, B))
    noise_var = np.broadcast_to(noise_var, len(y))
    z = np.concatenate([_reduce(band[a:a + per], y[a:a + per], noise_var[a:a + per])
                        for a in range(0, len(y), per)])
    for t in np.flatnonzero(~np.isfinite(z).all(axis=(1, 2))):
        z[t] = _dense_solve(band[t:t + 1], y[t:t + 1], noise_var[t:t + 1])[0]
    return z


@lru_cache(maxsize=64)
def _bit_reversal(n: int) -> np.ndarray:
    """Position q of n = 2^k rows holds row rev(q), q's k bits reversed (an involution)."""
    q, r = np.arange(n), np.zeros(n, dtype=np.intp)
    for _ in range(n.bit_length() - 1):
        r, q = 2 * r + (q & 1), q >> 1
    return r


@lru_cache(maxsize=64)
def _neighbour(n: int, step: int) -> np.ndarray:
    """Positions, in bit-reversed order, of row rev(q) + step mod n."""
    rev = _bit_reversal(n)
    return rev[(rev + step) % n]


@lru_cache(maxsize=64)
def _block_index(L: int, B: int, K: int) -> np.ndarray:
    """Rows of [diagonals; y; 0] that fill the block rows (K, 3K + 1, B/K)
    = [D | Lo | Up | y], in bit-reversed order (``_bit_reversal``).

    Row i, entry (r, c) of D, Lo and Up is the Gram at (iK + r, (i + j)K + c)
    for j = 0, -1 and +1: diagonal d = r - c - jK, found at row (d + L - 1)B
    + iK + r of the 2L - 1 stacked diagonals, and a zero outside the band.
    """
    r, c, _ = np.ogrid[:K, :K, :1]
    p = _bit_reversal(B // K) * K + r
    S = (2 * L - 1) * B  # rows of the diagonals
    cols = []
    for j in (0, -1, 1):
        d = r - c - j * K
        cols.append(np.where(abs(d) < L, (d + L - 1) * B + p, S + B))
    return np.concatenate([*cols, S + p], axis=1)  # y last


def _reduce(band: np.ndarray, y: np.ndarray, noise_var: np.ndarray) -> np.ndarray:
    """Gram^-1 y of a band stack (T, L, blocks, B) by periodic block cyclic reduction,
    ``noise_var`` (T,) one variance per frame.

    Split into nb block rows of K samples (:func:`reduction_split`), the
    Gram is periodic block-tridiagonal: row i holds D_i, Lo_i (next to row
    i - 1) and Up_i (next to row i + 1).  Its 2L - 1 diagonals are L^2
    products of the band and the band with its ends wrapped, gathered into
    the blocks by one cached index table and the couplings then negated in
    place, [D | -Lo | -Up | y].  The block rows are held (K,
    3K + 1, nb, frames * blocks), the batch trailing, so every step is one
    elementwise call over the whole stack and a frame's result does not
    depend on the stack it is solved in.  No pivoting: every pivot block is
    a Schur complement of a Hermitian positive definite matrix; a singular
    Gram gives non-finite values, with numpy's warnings silenced.
    """
    T, L, blocks, B = band.shape
    nb, K = reduction_split(L, B)
    F = T * blocks
    bt = band.transpose(1, 3, 0, 2).reshape(L, B, F)
    ext = np.concatenate([bt[:, B - L + 1:], bt, bt[:, :L - 1]], axis=1).conj()
    S = (2 * L - 1) * B
    rows = np.zeros((S + B + 1, F), dtype=np.complex128)
    diag = rows[:S].reshape(2 * L - 1, B, F)
    for l in range(L):
        for m in range(L):
            d = l - m
            diag[d + L - 1] += bt[l] * ext[m, L - 1 - d : L - 1 - d + B]
    diag[L - 1] += np.repeat(noise_var, blocks)  # frame-major, as F
    rows[S:-1] = y.reshape(F, B).T
    # the band's copies and, once gathered, the rows are freed before the solve:
    # held through it, four frames' worth could push the heap past glibc's trim
    # threshold, to be faulted in again by the next chunk
    del bt, ext, diag
    G = rows[_block_index(L, B, K)]  # (K, 3K + 1, nb, F), rows bit-reversed
    del rows
    np.negative(G[:, K : 3 * K], out=G[:, K : 3 * K])
    with np.errstate(all="ignore"):
        x = _reduce_rows(G, K)[:, _bit_reversal(nb)]
    return x.transpose(2, 1, 0).reshape(T, blocks, B)


def _reduce_rows(G: np.ndarray, K: int) -> np.ndarray:
    """x (K, n, F) of the periodic block-tridiagonal rows G (K, 3K + 1, n, F) = [D | -Lo | -Up | y].

    Row i reads D_i x_i - (-Lo_i) x_(i-1) - (-Up_i) x_(i+1) = y_i, indices
    mod n, the rows held in bit-reversed order: the even rows are the first
    half, the odd ones the second, each in the bit-reversed order of the
    next level.  Each level solves the odd rows for x_odd = Z_y + Z_Lo
    x_prev + Z_Up x_next, Z = D^-1 [-Lo | -Up | y], and puts that into the
    even ones, halving n; two rows are solved as one 2K system.
    """
    n, F = G.shape[2:]
    if n == 2:  # one 2K system: rows 0 and 1 each couple to the other by Lo + Up
        C = G[:, K : 2 * K] + G[:, 2 * K : 3 * K]
        M = np.concatenate([
            np.concatenate([G[:, :K, 0], np.negative(C[:, :, 0]), G[:, 3 * K :, 0]], axis=1),
            np.concatenate([np.negative(C[:, :, 1]), G[:, :K, 1], G[:, 3 * K :, 1]], axis=1),
        ])
        return _gauss_jordan(M)[:, 0].reshape(2, K, F).transpose(1, 0, 2)
    h = n // 2
    even, odd = G[:, :, :h], G[:, :, h:]
    Z = _gauss_jordan(odd)  # in place: G's odd rows are not read again
    P = _mul(even[:, K : 2 * K], Z[:, :, _neighbour(h, -1)])
    Q = _mul(even[:, 2 * K : 3 * K], Z)
    D = even[:, :K] - P[:, K : 2 * K]
    D -= Q[:, :K]
    y = even[:, 3 * K :] + P[:, 2 * K :]
    y += Q[:, 2 * K :]
    xe = _reduce_rows(np.concatenate([D, P[:, :K], Q[:, K : 2 * K], y], axis=1), K)
    xo = _mul(Z[:, :K], xe[:, None])[:, 0]
    xo += _mul(Z[:, K : 2 * K], xe[:, None, _neighbour(h, 1)])[:, 0]
    xo += Z[:, 2 * K]
    return np.concatenate([xe, xo], axis=1)


def _gauss_jordan(M: np.ndarray) -> np.ndarray:
    """D^-1 R of M (K, K + m, ...) = [D | R], pivots in order, batch trailing: (K, m, ...).

    Each update spans every row, so no product is a lone element even for
    one frame: numpy may round a lone complex product apart from its vector
    kernel, and a frame's result would then depend on its stack.
    """
    K = M.shape[0]
    for k in range(K):
        row = M[k, k + 1:] / M[k, k]
        M[:, k + 1:] -= M[:, k, None] * row
        M[k, k + 1:] = row
    return M[:, K:]


def _mul(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A Z of blocks A (K, K, ...) and Z (K, m, ...), batch trailing, summed in order of k."""
    out = A[:, 0, None] * Z[0]
    for k in range(1, A.shape[1]):
        out += A[:, k, None] * Z[k]
    return out


def _band_adjoint(band: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A^H z of the band's blocks: sample p - l of a block takes conj(band_l[p]) * z[p],
    summed in ``out`` (z's shape and memory order) if given."""
    B = band.shape[-1]
    if out is None:
        out = np.zeros_like(z, dtype=np.complex128)  # in z's memory order
    else:
        out.fill(0)
    w = np.empty_like(out)  # one product held at a time
    for l in range(band.shape[-3]):
        np.multiply(band[..., l, :, :].conj(), z, out=w)
        out[..., : B - l] += w[..., l:]
        out[..., B - l :] += w[..., :l]
    return out


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs for a stack of frames on axis 0: (T, ..., B, B) against (T, ..., B, k)."""
    try:
        z = np.linalg.solve(gram, rhs)
        if np.all(np.isfinite(z)):
            return z
    except np.linalg.LinAlgError:
        pass
    if len(gram) > 1:  # redo frame by frame
        return np.concatenate([_solve(gram[t:t + 1], rhs[t:t + 1]) for t in range(len(gram))])
    return np.linalg.pinv(gram) @ rhs


def mmse_dd(y: np.ndarray, h_eff: np.ndarray, noise_var: float) -> np.ndarray:
    """Linear MMSE estimate x_hat = H^H (H H^H + noise_var I)^-1 y.

    For unit-energy i.i.d. symbols.  A singular Gram matrix (possible only
    at zero noise) takes the pseudo-inverse, as in :func:`band_filter`.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    if h_eff.ndim != 2 or h_eff.shape[0] != y.size:
        raise ValueError(f"operator shape {h_eff.shape} incompatible with y length {y.size}")
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    gram = h_eff @ h_eff.conj().T + noise_var * np.eye(h_eff.shape[0])
    return h_eff.conj().T @ _solve(gram[None], y[None, :, None])[0, :, 0]


def ml_detect(y: np.ndarray, h_eff: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Exhaustive maximum-likelihood detection over the full symbol grid.

    Minimises ||y - H c|| over every candidate c, formed with H c once per
    call, for each frame of y (..., rows); ties break to the lowest candidate
    index (candidates enumerated with the first symbol most significant).
    Refuses problems with more than ``ML_GUARD_BITS`` total bits.
    """
    y = np.asarray(y, dtype=np.complex128)
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    n = h_eff.shape[1]
    total_bits = n * constellation.bits_per_symbol
    if total_bits > ML_GUARD_BITS:
        raise GuardError(
            f"ML search over {total_bits} bits exceeds guard {ML_GUARD_BITS}"
        )
    Q = constellation.size
    grids = np.meshgrid(*([np.arange(Q)] * n), indexing="ij")
    idx = np.stack([g.reshape(-1) for g in grids], axis=1)  # (Q^n, n), lexicographic
    cands = constellation.points[idx]  # (Q^n, n)
    hc = (h_eff[None, :, :] @ cands[:, :, None])[:, :, 0]
    # argmin keeps the first (lowest) index on ties
    best = [np.argmin(np.sum(np.abs(v - hc) ** 2, axis=1)) for v in y.reshape(-1, y.shape[-1])]
    # a copy, not a view of the candidate table
    return constellation.points[idx[np.reshape(best, y.shape[:-1])]]
