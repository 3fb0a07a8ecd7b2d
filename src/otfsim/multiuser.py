"""Multiuser multiplexing on the frame: uplink maps, spreading, downlink.

Uplink, user data block ``x`` of shape (N_D, M_d) (Doppler/time rows,
delay/frequency columns):

* :func:`uplink_map_tf` — transform the small block, then place it on the
  user's subcarrier and slot sets (localized maps generalise LFDMA,
  interleaved maps IFDMA).
* :func:`uplink_map_dd` — place the block on the full delay-Doppler grid
  first, then apply the full-frame lattice transform; identical to
  spreading with the user's selected DFT columns.
* :func:`tf_spread` — general spreading X = S_A @ x.T @ S_B.T with
  arbitrary unit-norm-column spreading matrices;
  :func:`dft_spreading_pair` reproduces :func:`uplink_map_dd`, and
  :func:`kron_spreader` flattens any pair to a single (M*N, M_d*N_D)
  matrix acting on vectorised blocks.

Vectorisation conventions: time-frequency grids vectorise column-major
(``vec_tf``), delay-Doppler grids row-major over (doppler, delay)
(``vec_dd``) — the two coincide through the transpose that relates the
grids, so the Kronecker identities hold exactly.

Downlink: :func:`downlink_superpose` sums per-user blocks in three modes
(delay-Doppler mapped, general spread, direct orthogonal placement with
per-user power weights), :func:`zf_precode` inverts a composed channel
operator under a power budget, and :func:`water_fill` allocates power
across parallel subchannels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, IllConditionedError
from .frame import MappingMatrix, check_orthogonal
from .transforms import dft_matrix, isfft, sfft

#: zf_precode refuses operators with condition number above this
CONDITION_GUARD = 1e8


def vec_tf(x_tf: np.ndarray) -> np.ndarray:
    """Column-major vectorisation of an (M, N) time-frequency grid."""
    return np.asarray(x_tf).reshape(-1, order="F")


def unvec_tf(v: np.ndarray, M: int, N: int) -> np.ndarray:
    return np.asarray(v).reshape(M, N, order="F")


def vec_dd(x_dd: np.ndarray) -> np.ndarray:
    """Row-major vectorisation of an (N, M) delay-Doppler grid."""
    return np.asarray(x_dd).reshape(-1)


# ---------------------------------------------------------------------------
# uplink maps
# ---------------------------------------------------------------------------


def _check_block(user_data: np.ndarray, freq_map: MappingMatrix, time_map: MappingMatrix):
    user_data = np.asarray(user_data, dtype=np.complex128)
    if user_data.shape[-2:] != (time_map.size, freq_map.size):
        raise ValueError(
            f"user block must be (N_D={time_map.size}, M_d={freq_map.size}), "
            f"got {user_data.shape}"
        )
    return user_data


def uplink_map_tf(
    user_data: np.ndarray, freq_map: MappingMatrix, time_map: MappingMatrix
) -> np.ndarray:
    """Small-block lattice transform, then placement on the (M, N) grid."""
    user_data = _check_block(user_data, freq_map, time_map)
    out = np.zeros((freq_map.ambient, time_map.ambient), dtype=np.complex128)
    out[np.ix_(list(freq_map.selected), list(time_map.selected))] = isfft(user_data)
    return out


def uplink_map_dd(
    user_data: np.ndarray, freq_map: MappingMatrix, time_map: MappingMatrix
) -> np.ndarray:
    """Placement on the full delay-Doppler grid, then the full transform.

    Equals spreading the block with the user's selected columns of the
    frame DFT matrices.  A stack of blocks (..., N_D, M_d) gives a stack
    of grids.
    """
    user_data = _check_block(user_data, freq_map, time_map)
    grid = np.zeros(
        (*user_data.shape[:-2], time_map.ambient, freq_map.ambient), dtype=np.complex128
    )
    grid[(..., *np.ix_(time_map.selected, freq_map.selected))] = user_data
    return isfft(grid)


# ---------------------------------------------------------------------------
# general spreading
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpreadingPair:
    """Frequency-side and time-side spreading matrices (unit-norm columns)."""

    S_A: np.ndarray
    S_B: np.ndarray

    def __post_init__(self):
        S_A = np.asarray(self.S_A, dtype=np.complex128)
        S_B = np.asarray(self.S_B, dtype=np.complex128)
        object.__setattr__(self, "S_A", S_A)
        object.__setattr__(self, "S_B", S_B)
        for name, S in (("S_A", S_A), ("S_B", S_B)):
            if S.ndim != 2:
                raise ValueError(f"{name} must be 2-D")
            norms = np.linalg.norm(S, axis=0)
            if not np.allclose(norms, 1.0, atol=1e-9):
                raise ValueError(f"{name} columns must have unit norm")


def dft_spreading_pair(
    freq_map: MappingMatrix, time_map: MappingMatrix
) -> SpreadingPair:
    """The DFT-column spreading pair reproducing :func:`uplink_map_dd`."""
    F_M = dft_matrix(freq_map.ambient)
    F_N = dft_matrix(time_map.ambient)
    S_A = F_M[:, list(freq_map.selected)]
    S_B = F_N.conj()[:, list(time_map.selected)]
    return SpreadingPair(S_A=S_A, S_B=S_B)


def tf_spread(user_data: np.ndarray, pair: SpreadingPair) -> np.ndarray:
    """General two-sided spreading X = S_A @ x.T @ S_B.T (per block of a stack)."""
    user_data = np.asarray(user_data, dtype=np.complex128)
    N_D, M_d = pair.S_B.shape[1], pair.S_A.shape[1]
    if user_data.shape[-2:] != (N_D, M_d):
        raise ValueError(f"user block must be ({N_D}, {M_d}), got {user_data.shape}")
    return pair.S_A @ user_data.swapaxes(-1, -2) @ pair.S_B.T


def kron_spreader(pair: SpreadingPair) -> np.ndarray:
    """Single-matrix form S = S_B kron S_A, acting on vectorised blocks.

    Satisfies ``S @ vec_dd(x) == vec_tf(tf_spread(x, pair))`` (the
    delay-Doppler row-major vec of x equals the column-major vec of x.T).
    """
    return np.kron(pair.S_B, pair.S_A)


def spread_vec(data_vec: np.ndarray, spreader: np.ndarray) -> np.ndarray:
    """Apply a flattened spreader to a vectorised block."""
    data_vec = np.asarray(data_vec, dtype=np.complex128).reshape(-1)
    spreader = np.asarray(spreader, dtype=np.complex128)
    if spreader.shape[1] != data_vec.size:
        raise ValueError(
            f"spreader expects {spreader.shape[1]} symbols, got {data_vec.size}"
        )
    return spreader @ data_vec


# ---------------------------------------------------------------------------
# downlink
# ---------------------------------------------------------------------------

DOWNLINK_MODES = ("dd_mapped", "tf_spread", "tf_alloc")


def _scale_block(x: np.ndarray, beta, beta_on_symbols: bool) -> np.ndarray:
    """Apply per-user power weights to an (N_D, M_d) block, or a stack of them.

    ``beta`` of shape (N_D,) is the diagonal right-factor acting on the
    block's time/Doppler rows; with ``beta_on_symbols`` a full (N_D, M_d)
    array scales each symbol individually.  For a stack of blocks, beta
    may carry the stack's leading axes too: one weight set per block.
    """
    if beta is None:
        return x
    beta = np.asarray(beta, dtype=float)
    if beta_on_symbols:
        if beta.shape[-2:] != x.shape[-2:]:
            raise ValueError(f"per-symbol beta must have shape {x.shape}, got {beta.shape}")
        return x * beta
    if beta.shape[-1:] != x.shape[-2:-1]:
        raise ValueError(f"beta must have shape ({x.shape[-2]},), got {beta.shape}")
    return x * beta[..., None]


def downlink_superpose(
    user_blocks,
    users,
    mode: str,
    beta=None,
    beta_on_symbols: bool = False,
) -> np.ndarray:
    """Superpose all users' blocks into one (M, N) time-frequency grid.

    ``users`` holds one descriptor per block: (freq_map, time_map) pairs
    for modes ``dd_mapped`` and ``tf_alloc``, :class:`SpreadingPair`
    objects for ``tf_spread``.  ``beta`` is an optional list of per-user
    power weights (see :func:`_scale_block`).  ``dd_mapped`` places every
    block on one delay-Doppler grid and transforms it once, which by
    linearity is the sum of the users' :func:`uplink_map_dd`.  ``tf_alloc``
    places blocks directly on the grid and therefore requires
    non-overlapping allocations.  Each user's block may be a stack (..., N_D, M_d) with
    the same leading axes for every user; the result is then a stack of
    grids.
    """
    if mode not in DOWNLINK_MODES:
        raise ValueError(f"unknown downlink mode {mode!r}, expected one of {DOWNLINK_MODES}")
    if len(user_blocks) != len(users):
        raise ValueError(f"{len(user_blocks)} blocks but {len(users)} user descriptors")
    if beta is not None and len(beta) != len(users):
        raise ValueError(f"{len(beta)} beta entries but {len(users)} users")

    if mode == "tf_alloc":
        check_orthogonal(users)

    out = None
    for u, (block, desc) in enumerate(zip(user_blocks, users)):
        b = None if beta is None else beta[u]
        if mode == "tf_spread":
            pair = desc
            x = _scale_block(
                np.asarray(block, dtype=np.complex128), b, beta_on_symbols
            )
            contrib = tf_spread(x, pair)
        else:
            fmap, tmap = desc
            x = _scale_block(_check_block(block, fmap, tmap), b, beta_on_symbols)
            if mode == "dd_mapped":
                # place on the delay-Doppler grid; one transform after the loop
                contrib = np.zeros(
                    (*x.shape[:-2], tmap.ambient, fmap.ambient), dtype=np.complex128
                )
                contrib[(..., *np.ix_(tmap.selected, fmap.selected))] = x
            else:  # tf_alloc
                contrib = np.zeros(
                    (*x.shape[:-2], fmap.ambient, tmap.ambient), dtype=np.complex128
                )
                contrib[(..., *np.ix_(fmap.selected, tmap.selected))] = x.swapaxes(-1, -2)
        out = contrib if out is None else out + contrib
    if out is None:
        raise ValueError("no users to superpose")
    return isfft(out) if mode == "dd_mapped" else out


def despread_user(
    y_tf: np.ndarray,
    freq_map: MappingMatrix | None = None,
    time_map: MappingMatrix | None = None,
    domain: str = "dd",
    pair: SpreadingPair | None = None,
    spreader: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of one user's spreading/mapping, applied to an observation.

    Exactly one addressing style must be supplied:

    * ``freq_map``/``time_map`` with ``domain="dd"`` — adjoint of
      :func:`uplink_map_dd`; with ``domain="tf"`` — adjoint of
      :func:`uplink_map_tf`.  Returns an (N_D, M_d) block.
    * ``pair`` — adjoint of :func:`tf_spread`; a stack of grids
      (..., M, N) gives a stack of blocks.
    * ``spreader`` — adjoint of a flattened spreader on a vectorised
      observation; returns a vector.

    For orthogonal (unitary-column) spreading this inverts the noiseless
    map and leaves white noise white.
    """
    styles = sum([freq_map is not None, pair is not None, spreader is not None])
    if styles != 1:
        raise ValueError("supply exactly one of (freq_map/time_map), pair, spreader")
    if spreader is not None:
        y = np.asarray(y_tf, dtype=np.complex128).reshape(-1)
        return np.asarray(spreader, dtype=np.complex128).conj().T @ y
    y = np.asarray(y_tf, dtype=np.complex128)
    if pair is not None:
        return (pair.S_A.conj().T @ y @ pair.S_B.conj()).swapaxes(-1, -2)
    if time_map is None:
        raise ValueError("time_map required with freq_map")
    if domain == "dd":
        return sfft(y)[np.ix_(list(time_map.selected), list(freq_map.selected))]
    if domain == "tf":
        small = y[np.ix_(list(freq_map.selected), list(time_map.selected))]
        return sfft(small)
    raise ValueError(f"unknown despreading domain {domain!r}")


# ---------------------------------------------------------------------------
# precoding and power allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PrecodeSet:
    """Zero-forcing precoder: transmit P @ x, receive beta-scaled symbols."""

    P: np.ndarray
    beta: np.ndarray
    user_partition: tuple
    condition_number: float


def zf_precode(h_eff: np.ndarray, user_partition, power_budget: float) -> PrecodeSet:
    """Invert a composed channel operator under a total power budget.

    P = beta * inv(H); the scalar beta is chosen so the expected transmit
    power for unit-energy i.i.d. symbols (= ||P||_F^2) equals
    ``power_budget``.  Receiving through H then yields beta * x — zero
    multiuser interference for any partition of the symbol indices.
    Refuses operators with condition number above ``CONDITION_GUARD``.
    """
    h_eff = np.asarray(h_eff, dtype=np.complex128)
    if h_eff.ndim != 2 or h_eff.shape[0] != h_eff.shape[1]:
        raise ValueError(f"expected square operator, got shape {h_eff.shape}")
    if power_budget <= 0:
        raise ValueError(f"power budget must be positive, got {power_budget}")
    n = h_eff.shape[0]
    partition = tuple(tuple(int(i) for i in grp) for grp in user_partition)
    flat = [i for grp in partition for i in grp]
    if len(set(flat)) != len(flat):
        raise AllocationError("user partition repeats symbol indices")
    if flat and (min(flat) < 0 or max(flat) >= n):
        raise AllocationError(f"partition indices out of range for dimension {n}")
    cond = float(np.linalg.cond(h_eff))
    if not np.isfinite(cond) or cond > CONDITION_GUARD:
        raise IllConditionedError(
            f"operator condition number {cond:.3e} exceeds guard {CONDITION_GUARD:.1e}; "
            "zero-forcing would amplify noise unboundedly"
        )
    P_raw = np.linalg.inv(h_eff)
    scale = float(np.sqrt(power_budget) / np.linalg.norm(P_raw, "fro"))
    return PrecodeSet(
        P=P_raw * scale,
        beta=np.full(n, scale),
        user_partition=partition,
        condition_number=cond,
    )


def water_fill(gains: np.ndarray, total_power: float, noise_var: float) -> np.ndarray:
    """Water-filling power allocation over parallel subchannels.

    Maximises sum log(1 + g_i p_i / noise_var) subject to sum p_i = P:
    p_i = max(0, mu - noise_var/g_i) with the level mu found by bisection
    to |sum p_i - P| <= 1e-10.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a nonempty 1-D array")
    if np.any(gains <= 0):
        raise ValueError("gains must be positive")
    if total_power < 0 or noise_var <= 0:
        raise ValueError("need total_power >= 0 and noise_var > 0")
    if total_power == 0:
        return np.zeros_like(gains)
    floors = noise_var / gains

    def allocated(mu):
        return np.maximum(0.0, mu - floors)

    lo, hi = floors.min(), floors.max() + total_power
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if allocated(mid).sum() > total_power:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    mu = 0.5 * (lo + hi)
    p = allocated(mu)
    excess = p.sum() - total_power
    if abs(excess) > 1e-10:
        # distribute the residual over the active set (exact closure)
        active = p > 0
        p[active] -= excess / active.sum()
        p = np.maximum(p, 0.0)
    return p
