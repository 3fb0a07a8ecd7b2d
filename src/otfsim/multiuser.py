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
(delay-Doppler mapped, general spread, direct orthogonal placement) and
:func:`downlink_split` is its exact adjoint, one block per user; both
place a mapped user through its cells (:func:`~otfsim.frame.user_cells`).
:func:`zf_precode` inverts a composed channel operator under a power
budget, and :func:`water_fill` allocates power across parallel
subchannels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, IllConditionedError
from .frame import MappingMatrix, check_orthogonal, grid_shape, user_cells
from .transforms import dft_matrix, isfft, sfft

#: zf_precode refuses operators with condition number above this
CONDITION_GUARD = 1e8


def vec_tf(x_tf: np.ndarray) -> np.ndarray:
    """Column-major vectorisation of an (M, N) time-frequency grid."""
    return np.asarray(x_tf).reshape(-1, order="F")


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
    frame DFT matrices: the one-user ``dd_mapped`` superposition.  A stack
    of blocks (..., N_D, M_d) gives a stack of grids.
    """
    return downlink_superpose([user_data], [(freq_map, time_map)], "dd_mapped")


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


# ---------------------------------------------------------------------------
# downlink
# ---------------------------------------------------------------------------

DOWNLINK_MODES = ("dd_mapped", "tf_spread", "tf_alloc")


def _check_downlink(users, mode: str):
    """Validate a downlink; returns the (N, M) grid of the mapped modes."""
    if mode not in DOWNLINK_MODES:
        raise ValueError(f"unknown downlink mode {mode!r}, expected one of {DOWNLINK_MODES}")
    if not users:
        raise ValueError("no users in the downlink")
    return None if mode == "tf_spread" else grid_shape(users)


def downlink_superpose(user_blocks, users, mode: str) -> np.ndarray:
    """Superpose all users' blocks into one (M, N) time-frequency grid.

    ``users`` holds one descriptor per block: (freq_map, time_map) pairs
    on one frame for modes ``dd_mapped`` and ``tf_alloc``,
    :class:`SpreadingPair` objects for ``tf_spread``.  ``dd_mapped`` and
    ``tf_alloc`` add every block into one (N, M) grid at its cells, so
    overlapping users add; ``dd_mapped`` then transforms the grid once,
    which by linearity is the sum of the users' :func:`uplink_map_dd`, and
    ``tf_alloc`` transposes it and requires non-overlapping allocations.
    ``tf_spread`` adds the users' spread grids into one.  Each user's
    block may be a stack (..., N_D, M_d) with the same leading axes for
    every user; the result is then a stack of grids.
    """
    shape = _check_downlink(users, mode)
    if len(user_blocks) != len(users):
        raise ValueError(f"{len(user_blocks)} blocks but {len(users)} user descriptors")
    if mode == "tf_spread":
        out = tf_spread(user_blocks[0], users[0])
        for block, pair in zip(user_blocks[1:], users[1:]):
            out += tf_spread(block, pair)
        return out
    if mode == "tf_alloc":
        check_orthogonal(users)
    blocks = [_check_block(block, *desc) for block, desc in zip(user_blocks, users)]
    lead = blocks[0].shape[:-2]
    # cell-major (one row per cell, one column per frame of the stack), so
    # that a user's cells select whole rows; made C-ordered again after, as
    # a single frame is, so a stack transforms to the bits of its frames
    grid = np.zeros((shape[0] * shape[1], math.prod(lead)), dtype=np.complex128)
    for block, (fmap, tmap) in zip(blocks, users):
        grid[user_cells(fmap, tmap)] += block.reshape(-1, fmap.size * tmap.size).T
    grid = np.ascontiguousarray(grid.T).reshape(*lead, *shape)
    return isfft(grid) if mode == "dd_mapped" else grid.swapaxes(-1, -2)


def downlink_split(y_tf: np.ndarray, users, mode: str) -> list:
    """Adjoint of :func:`downlink_superpose`: one (..., N_D, M_d) block per user.

    ``y_tf`` is one (M, N) time-frequency grid or a stack of them.  For
    the mapped modes the grid becomes an (N, M) grid (an SFFT for
    ``dd_mapped``, a transpose for ``tf_alloc``) from which each user's
    cells are gathered; ``tf_spread`` despreads each user's pair.
    """
    shape = _check_downlink(users, mode)
    y = np.asarray(y_tf, dtype=np.complex128)
    if mode == "tf_spread":
        return [despread_user(y, pair=pair) for pair in users]
    if y.shape[-2:] != shape[::-1]:
        raise ValueError(f"expected {shape[::-1]} grids, got {y.shape}")
    grid = sfft(y) if mode == "dd_mapped" else y.swapaxes(-1, -2)
    flat = grid.reshape(*grid.shape[:-2], -1)
    return [
        flat[..., user_cells(fmap, tmap)].reshape(*flat.shape[:-1], tmap.size, fmap.size)
        for fmap, tmap in users
    ]


def despread_user(
    y_tf: np.ndarray,
    freq_map: MappingMatrix | None = None,
    time_map: MappingMatrix | None = None,
    domain: str = "dd",
    pair: SpreadingPair | None = None,
) -> np.ndarray:
    """Adjoint of one user's spreading/mapping, applied to an observation.

    Exactly one addressing style must be supplied:

    * ``freq_map``/``time_map`` with ``domain="dd"`` — adjoint of
      :func:`uplink_map_dd` (the one-user :func:`downlink_split`); with
      ``domain="tf"`` — adjoint of :func:`uplink_map_tf`.  Returns an
      (N_D, M_d) block.
    * ``pair`` — adjoint of :func:`tf_spread`; a stack of grids
      (..., M, N) gives a stack of blocks.

    For orthogonal (unitary-column) spreading this inverts the noiseless
    map and leaves white noise white.
    """
    if (freq_map is None) == (pair is None):
        raise ValueError("supply exactly one of (freq_map/time_map), pair")
    y = np.asarray(y_tf, dtype=np.complex128)
    if pair is not None:
        return (pair.S_A.conj().T @ y @ pair.S_B.conj()).swapaxes(-1, -2)
    if time_map is None:
        raise ValueError("time_map required with freq_map")
    if domain == "dd":
        return downlink_split(y, [(freq_map, time_map)], "dd_mapped")[0]
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
    p_i = max(0, mu - f_i) with floors f_i = noise_var / g_i.  The level is
    exact, not searched: with the floors sorted ascending, the k active
    subchannels are the prefixes whose level (P + sum of their floors) / j
    lies above their last floor (at least one), and mu is P/k plus the mean
    of the k lowest floors (Palomar & Fonollosa, IEEE TSP 53(2), 2005).
    Each p_i is formed as P/k + (mean - f_i), so a budget far below the
    floors still goes wholly to the strongest subchannel.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a nonempty 1-D array")
    if np.any(gains <= 0):
        raise ValueError("gains must be positive")
    if total_power < 0 or noise_var <= 0:
        raise ValueError("need total_power >= 0 and noise_var > 0")
    floors = noise_var / gains
    ranked = np.sort(floors)
    levels = (total_power + np.cumsum(ranked)) / np.arange(1, ranked.size + 1)
    k = max(1, int(np.count_nonzero(levels > ranked)))
    return np.maximum(0.0, total_power / k + (ranked[:k].mean() - floors))
