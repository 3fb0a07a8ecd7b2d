"""Frame geometry: grid dimensions, resolutions, time signals and index maps.

A frame is an M x N time-frequency lattice (M subcarriers spaced delta_f,
N slots of duration T = 1/delta_f) carrying M*N degrees of freedom.  The
same frame viewed on the delay-Doppler lattice is an N x M grid whose
rows are Doppler bins (resolution 1/(N*T)) and whose columns are delay
bins (resolution 1/(M*delta_f)).

Array conventions used throughout the library:

* delay-Doppler grid  ``x_dd``: shape (N, M), ``x_dd[doppler_bin, delay_bin]``
* time-frequency grid ``x_tf``: shape (M, N), ``x_tf[subcarrier, slot]``
* time signal: one block of N slots, each slot = cp_len prefix samples +
  M body samples at critical sampling rate M*delta_f.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AllocationError


@dataclass(frozen=True)
class FrameParams:
    """Dimensions and spacing of one transmission block."""

    M: int
    N: int
    delta_f: float = 15e3

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError(f"grid dims must be >= 1, got M={self.M} N={self.N}")
        if self.delta_f <= 0:
            raise ValueError(f"subcarrier spacing must be positive, got {self.delta_f}")

    @property
    def T(self) -> float:
        """Slot duration in seconds."""
        return 1.0 / self.delta_f

    @property
    def bandwidth(self) -> float:
        return self.M * self.delta_f

    @property
    def block_duration(self) -> float:
        return self.N * self.T

    @property
    def delay_resolution(self) -> float:
        """Delay bin width, 1/(M*delta_f) seconds."""
        return 1.0 / (self.M * self.delta_f)

    @property
    def doppler_resolution(self) -> float:
        """Doppler bin width, 1/(N*T) Hz."""
        return 1.0 / (self.N * self.T)

    @property
    def dof(self) -> int:
        """Complex degrees of freedom per block."""
        return self.M * self.N


def make_frame(M: int, N: int, delta_f: float = 15e3) -> FrameParams:
    """Validate and build FrameParams; M and N must be integers (Python or numpy)."""
    try:
        M, N = operator.index(M), operator.index(N)
    except TypeError:
        raise ValueError(f"grid dims must be integers, got M={M!r} N={N!r}") from None
    return FrameParams(M=M, N=N, delta_f=float(delta_f))


@dataclass(frozen=True)
class TimeSignal:
    """One block of baseband samples at critical sampling, or a stack of them.

    The last axis of ``samples`` holds ``num_slots`` slots of ``cp_len + M``
    samples each; leading axes, if any, index frames of the same geometry.
    The body (post-prefix) samples are the information-bearing part: every
    reader of them starts from the one view :attr:`slot_bodies`.
    """

    samples: np.ndarray
    cp_len: int
    sample_rate: float
    num_slots: int

    def __post_init__(self):
        if self.samples.ndim < 1:
            raise ValueError("TimeSignal.samples must have a sample axis")
        if self.cp_len < 0:
            raise ValueError("cp_len must be >= 0")
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if self.samples.shape[-1] % self.num_slots != 0:
            raise ValueError(
                f"sample count {self.samples.shape[-1]} not divisible by "
                f"num_slots {self.num_slots}"
            )
        if self.slot_len <= self.cp_len:
            raise ValueError("slot shorter than its cyclic prefix")

    @property
    def slot_len(self) -> int:
        return self.samples.shape[-1] // self.num_slots

    @property
    def body_len(self) -> int:
        """Body samples per slot (slot minus prefix)."""
        return self.slot_len - self.cp_len

    @property
    def slot_bodies(self) -> np.ndarray:
        """Each frame's slot bodies, (..., num_slots, body_len): a view of the
        samples that skips every prefix."""
        slots = self.samples.reshape(*self.samples.shape[:-1], self.num_slots, self.slot_len)
        return slots[..., self.cp_len:]

    @property
    def body(self) -> np.ndarray:
        """Each frame's body samples, prefixes stripped, concatenated in time order:
        :attr:`slot_bodies` flattened, a copy where there are prefixes to skip."""
        return self.slot_bodies.reshape(*self.samples.shape[:-1], -1)


@dataclass(frozen=True)
class MappingMatrix:
    """A resource-mapping matrix: ``size`` columns of the ``ambient``-dim identity.

    Stored as the tuple of selected indices; ``dense()`` materialises the
    (ambient x size) 0/1 matrix for algebraic checks.  Applying the map
    embeds a small vector into the ambient space; its transpose selects
    the mapped entries back out.
    """

    ambient: int
    selected: tuple

    def __post_init__(self):
        sel = tuple(int(i) for i in self.selected)
        object.__setattr__(self, "selected", sel)
        if len(sel) == 0:
            raise AllocationError("mapping selects no indices")
        if len(set(sel)) != len(sel):
            raise AllocationError(f"mapping indices repeat: {sel}")
        if min(sel) < 0 or max(sel) >= self.ambient:
            raise AllocationError(
                f"mapping indices {sel} out of range for ambient dim {self.ambient}"
            )

    @property
    def size(self) -> int:
        return len(self.selected)

    def dense(self) -> np.ndarray:
        """The (ambient x size) matrix whose i-th column is e_{selected[i]}."""
        P = np.zeros((self.ambient, self.size))
        P[list(self.selected), np.arange(self.size)] = 1.0
        return P


def _tiling(ambient: int, block: int, user: int) -> int:
    """The number of users whose ``block``-sized blocks tile ``ambient`` exactly,
    ``user`` among them, else AllocationError."""
    if block < 1 or ambient % block != 0:
        raise AllocationError(f"block size {block} does not tile ambient dim {ambient}")
    num_users = ambient // block
    if not 0 <= user < num_users:
        raise AllocationError(f"user {user} out of range for {num_users} users")
    return num_users


def localized_map(ambient: int, block: int, user: int) -> MappingMatrix:
    """Contiguous allocation: user k gets indices k*block ... k*block+block-1."""
    _tiling(ambient, block, user)
    return MappingMatrix(ambient, tuple(range(user * block, (user + 1) * block)))


def interleaved_map(ambient: int, block: int, user: int) -> MappingMatrix:
    """Comb allocation: user k gets indices k, k+K, k+2K, ... with K = ambient/block."""
    num_users = _tiling(ambient, block, user)
    return MappingMatrix(ambient, tuple(user + i * num_users for i in range(block)))


@lru_cache(maxsize=1024)
def user_cells(fmap: MappingMatrix, tmap: MappingMatrix) -> np.ndarray:
    """A user's flat cells ``t * M + f`` on the (N, M) grid, in its block's row-major order.

    Entry j of the user's flattened (N_D, M_d) block sits at time/Doppler
    index ``tmap.selected[j // M_d]`` and frequency/delay index
    ``fmap.selected[j % M_d]``.  The maps are frozen, so each pair's index
    is built once; it is read-only.
    """
    cells = (np.array(tmap.selected)[:, None] * fmap.ambient + np.array(fmap.selected)).reshape(-1)
    cells.setflags(write=False)
    return cells


def grid_shape(users) -> tuple:
    """The (N, M) grid that every (frequency map, time map) pair of ``users`` addresses.

    Refuses pairs drawn on different frames: their cells ``t * M + f``
    would name other resources.
    """
    shapes = sorted({(tmap.ambient, fmap.ambient) for fmap, tmap in users})
    if len(shapes) != 1:
        raise AllocationError(f"users on different frames: {shapes}")
    return shapes[0]


def check_orthogonal(users) -> None:
    """Refuse (frequency map, time map) pairs that claim a (freq, time) resource twice.

    One count over the M*N cells answers the usual no-overlap case; cells
    are listed user by user in block order (:func:`user_cells`), and the
    first repeat in that order is reported.  All pairs must share
    one frame (:func:`grid_shape`).
    """
    N, M = grid_shape(users)
    cells = np.concatenate([user_cells(fmap, tmap) for fmap, tmap in users])
    if np.bincount(cells, minlength=N * M).max() < 2:
        return
    _, first = np.unique(cells, return_index=True)
    repeat = np.ones(cells.size, dtype=bool)
    repeat[first] = False
    t, f = divmod(int(cells[np.argmax(repeat)]), M)
    raise AllocationError(f"resource {(f, t)} allocated twice")


@dataclass(frozen=True)
class UserAllocation:
    """Orthogonal partition of the frame among K_d x K_D users.

    ``users[k]`` is a (frequency map, time map) pair; frequency maps
    partition the M subcarrier/delay indices into K_d blocks of
    M_d = M/K_d, time maps partition the N slots into K_D blocks of
    N_D = N/K_D.  Exact tiling is required.
    """

    K_d: int
    K_D: int
    users: tuple = field(default=())

    def __post_init__(self):
        if not self.users:
            raise AllocationError("allocation has no users")
        check_orthogonal(self.users)

    @property
    def num_users(self) -> int:
        return len(self.users)


def _tiled_alloc(params: FrameParams, K_d: int, K_D: int, map_fn) -> UserAllocation:
    if K_d < 1 or params.M % K_d != 0:
        raise AllocationError(f"K_d={K_d} gives no exact tiling of M={params.M}")
    if K_D < 1 or params.N % K_D != 0:
        raise AllocationError(f"K_D={K_D} gives no exact tiling of N={params.N}")
    M_d = params.M // K_d
    N_D = params.N // K_D
    users = tuple(
        (map_fn(params.M, M_d, kf), map_fn(params.N, N_D, kt))
        for kf in range(K_d)
        for kt in range(K_D)
    )
    return UserAllocation(K_d=K_d, K_D=K_D, users=users)


def localized_allocation(params: FrameParams, K_d: int, K_D: int) -> UserAllocation:
    """All K_d*K_D users with contiguous frequency and time blocks."""
    return _tiled_alloc(params, K_d, K_D, localized_map)


def interleaved_allocation(params: FrameParams, K_d: int, K_D: int) -> UserAllocation:
    """All K_d*K_D users with comb-interleaved frequency and time blocks."""
    return _tiled_alloc(params, K_d, K_D, interleaved_map)
