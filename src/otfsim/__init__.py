"""otfsim: delay-Doppler (OTFS) baseband simulation library.

Grids, unitary lattice transforms, doubly-selective channels with
analytic operator views, four waveform schemes, equalization, multiuser
multiplexing, and a deterministic Monte-Carlo runner with a CLI.
"""

from .channel import (
    ChannelTap,
    DDChannelSpec,
    apply_channel,
    dd_domain_operator,
    random_channel,
    received_power,
    slot_operators,
    tf_channel,
    windowed_dd_channel,
)
from .equalizer import ml_detect, mmse_dd, mmse_filter, one_tap_tf
from .errors import AllocationError, ConfigError, GuardError, IllConditionedError
from .frame import (
    FrameParams,
    MappingMatrix,
    TimeSignal,
    UserAllocation,
    interleaved_allocation,
    interleaved_map,
    localized_allocation,
    localized_map,
    make_frame,
)
from .metrics import (
    Constellation,
    LinkResult,
    count_errors,
    get_constellation,
    map_bits,
    papr,
    papr_samples,
    slice_symbols,
)
from .modem import SchemeConfig, demodulate, modulate, payload_shape
from .multiuser import (
    PrecodeSet,
    SpreadingPair,
    despread_user,
    dft_spreading_pair,
    downlink_split,
    downlink_superpose,
    kron_spreader,
    tf_spread,
    uplink_map_dd,
    uplink_map_tf,
    vec_dd,
    vec_tf,
    water_fill,
    zf_precode,
)
from .oracles import coupling_tensor, effective_matrix, tf_channel_factored
from .runner import Scenario, load_scenario, run, scenario_from_dict
from .transforms import (
    ambiguity,
    basis_waveform,
    dft_matrix,
    heisenberg,
    isfft,
    sfft,
    wigner,
)

__version__ = "0.1.0"
