"""Capacity regions, bit-level relaying schedules and constant-gap power
allocations for multi-pair bidirectional relay networks."""

from types import ModuleType as _ModuleType

from .cutset import (
    Cut,
    CutViolation,
    Membership,
    RegionSizeError,
    enumerate_cuts,
    enumerate_integral_region,
    in_det_cutset,
)
from .detnet import (
    FULL_DUPLEX,
    DetNetwork,
    DuplexMode,
    FullDuplex,
    HalfDuplex,
    InvalidGainError,
    ShapeError,
    node_downlink_receive,
    relay_uplink_receive,
    shifted_contribution,
)
from .gaussian import (
    AchievabilityReport,
    AllocationInvalidError,
    DownlinkAllocation,
    GaussNetwork,
    InfeasibleRatesError,
    LowPowerError,
    NormalizedProblem,
    SweepColumns,
    SweepConfig,
    UplinkAllocation,
    restricted_bound_gaps,
    downlink_allocate,
    downlink_rate_check,
    gauss_cutset,
    gauss_restricted_cutset,
    monte_carlo_gap,
    reduce_orderings,
    uplink_allocate,
    uplink_rate_check,
    verify_constant_gap,
)
from .scheduler import (
    InductionInvariantError,
    LevelAssignment,
    NotInRegionError,
    Schedule,
    ScheduleInvalidError,
    SimulationResult,
    chunk_schedule,
    divide_and_conquer,
    random_messages,
    schedule_fractional,
    schedule_half_duplex,
    simulate_schedule,
    validate_schedule,
)

# The public names, not the submodules the imports above bind.
__all__ = [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]
