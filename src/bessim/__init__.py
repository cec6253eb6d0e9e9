"""bessim: battery energy storage peak-shaving simulator.

Per-component loss models, a discrete-time plant simulation with an exact
energy ledger, cycle-based charge/discharge scheduling with reference
correction, swarm-optimized cluster power allocation and statistical
post-processing, plus a CLI (`bessim`).
"""

__version__ = "0.1.0"

from .errors import (
    BessimError,
    ConfigError,
    DomainError,
    EmptyPlanError,
    InfeasiblePowerError,
    IngestionError,
    NoCapacityError,
)
from .losses import (
    CellParams,
    OcvCoeffs,
    PcsEfficiencyCoeffs,
    RcState,
    TransformerParams,
    open_circuit_voltage,
    pcs_efficiency,
    step_polarization,
    steady_state_loss,
    total_battery_loss,
    transformer_loss,
    transient_loss,
)
from .plant import (
    ClusterParams,
    LossBreakdown,
    Plant,
    PlantConfig,
    uniform_plant_config,
)
from .scheduler import (
    Interval,
    LoadProfile,
    ShavingCycle,
    ShavingMetrics,
    ShavingPlan,
    compute_metrics,
    correct_references_improved,
    correct_references_original,
    demand_power,
    depth_references,
    replay_plan,
    segment_cycles,
    segment_intervals,
)
from .allocator import (
    PsoParams,
    balanced_allocation,
    fitness,
    grid_search_allocation,
    pso_allocate,
    repair,
)
from .profiles import SynthLoadSpec, load_profile_from_csv, load_profile_to_csv, synth_load
from .simulate import SimulationResult, plan_horizon, run_simulation
from .analysis import (
    BoxStats,
    DepthSweepReport,
    EfficiencyScatter,
    box_stats,
    component_ledger_report,
    depth_sweep,
    efficiency_scatter,
)
from .config import RunConfig, load_config, parse_config
