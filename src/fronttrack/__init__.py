"""Exact front tracking for scalar conservation laws.

Simulates u_t + F(u)_x = 0 for a grid-sampled flux with exact rational
arithmetic, traces every wave from birth to cancellation, and verifies the
interaction-potential inequalities (weight bounds, drop estimates, and the
forward-in-time restart property) with zero tolerance on every run.
"""

from .envelope import (
    GridFlux,
    PiecewiseLinearFn,
    curvature_constant,
    rh_speed,
    sample_flux,
)
from .diagram import render_front_diagram, render_potential_plot
from .errors import (
    ConsistencyError,
    DomainError,
    InputError,
    TrackerError,
    VerificationError,
)
from .harness import (
    RunConfig,
    RunResult,
    SweepConfig,
    l1_distance,
    parse_run_config,
    parse_sweep_config,
    random_datum_spec,
    random_flux_spec,
    run_simulation,
    sweep,
)
from .potential import (
    PotentialSeries,
    bianchini_cubic,
    delta_sigma,
    delta_sigma_closed_form,
    quadratic_potential,
    run_pipeline,
    upsilon,
    verdict_table,
    verify_run,
)
from .riemann import Front, is_admissible, solve_riemann
from .tracker import (
    InteractionEvent,
    Profile,
    Timeline,
    discretize_initial,
    evolve,
    initial_fronts,
    next_collision,
    profile_at,
    resolve_event,
    validate_timeline,
)
from .tracing import WaveSystem, advance_tracing, build_initial_waves, validate_tracing

__version__ = "0.1.0"
