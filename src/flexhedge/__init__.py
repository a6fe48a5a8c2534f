"""Price-capped DC optimal power flow with demand-side flexibility sizing.

The toolkit quantifies how much demand-side flexibility is needed to keep a
bus's locational marginal price at or below a consumer's maximum willingness
to pay, and settles the aggregator revenue that capping implies, on small DC
networks over a 24-hour horizon.
"""

from .economic_dispatch import (
    EdChainReport,
    EdInstance,
    EdResult,
    build_ed_dual,
    build_ed_flex_primal,
    build_ed_primal,
    solve_ed_chain,
)
from .hedging import (
    HedgeHour,
    HedgeReport,
    HedgeRun,
    SweepResult,
    SweepRow,
    coordination_trace,
    format_eur,
    hourly_revenue,
    run_hedge,
    sweep_pi_des,
)
from .lp import (
    KktReport,
    LinearProgram,
    LpSolution,
    MalformedProgramError,
    SolverFailureError,
    dual_of,
    dual_program,
    solve,
    to_lp_format,
    verify_kkt,
)
from .model import (
    Bus,
    GenOffer,
    HourlyMarketData,
    Line,
    LoadUtility,
    Network,
    PriceCap,
    UnknownBusError,
    validate_market_data,
    validate_network,
)
from .opf import (
    DispatchResult,
    build_opf,
    capped_dual,
    price_paid_by_load,
    solve_opf_hour,
    solve_opf_series,
    write_dispatch_csv,
)
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioSpec,
    SplitMix64,
    apply_line_limits,
    build_3bus_network,
    generate_scenario,
    load_scenario_file,
    preset_spec,
    write_scenario_file,
)

__version__ = "0.1.0"
