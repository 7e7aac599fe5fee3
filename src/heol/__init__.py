"""Homeostat-based model-free control on flat systems.

The package derives per-channel ultra-local models ("homeostats")
``d^n(Dy)/dt^n = F + alpha Du`` by tangent linearisation of implicit flat
input/output relations, estimates the lumped disturbance F with windowed
integral kernels that need no output derivatives, closes each channel with
an intelligent iP/iPD law, and ships a deterministic simulation harness with
a two-input flat benchmark plant.
"""

from .errors import (
    ConfigurationError,
    DivergenceError,
    ExportError,
    HeolError,
    SingularChannelError,
)
from .signals import ReferenceTrajectory, Window, make_constant, make_smoothstep
from .homeostat import ImplicitFlatRelation, derive_channel
from .estimators import estimate_f_nu1, estimate_f_nu2
from .controllers import gains_from_poles
from .plant import MismatchSpec, PlantModel, rk4_step
from .scenarios import (
    ChannelSpec,
    Scenario,
    Timing,
    builtin_names,
    builtin_scenario,
    compute_metrics,
    export_csv,
    export_metrics,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

__version__ = "0.1.0"
