"""Tensor calculus, pinching constants and model flows for quadratically
pinched high-codimension mean curvature flow, with randomized verification
of the supporting algebraic inequalities."""

from .constants import (
    PinchingConstants,
    c_n,
    d_lower_bound,
    kappa_n,
    pinching_Q,
    pinching_f,
    space_form_d_lower,
)
from .forms import (
    Dims,
    GradientSample,
    MeanCurvature,
    PrincipalDecomposition,
    SecondFundamentalForm,
    gradient_sample,
    mean_curvature,
    normal_curvature,
    principal_decompose,
    symmetrize,
)
from .reaction import (
    boundary_reaction_bound,
    cc_reaction_upper_bound,
    r1,
    r2,
    reaction_gap,
)
from .campaign import CheckResult, run_campaign
from .flow import (
    CylinderFlow,
    FlowState,
    HyperbolicSphereFlow,
    ProductSpheresFlow,
    SphereFlow,
    TimeSeries,
    blowup_bound_check,
    diagnostics,
    evolution_residual,
    exact_state,
    quotient_identity_residual,
    simulate,
    step_rk4,
)
from .rescale import RescaledSeries, invariance_report, rescale
from .samplers import SamplerSpec

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
