"""Nonlinear ladder-filter stability toolkit.

Model of the four-stage tanh ladder with feedback, Lyapunov energies and
definiteness certification over the full (omega0, r) range, closed-form and
numeric spectra of the linearization, a dissipation-preserving implicit
integrator, and reproducible sweep experiments.
"""

from .experiments import (
    SpecValidationError,
    SweepResult,
    SweepSpec,
    TrajectorySummary,
    run_decay_study,
    run_definiteness_sweep,
    run_gradcheck,
    run_sweep,
)
from .integrators import (
    IntegrationError,
    Method,
    NewtonError,
    StepConfig,
    Trajectory,
    simulate,
    step_discrete_gradient,
    step_rk4,
)
from .lyapunov import (
    CertificateReport,
    MatrixFamily,
    Verdict,
    V_nonlinear,
    V_zero_feedback,
    Vdot_nonlinear,
    certify,
    definiteness_threshold,
    structure_max_eigenvalue,
    sym_eigvals,
    symmetrize,
)
from .model import (
    FilterParams,
    ParameterRangeError,
    coupling_matrix,
    coupling_structure,
    corner_gain,
    feedback_ratio,
    from_scaled,
    linearized_matrix,
    make_params,
    rhs_nonlinear,
    saturation_vector,
    scaled_linearized_matrix,
    scaling_matrix,
    to_scaled,
)
from .spectral import (
    RootFindingError,
    Spectrum,
    eigvals_closed_form,
    eigvals_numeric,
)

__version__ = "0.1.0"
