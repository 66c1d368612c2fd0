"""rzk: delay-differential control toolkit.

Razumikhin-style certificate machinery for control-affine time-delay
systems: Lyapunov, barrier, and merged Lyapunov-barrier scalar fields, the
closed-form universal feedback built from their Lie derivatives, Halanay
decay certificates, method-of-steps RK4 simulation, and numerical
verification of the resulting closed loops.
"""

from .history import HistoryWindow, from_constant, weighted_sup
from .fields import (ScalarField, SandwichBounds, RegionBox, quadratic_field,
                     example_lyapunov, example_hazard, example_barrier,
                     example_sandwich, example_margin, combine_clbrf,
                     finite_diff_check, check_sandwich, EXAMPLE_BOX)
from .system import (DelayDynamics, ExampleConfig, ExampleDynamics, friction,
                     example_system)
from .controller import (RazumikhinGains, ControllerSpec, kappa, evaluate,
                         control, scp_probe)
from .halanay import (DecayCertificate, decay_rate, gamma_fn,
                      scalar_comparison_sim, check_envelope,
                      VARIANT_PROOF, VARIANT_STATEMENT)
from .simulate import (IntegrationSettings, Trajectory, IntegrationDiverged,
                       integrate, batch_integrate, convergence_study)
from .verify import (UnsafeSet, VerificationReport, example_unsafe_set,
                     safety_check, decrease_check, envelope_check,
                     clbrf_construction_check, separation_check,
                     window_states, field_sup_series)

__version__ = "0.1.0"
