"""Casimir force between gold surfaces from tabulated optical data.

Library layout follows the computation pipeline: `optical` ingests and
interpolates eps''(omega) tables, `dielectric` builds eps(i zeta) from a
Drude extrapolation plus a Kramers-Kronig transform, `lifshitz` evaluates
the sphere-plate force at finite and zero temperature, `analysis` compares
with measured force curves, and `yukawa` converts residual-force bounds
into new-interaction constraints.  The `aucasimir` command line exposes the
same pipeline for reproducible runs.
"""

from .analysis import (ExperimentRecord, ResidualReport, ResidualRow,
                       load_experiment, residual_lower_bound, residual_report)
from .dielectric import (DielectricModel, DrudeFit, DrudeParameters,
                         EpsilonDecomposition, drude_eps_real_axis,
                         epsilon1_analytic, fit_drude, resistivity)
from .errors import ConfigError, ConvergenceError, DataFormatError, DomainError
from .lifshitz import (ForceResult, classical_term, force_scan, ideal_force,
                       matsubara_frequency)
from .optical import (EV_TO_RAD_S, OMEGA0_DEFAULT, OMEGA1_DEFAULT,
                      FrequencyBoundaries, OpticalDataset, fill_gap,
                      generate_synthetic_dataset, interpolate_eps2,
                      load_dataset, merge_datasets)
from .yukawa import (ASTRO_ALPHA_CEILING, ConstraintGeometry, LambdaBoundary,
                     YukawaHypothesis, allowed_lambda_boundary,
                     alpha_lower_limit, yukawa_force_oracle)

__version__ = "0.1.0"
