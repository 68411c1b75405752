"""Casimir force between gold surfaces from tabulated optical data.

Library layout follows the computation pipeline: `optical` ingests and
interpolates eps''(omega) tables, `dielectric` builds eps(i zeta) from a
Drude extrapolation plus a Kramers-Kronig transform, `lifshitz` evaluates
the sphere-plate force at finite and zero temperature, `analysis` compares
with measured force curves, and `yukawa` converts residual-force bounds
into new-interaction constraints.  The `aucasimir` command line exposes the
same pipeline for reproducible runs.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    # The package's numpy work is elementwise, reductions and short dot
    # products, which no BLAS thread pool speeds up, while an OpenBLAS
    # worker spins on a second core for tens of ms after numpy loads, into
    # a command's steps or not by how fast the imports went.  OpenBLAS reads
    # the variable only as it loads, so the caller's value is put back for
    # the processes this one starts.
    _user_threads = _os.environ.get("OPENBLAS_NUM_THREADS")
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        if _user_threads is None:
            del _os.environ["OPENBLAS_NUM_THREADS"]
        else:
            _os.environ["OPENBLAS_NUM_THREADS"] = _user_threads
    del _numpy, _user_threads

from .analysis import (ExperimentRecord, ResidualReport, ResidualRow,
                       load_experiment, residual_lower_bound, residual_report)
from .dielectric import (DielectricModel, DrudeFit, DrudeParameters,
                         EpsilonDecomposition, epsilon1_analytic, fit_drude,
                         resistivity)
from .errors import ConfigError, ConvergenceError, DataFormatError, DomainError
from .lifshitz import (ForceResult, classical_term, force_scan, ideal_force,
                       matsubara_frequency)
from .optical import (EV_TO_RAD_S, OMEGA0_DEFAULT, OMEGA1_DEFAULT,
                      OpticalDataset, interpolate_eps2, load_dataset,
                      merge_datasets)
from .yukawa import (ConstraintGeometry, YukawaHypothesis,
                     allowed_lambda_boundary, alpha_lower_limit,
                     yukawa_force_oracle)

__version__ = "0.1.0"
