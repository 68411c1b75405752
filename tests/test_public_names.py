"""The package's public names, pinned: a change that adds or drops an
export changes a line of PUBLIC."""

import types

import aucasimir

#: dir(aucasimir) without leading underscores and without its submodules
PUBLIC = [
    "ConfigError", "ConstraintGeometry", "ConvergenceError", "DataFormatError",
    "DielectricModel", "DomainError", "DrudeFit", "DrudeParameters", "EV_TO_RAD_S",
    "EpsilonDecomposition", "ExperimentRecord", "ForceResult", "OMEGA0_DEFAULT",
    "OMEGA1_DEFAULT", "OpticalDataset", "ResidualReport", "ResidualRow",
    "YukawaHypothesis", "allowed_lambda_boundary", "alpha_lower_limit",
    "classical_term", "epsilon1_analytic", "fit_drude", "force_scan", "ideal_force",
    "interpolate_eps2", "load_dataset", "load_experiment", "matsubara_frequency",
    "merge_datasets", "residual_lower_bound", "residual_report", "resistivity",
    "yukawa_force_oracle",
]


def test_public_names_are_pinned():
    names = [name for name in dir(aucasimir) if not name.startswith("_")
             and not isinstance(getattr(aucasimir, name), types.ModuleType)]
    assert names == PUBLIC
    assert len(PUBLIC) == 34
