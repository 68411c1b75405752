"""The records of the package are immutable values with fixed signatures."""

import numpy as np
import pytest

from aucasimir import (ConstraintGeometry, DielectricModel, DrudeFit,
                       DrudeParameters, EpsilonDecomposition, ExperimentRecord,
                       ForceResult, FrequencyBoundaries, OpticalDataset,
                       ResidualReport, ResidualRow, YukawaHypothesis)
from aucasimir.config import RunConfig
from aucasimir.optical import OMEGA0_DEFAULT, OMEGA1_DEFAULT

DRUDE = DrudeParameters(1.37e16, 5.32e13)
# covers [OMEGA0_DEFAULT, OMEGA1_DEFAULT], as a DielectricModel needs
COLUMNS = {"omega": np.array([1e14, 1e15, 4e15]),
           "eps2": np.array([100.0, 10.0, 1.0])}
DATASET = OpticalDataset(**COLUMNS)
ROW = ResidualRow(separation=1e-7, force_measured=10.0, force_theory=9.0,
                  delta_f=1.0, sigma_ratio=0.5)

# each type, its required fields as keywords and its defaults, in field order
CASES = [
    (ExperimentRecord, {"separation": 1e-7, "force_measured": 10.0, "sigma": 2.0}, {}),
    (ResidualRow, ROW._asdict(), {}),
    (ResidualReport, {"rows": (ROW,), "rms_deviation": 1.0,
                      "max_sigma_exceedance": 0.5}, {}),
    (RunConfig, {"model_kind": "drude", "drude": DRUDE, "fit_range": None,
                 "fit_fixed_omega_p": None, "dataset_paths": (),
                 "boundaries": FrequencyBoundaries(), "tail_exponent": 3.0,
                 "sphere_radius": 1e-4, "temperature": 300.0,
                 "prescription": "drude"}, {}),
    (DrudeParameters, {"omega_p": 1.37e16, "omega_tau": 5.32e13}, {}),
    (EpsilonDecomposition, {"eps1": 1.0, "eps2_part": 0.5, "eps3_part": 0.25}, {}),
    (DielectricModel, {"drude": DRUDE, "dataset": DATASET},
     {"boundaries": FrequencyBoundaries(), "tail_exponent": 3.0}),
    (DrudeFit, {"parameters": DRUDE, "rms_log_residual": 0.1, "n_points": 5}, {}),
    (ForceResult, {"total": -10.0, "n0_term": -1.0, "sum_terms": -9.0,
                   "n_terms_used": 20}, {}),
    (FrequencyBoundaries, {}, {"omega0": OMEGA0_DEFAULT, "omega1": OMEGA1_DEFAULT}),
    (OpticalDataset, COLUMNS, {"source": ""}),
    (YukawaHypothesis, {"alpha": 1e-20, "lambda_": 1e-7}, {}),
    (ConstraintGeometry, {}, {"separation_min": 63e-9, "film_thickness": 96e-9}),
]


@pytest.mark.parametrize("cls, required, defaults", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, required, defaults):
    assert cls._fields == (*required, *defaults)
    assert cls._field_defaults == defaults
    value = cls(**required)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    twin = cls(*required.values())
    if cls is OpticalDataset:
        # a table equals only itself, as before
        assert value != twin and value == value
        assert hash(value) != hash(twin)
        assert repr(value) == "OpticalDataset(n=3, omega=[1e+14, 4e+15] rad/s)"
    else:
        assert value == twin and hash(value) == hash(twin)
        for name, default in defaults.items():
            assert getattr(value, name) == default


@pytest.mark.parametrize("value, bad, message", [
    (DRUDE, {"omega_tau": 2e16}, "omega_tau < omega_p"),
    (FrequencyBoundaries(), {"omega1": 1e14}, "omega0 < omega1"),
    (DielectricModel(DRUDE, DATASET), {"tail_exponent": 1.0}, "integrability"),
])
def test_replace_checks_the_fields(value, bad, message):
    with pytest.raises(ValueError, match=message):
        value._replace(**bad)


def test_replace_rebuilds_the_dielectric_rule():
    zeta = np.geomspace(1e13, 1e17, 5)
    moved = DielectricModel(DRUDE, DATASET)._replace(tail_exponent=4.0)
    assert np.array_equal(moved.epsilon(zeta),
                          DielectricModel(DRUDE, DATASET, tail_exponent=4.0).epsilon(zeta))
