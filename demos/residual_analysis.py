"""Experiment-theory residuals and the confidence floor on a residual force.

Run:  python demos/residual_analysis.py
"""

from aucasimir import (load_experiment, residual_lower_bound, residual_report)
from aucasimir.config import package_data_dir

records = load_experiment(package_data_dir() / "experiment_sample.csv")
rec = records[0]
print(f"measured point: a = {rec.separation*1e9:.0f} nm, "
      f"F = {rec.force_measured:.0f} pN, sigma = {rec.sigma:.1f} pN")

# against the published theory value at this separation the measured force
# sits four standard deviations high
report = residual_report(records, lambda a: 477.0)
row = report.rows[0]
print(f"theory 477 pN -> dF = {row.delta_f:.1f} pN, "
      f"dF/sigma = {row.sigma_ratio:.1f}")

# a residual of 17 pN with sigma = 3.5 pN leaves a 95% confidence floor of
# 17 - 2*3.5 = 10 pN, the input to the new-force constraint
floor = residual_lower_bound(17.0, 3.5, confidence_sigmas=2.0)
print(f"95% confidence residual floor: {floor:.0f} pN")

# with the full force pipeline, theory is one force_scan over the selected
# separations (residual_report calls it once, with all of them); the CLI
# wires this end to end:
#   aucasimir residuals --config <cfg.ini> --experiment <data.csv>
