"""From a residual-force floor to limits on a Yukawa fifth force.

Run:  python demos/yukawa_constraints.py
"""

import numpy as np

from aucasimir import (ConstraintGeometry, YukawaHypothesis,
                       allowed_lambda_boundary, alpha_lower_limit,
                       yukawa_force_oracle)

geom = ConstraintGeometry()  # a = 63 nm, gold film h = 96 nm

print("lower limit on the coupling alpha as a function of range lambda")
print("(residual floor 10 pN):")
print("  lambda [nm]    alpha_min")
for lam in np.geomspace(15e-9, 500e-9, 8):
    print(f"  {lam*1e9:10.1f}    {alpha_lower_limit(float(lam), geom):.3e}")

# intersect with the astrophysical ceiling alpha < 1.5e-22
boundary = allowed_lambda_boundary(geom, alpha_ceiling=1.5e-22)
print(f"\nceiling 1.5e-22 crosses the limit at lambda* = "
      f"{boundary.lambda_star*1e9:.1f} nm")
print(f"equivalent boson mass m = {boundary.boson_mass_ev:.1f} eV")
print("wavelengths above lambda* stay allowed; the boson mass is bounded "
      "from above accordingly")

# a residual floor twice as high scales the limit linearly
double = alpha_lower_limit(100e-9, geom, residual_bound_pn=20.0)
single = alpha_lower_limit(100e-9, geom, residual_bound_pn=10.0)
print(f"\nlinear in the floor: alpha_min(20 pN)/alpha_min(10 pN) = "
      f"{double/single:.1f}")

# cross-check of the closed-form limit against the film-film Yukawa force
# (the limit carries substrate terms the film-film model does not, so
# agreement is at the ~15% level)
f_unit = yukawa_force_oracle(YukawaHypothesis(1e-24, 100e-9), geom, 95.65e-6)
alpha_star = 1e-24 * 10.0 / f_unit
print(f"film-film force at lambda = 100 nm: alpha_min = {alpha_star:.3e} "
      f"vs limit {alpha_lower_limit(100e-9, geom):.3e}")
