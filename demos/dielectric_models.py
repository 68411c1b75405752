"""Dielectric response of gold: Drude forms, parameter fits, and the
region-by-region assembly of eps(i zeta).

Run:  python demos/dielectric_models.py
"""

import numpy as np

from aucasimir import (DielectricModel, DrudeParameters, OpticalDataset,
                       fit_drude, load_dataset, resistivity)
from aucasimir.config import package_data_dir
from aucasimir.constants import c
from aucasimir.optical import drude_eps2

# ------------------------------------------------------- Drude parameters
# three parameter sets spanning the spread between handbook extrapolations
# and sample-dependent fits; the resistivity identity ties each pair to a
# measurable DC property
rows = [DrudeParameters(1.38e16, 5.38e13),
        DrudeParameters(1.37e16, 4.06e13),
        DrudeParameters(1.28e16, 3.29e13)]
print("omega_p [1e16/s]  omega_tau [1e13/s]  rho [uOhm cm]")
for p in rows:
    print(f"{p.omega_p/1e16:14.2f}  {p.omega_tau/1e13:17.2f}  "
          f"{resistivity(p):12.3f}")

# ------------------------------------------------- real and imaginary axis
p1 = rows[0]
omega = 1e15
eps = 1.0 - p1.omega_p**2 / (omega * (omega + 1j * p1.omega_tau))
print(f"\nreal axis at {omega:.1e} rad/s: eps' = {eps.real:.2f}, "
      f"eps'' = {eps.imag:.3f}")
zeta = c / (2 * 63e-9)  # the frequency scale that dominates at a = 63 nm
print(f"imaginary axis at zeta = c/2a = {zeta:.3e} rad/s: "
      f"eps(i zeta) = {p1.epsilon(zeta):.2f}")

# -------------------------------------------------------------- Drude fit
grid = np.geomspace(1e14, 1e16, 51)
clean = OpticalDataset(grid, drude_eps2(rows[1].omega_p, rows[1].omega_tau, grid))
fit = fit_drude(clean, (2e14, 2e15))
print(f"\nfit on exact Drude data recovers omega_p = {fit.parameters.omega_p:.4e}, "
      f"omega_tau = {fit.parameters.omega_tau:.4e} "
      f"(rms log residual {fit.rms_log_residual:.1e})")
fixed = fit_drude(clean, (2e14, 2e15), omega_p_fixed=1.38e16)
print(f"with omega_p held at 1.38e16, omega_tau compensates to "
      f"{fixed.parameters.omega_tau:.4e} (rms {fixed.rms_log_residual:.3f})")

# --------------------------------------------- eps(i zeta) by spectral region
# below omega0 the Drude extrapolation is integrated in closed form; the
# tabulated data cover [omega0, omega1] and [omega1, omega_max]; beyond
# that a power-law tail.  At the experiment's dominant frequency the
# low-frequency part carries most of the response, which is why the Drude
# parameters matter so much.
ds = load_dataset(package_data_dir() / "gold_synthetic.csv")
model = DielectricModel(p1, ds)
dec = model.decompose(zeta)
print(f"\neps(i zeta) at zeta = c/2a, synthetic dataset:")
print(f"  [0, omega0]       (Drude, analytic): {dec.eps1:8.3f}")
print(f"  [omega0, omega1]  (data):            {dec.eps2_part:8.3f}")
print(f"  [omega1, inf)     (data + tail):     {dec.eps3_part:8.3f}")
print(f"  total eps(i zeta) = {dec.total:.3f}")
print(f"pure-Drude value for comparison: {p1.epsilon(zeta):.3f}")

# the model takes whole arrays of zeta: one broadcast sum over the nodes of
# its Kramers-Kronig rule, each element equal to the scalar call
zetas = np.logspace(13, 17, 5)
print("\nzeta [rad/s]   eps(i zeta)")
for z, e in zip(zetas, model.epsilon(zetas)):
    print(f"{z:12.3e}  {e:12.5g}")
