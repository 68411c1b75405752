"""Sphere-plate Casimir force: ideal metal vs Drude gold, finite vs zero
temperature, and the decomposition of the Matsubara sum.

Run:  python demos/casimir_force_scan.py   (a second or two)
"""

from aucasimir import DrudeParameters, classical_term, force_scan, ideal_force

R = 95.65e-6  # m
T = 300.0     # K
gold = DrudeParameters(1.37e16, 3.7e13)  # single-crystal values

print("ideal-conductor reference F0 = pi^3 hbar c R / (360 a^3):")
for a_nm in (63, 100, 200):
    a = a_nm * 1e-9
    print(f"  a = {a_nm:3d} nm: F0 = {ideal_force(R, a):9.2f} pN, "
          f"n=0 static term = {classical_term(R, a, T):6.2f} pN")

print("\nDrude gold, finite T vs zero T (temperature correction dTF):")
print("  a [nm]   F(300K) [pN]   F(0) [pN]   dTF [pN]    eta     terms")
# neither the Matsubara frequencies nor the zero-T frequency rule depend on
# the separation: each scan evaluates eps(i zeta) once for every separation,
# and at T = 0 the Matsubara sum is the frequency integral
separations_nm = (60, 100, 150, 200)
scan = [a_nm * 1e-9 for a_nm in separations_nm]
for a_nm, a, finite, zero in zip(separations_nm, scan,
                                 force_scan(R, scan, T, gold.epsilon),
                                 force_scan(R, scan, 0.0, gold.epsilon)):
    eta = zero.total / ideal_force(R, a)
    print(f"  {a_nm:5d}   {finite.total:11.3f}   {zero.total:9.3f}   "
          f"{finite.total - zero.total:7.3f}   {eta:.3f}   {finite.n_terms_used:5d}")

# the alternative static-term prescription halves the n=0 contribution and
# lowers every force by exactly half the classical term
(schwinger,) = force_scan(R, [63e-9], T, gold.epsilon, "schwinger")
(halved,) = force_scan(R, [63e-9], T, gold.epsilon, "halved")
print(f"\nat 63 nm: schwinger n=0 gives {schwinger.total:.2f} pN, "
      f"halved n=0 gives {halved.total:.2f} pN "
      f"(difference {schwinger.total - halved.total:.2f} pN "
      f"= half the classical term)")
