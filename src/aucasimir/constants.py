"""Physical and mathematical constants, SI units.

Literal values, equal to those of `scipy.constants` 1.17 (CODATA 2022; c,
h, e and k_B are exact in the SI), so the runtime needs only numpy.  hbar
is h / (2 pi) rounded to double precision; ZETA3 is the Riemann zeta
function at 3.
"""

#: speed of light in vacuum [m/s]
c = 299792458.0
#: Planck constant [J s]
h = 6.62607015e-34
#: reduced Planck constant h / (2 pi) [J s]
hbar = 1.0545718176461565e-34
#: Boltzmann constant [J/K]
k_B = 1.380649e-23
#: elementary charge [C]
e = 1.602176634e-19
#: vacuum permittivity [F/m]
epsilon_0 = 8.8541878188e-12
#: Apery's constant zeta(3)
ZETA3 = 1.2020569031595942
