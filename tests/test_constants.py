"""The literal constants against scipy, which the runtime no longer imports."""

import scipy.constants
import scipy.special

from aucasimir import constants, lifshitz, optical


def test_equal_to_scipy_constants():
    assert constants.c == scipy.constants.c
    assert constants.h == scipy.constants.h
    assert constants.hbar == scipy.constants.hbar
    assert constants.k_B == scipy.constants.Boltzmann
    assert constants.e == scipy.constants.e
    assert constants.epsilon_0 == scipy.constants.epsilon_0


def test_zeta3_equal_to_scipy_zeta():
    assert constants.ZETA3 == float(scipy.special.zeta(3))


def test_module_names_kept():
    assert lifshitz.ZETA3 == constants.ZETA3
    assert optical.EV_TO_RAD_S == scipy.constants.e / scipy.constants.hbar
