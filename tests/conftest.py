import math

import pytest

import hbvkit as hk


@pytest.fixture(scope="session")
def clearing_params():
    """Rate set whose infection-free state attracts everything (R0 << 1)."""
    return hk.Parameters(mu1=2.0, mu2=3.0, mu3=7.0, beta=0.2, eta=0.2, epsilon=0.5, p=0.01, q=5.0)


@pytest.fixture(scope="session")
def clearing_forcing():
    return hk.ConstantForcing(9.8135)


@pytest.fixture(scope="session")
def subthreshold_params():
    """High-production rate set that still sits below the R0 = 1 threshold."""
    return hk.Parameters(mu1=5.0, mu2=7.0, mu3=2.0, beta=0.7, eta=0.2, epsilon=0.2, p=2.0, q=6.0)


@pytest.fixture(scope="session")
def subthreshold_forcing():
    return hk.ConstantForcing(100.0)


@pytest.fixture(scope="session")
def persistent_params():
    """Rate set with R0 > 1 and a feasible persistent-infection state."""
    return hk.Parameters(mu1=6.0, mu2=7.0, mu3=0.1, beta=0.3, eta=0.5, epsilon=0.1, p=5.0, q=10.0)


@pytest.fixture(scope="session")
def persistent_forcing():
    return hk.ConstantForcing(20.0)


@pytest.fixture(scope="session")
def wave_forcing():
    """cos(2t + pi/3) + 10, bounded in [9, 11]."""
    return hk.SinusoidForcing(amplitude=1.0, omega=2.0, phase=math.pi / 3.0, offset=10.0)


@pytest.fixture(scope="session")
def tight_ctl():
    return hk.AdaptiveStep(abs_tol=1e-10, rel_tol=1e-10, h_init=1e-3, h_max=0.25)
