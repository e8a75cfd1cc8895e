import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfgsim import SfgsimError, SystemParams
from sfgsim.errors import ParameterError


def test_kappa_must_be_positive():
    with pytest.raises(ValueError):
        SystemParams(kappa=0.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=-1.0)


def test_gammas_must_be_nonnegative():
    with pytest.raises(ValueError):
        SystemParams(kappa=0.01, gamma2=-0.5)


def test_travelling_wave_flag():
    assert SystemParams.travelling_wave(0.01).is_travelling_wave
    assert not SystemParams.symmetric(0.01, 1.0, 10.0, 0.0).is_travelling_wave
    assert not SystemParams(kappa=0.01, eps1=1.0).is_travelling_wave


def test_symmetric_flag_exact_and_tolerant():
    assert SystemParams.symmetric(0.01, 1.0, 10.0, 400.0).is_symmetric
    # within relative tolerance 1e-12
    p = SystemParams(0.01, 1.0, 1.0 * (1 + 1e-13), 10.0, 400.0, 400.0)
    assert p.is_symmetric
    p = SystemParams(0.01, 1.0, 1.0 * (1 + 1e-10), 10.0, 400.0, 400.0)
    assert not p.is_symmetric
    assert not SystemParams(0.01, 1.0, 1.0, 10.0, 400.0, 500.0).is_symmetric
    # complex pump phases matter for symmetry
    assert not SystemParams(0.01, 1.0, 1.0, 10.0, 400.0, 400.0j).is_symmetric


def test_symmetric_accessors_raise_on_asymmetric():
    p = SystemParams(0.01, 1.0, 40.0, 2.0, 400.0, 2400.0)
    with pytest.raises(ValueError):
        p.symmetric_gamma()
    with pytest.raises(ValueError):
        p.symmetric_eps()


def test_pumps_coerced_to_complex():
    p = SystemParams(0.01, 1.0, 1.0, 10.0, 400, 400)
    assert isinstance(p.eps1, complex) and isinstance(p.eps2, complex)



@pytest.mark.parametrize("name, bad", [
    ("kappa", float("inf")), ("gamma1", float("nan")), ("gamma2", float("inf")),
    ("gamma3", float("nan")), ("eps1", complex(1.0, float("inf"))), ("eps2", float("nan")),
])
def test_rates_and_pumps_must_be_finite(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SystemParams(**{"kappa": 0.01, name: bad})


def test_precondition_errors_are_sfgsim_and_value_errors():
    with pytest.raises(ParameterError) as err:
        SystemParams(kappa=0.0)
    assert isinstance(err.value, SfgsimError) and isinstance(err.value, ValueError)


# any value, finite or not, with zeros and valid values well represented
_reals = st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                   st.floats(min_value=0.0, allow_infinity=False), st.floats())
_pumps = st.one_of(st.just(0j), st.complex_numbers(allow_nan=False, allow_infinity=False),
                   st.complex_numbers())


@settings(max_examples=300, deadline=None)
@given(kappa=_reals, gamma1=_reals, gamma2=_reals, gamma3=_reals, eps1=_pumps, eps2=_pumps)
def test_system_params_invariants(kappa, gamma1, gamma2, gamma3, eps1, eps2):
    rates = (gamma1, gamma2, gamma3)
    valid = (math.isfinite(kappa) and kappa > 0
             and all(math.isfinite(g) and g >= 0 for g in rates)
             and all(math.isfinite(e.real) and math.isfinite(e.imag) for e in (eps1, eps2)))
    if not valid:
        with pytest.raises(ParameterError):
            SystemParams(kappa, gamma1, gamma2, gamma3, eps1, eps2)
        return
    p = SystemParams(kappa, gamma1, gamma2, gamma3, eps1, eps2)
    assert p.gammas == rates and p.eps1 == eps1 and p.eps2 == eps2
    assert p.is_travelling_wave == (rates == (0, 0, 0) and eps1 == 0 and eps2 == 0)
