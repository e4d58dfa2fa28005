import math

import numpy as np
import pytest

from odgarch import NbinParams, NmParams, Series, TingParams, spectral_radius, stability_check
from odgarch.params import params_from_dict, params_to_dict


def test_nbin_margin_and_stability():
    p = NbinParams(3.0, 0.2, 0.2, 2.0)
    assert p.stable()
    assert abs(p.margin() - 0.4) < 1e-15
    chk = stability_check(p)
    assert chk["stable"] and abs(chk["margin"] - 0.4) < 1e-15


def test_nbin_boundary_is_unstable():
    p = NbinParams(1.0, 0.5, 0.5, 1.0)
    assert not p.stable()
    assert stability_check(p) == {"stable": False, "margin": 0.0}


def test_ting_margin():
    p = TingParams(3.0, 0.35, 0.1, 4.0)
    assert abs(p.margin() - 0.65) < 1e-15
    assert not TingParams(1.0, 1.5, 0.1, 2.0).stable()


@pytest.mark.parametrize("bad", [
    dict(omega=0.0, a=0.2, b=0.2, r=2.0),
    dict(omega=3.0, a=-0.1, b=0.2, r=2.0),
    dict(omega=3.0, a=0.2, b=0.2, r=float("nan")),
    dict(omega=3.0, a=0.2, b=float("inf"), r=2.0),
])
def test_positivity_validation(bad):
    with pytest.raises(ValueError):
        NbinParams(**bad)
    with pytest.raises(ValueError):
        TingParams(bad["omega"], bad["a"], bad["b"], bad["r"])


def test_nm_scalar_margin():
    p = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.5]], b_vec=[0.3])
    assert abs(p.margin() - 0.2) < 1e-10


def test_nm_validation():
    with pytest.raises(ValueError):
        NmParams(gamma=[0.5, 0.4], omega_vec=[1.0, 1.0],
                 A=np.eye(2) * 0.1, b_vec=[0.1, 0.1])  # not on simplex
    with pytest.raises(ValueError):
        NmParams(gamma=[1.0], omega_vec=[1.0, 2.0], A=[[0.1]], b_vec=[0.1])
    with pytest.raises(ValueError):
        NmParams(gamma=[1.0], omega_vec=[-1.0], A=[[0.1]], b_vec=[0.1])
    with pytest.raises(ValueError):
        NmParams(gamma=[1.0], omega_vec=[1.0], A=[[-0.1]], b_vec=[0.1])


def test_spectral_radius_diagonal():
    assert abs(spectral_radius(np.diag([0.3, 0.7])) - 0.7) < 1e-9


def test_spectral_radius_matches_eig():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = rng.uniform(0.0, 1.0, (d, d))
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert abs(spectral_radius(m) - ref) < 1e-7 * max(1.0, ref)


def _nonnegative(rng, d, kind):
    """A random non-negative d x d matrix and, where known, its spectral radius."""
    if kind == "periodic":  # weighted cycle i -> i+1: eigenvalues are rho * roots of 1
        c = rng.uniform(0.1, 2.0, d)
        return np.roll(np.diag(c), 1, axis=1), float(np.prod(c) ** (1.0 / d))
    m = rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.6)
    if kind == "reducible" and d > 1:  # block upper triangular
        k = int(rng.integers(1, d))
        m[k:, :k] = 0.0
        return m, max(float(np.max(np.abs(np.linalg.eigvals(m[:k, :k])))),
                      float(np.max(np.abs(np.linalg.eigvals(m[k:, k:])))))
    return m, None


@pytest.mark.parametrize("kind", ["sparse", "periodic", "reducible"])
def test_spectral_radius_property(kind):
    rng = np.random.default_rng(["sparse", "periodic", "reducible"].index(kind))
    for _ in range(200):
        d = int(rng.integers(1, 6))
        m, known = _nonnegative(rng, d, kind)
        got = spectral_radius(m)
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert abs(got - ref) <= 1e-12 * max(1.0, ref)
        if known is not None:
            assert abs(got - known) <= 1e-10 * max(1.0, known)


def test_spectral_radius_periodic_fixed_point():
    # power iteration oscillates on this matrix; its spectral radius is sqrt(0.8)
    a_mat = [[0.0, 2.0], [0.4, 0.0]]
    assert abs(spectral_radius(a_mat) - math.sqrt(0.8)) < 1e-15
    q = NmParams(gamma=[0.5, 0.5], omega_vec=[1.0, 1.0], A=a_mat, b_vec=[0.01, 0.01])
    assert np.allclose(q.fixed_point(), [15.0, 7.0], rtol=1e-14)


def test_spectral_radius_errors():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[0.1, -0.2], [0.0, 0.1]]))
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))


def test_fixed_points():
    p = NbinParams(3.0, 0.2, 0.2, 2.0)
    assert abs(p.fixed_point() - 3.75) < 1e-15
    q = NmParams(gamma=[1.0], omega_vec=[1.0], A=[[0.5]], b_vec=[0.3])
    assert np.allclose(q.fixed_point(), [2.0])
    t = TingParams(1.0, 0.5, 0.25, 2.0)
    assert abs(t.fixed_point() - 2.0) < 1e-15


def test_params_dict_roundtrip():
    for p in (NbinParams(3.0, 0.2, 0.2, 2.0),
              TingParams(3.0, 0.35, 0.1, 4.0),
              NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                       A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])):
        q = params_from_dict(p.tag, params_to_dict(p))
        assert np.allclose(p.as_array(), q.as_array())
        assert p.tag == q.tag


def test_param_names_match_array_length():
    for p in (NbinParams(3.0, 0.2, 0.2, 2.0),
              TingParams(3.0, 0.35, 0.1, 4.0),
              NmParams(gamma=[0.4, 0.6], omega_vec=[1.0, 2.0],
                       A=[[0.3, 0.1], [0.05, 0.25]], b_vec=[0.2, 0.1])):
        assert len(p.param_names) == p.as_array().size


def test_series_validation():
    with pytest.raises(ValueError):
        Series(y=[1.0, 2.5], model_tag="nbin")  # counts must be integers
    with pytest.raises(ValueError):
        Series(y=[1.0, -1.0], model_tag="ting")
    Series(y=[1.3, -0.2], model_tag="nm")  # reals allowed
    with pytest.raises(ValueError):
        Series(y=[1.0, 2.0], model_tag="nbin", x_trace=np.ones(3))
    s = Series(y=[1.0, 2.0, 0.0], model_tag="nbin", x_trace=np.ones(3))
    assert s.n == 3
    with pytest.raises(ValueError):
        Series(y=[1.0], model_tag="bogus")
