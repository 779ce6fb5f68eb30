import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

from fermitherm.entropy import make_power_entropy, validate_a4
from fermitherm.linear import (
    _g_series,
    Regime,
    UnboundedModelError,
    UnreachableChargeError,
    guaranteed_existence_qmax,
    hydrogen_level,
    linear_ground_free_energy,
    linear_report,
    mu_of_q,
    q_max_lin,
    q_of_mu,
    regime_classify,
)


def test_hydrogen_level_values():
    lv = hydrogen_level(2.0, 1)
    assert (lv.lambda_j, lv.multiplicity) == (-1.0, 1)
    lv = hydrogen_level(2.0, 2)
    assert (lv.lambda_j, lv.multiplicity) == (-0.25, 4)
    lv = hydrogen_level(1.0, 3)
    assert lv.lambda_j == pytest.approx(-1.0 / 36.0, abs=1e-18)
    assert lv.multiplicity == 9


def test_hydrogen_level_errors():
    with pytest.raises(ValueError):
        hydrogen_level(1.0, 0)
    with pytest.raises(ValueError):
        hydrogen_level(0.0, 1)
    with pytest.raises(ValueError):
        hydrogen_level(math.nan, 1)


def test_hydrogen_level_refuses_a_non_integral_level():
    # j = 1.5 is no level: it gave lambda_j = -1/9 with multiplicity 2.25
    with pytest.raises(ValueError, match="integer j"):
        hydrogen_level(1.0, 1.5)
    assert hydrogen_level(1.0, np.int64(2)).multiplicity == 4


def test_hydrogen_level_refuses_an_infinite_charge():
    # Z = inf gave lambda_j = -inf
    with pytest.raises(ValueError, match="finite Z"):
        hydrogen_level(math.inf, 1)


def test_nan_arguments_are_refused():
    spec = make_power_entropy(2.0)
    with pytest.raises(ValueError, match="q >= 0"):
        mu_of_q(spec, 1.0, 1.0, math.nan)
    with pytest.raises(ValueError, match="mu <= 0"):
        q_of_mu(spec, 1.0, 1.0, math.nan)
    for Z, T in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite Z > 0 and T > 0"):
            q_max_lin(spec, Z, T)
        with pytest.raises(ValueError, match="finite Z > 0 and T > 0"):
            guaranteed_existence_qmax(spec, Z, T)
        with pytest.raises(ValueError, match="finite Z > 0 and T > 0"):
            linear_report(spec, Z, T)
    for Z, T in ((math.nan, 1.0), (-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="finite Z > 0 and T > 0"):
            q_of_mu(spec, Z, T, -0.5)


def test_regime_table():
    assert regime_classify(1.4) is Regime.FINITE_QMAX
    assert regime_classify(2.0) is Regime.INFINITE_QMAX
    assert regime_classify(5.0 / 3.0) is Regime.INFINITE_QMAX
    assert regime_classify(3.0) is Regime.UNBOUNDED
    assert regime_classify(4.5) is Regime.UNBOUNDED
    with pytest.raises(ValueError, match="m > 1"):
        regime_classify(1.0)


def test_ground_free_energy_m2():
    spec = make_power_entropy(2.0)
    res = linear_ground_free_energy(spec, Z=2.0, T=1.0)
    assert res.value == pytest.approx(-math.pi**2 / 24.0, abs=1e-9)
    assert res.value < 0.0
    assert res.tail_bound < 1e-9


def test_ground_free_energy_m15():
    # beta*(lam) = -0.5*(-lam/1.5)**3 on the window, so the term is
    # j^2 * (-1/(432 j^6)) and the sum is -zeta(4)/432.
    spec = make_power_entropy(1.5)
    res = linear_ground_free_energy(spec, Z=1.0, T=1.0)
    assert res.value == pytest.approx(-(math.pi**4 / 90.0) / 432.0, rel=1e-9)


def test_ground_free_energy_vanishing_charge():
    spec = make_power_entropy(2.0)
    res = linear_ground_free_energy(spec, Z=1e-4, T=1.0)
    assert -1e-9 < res.value < 0.0


def test_ground_free_energy_temperature_scaling():
    # per level the minimum of lam*nu + T*beta(nu) is T*beta*(lam/T); for
    # m=2 with no saturated level this collapses to -Z^4 zeta(2)/(64 T)
    spec = make_power_entropy(2.0)
    for Z, T in ((2.0, 2.0), (1.0, 0.5), (3.0, 4.0)):
        assert T > Z * Z / 8.0  # keeps every level in the closed-form window
        res = linear_ground_free_energy(spec, Z=Z, T=T)
        closed = -(Z**4) * (math.pi**2 / 6.0) / (64.0 * T)
        assert res.value == pytest.approx(closed, rel=1e-9)


def test_ground_level_terms_match_scalar_minimization():
    # independent oracle: each level's contribution is the scalar minimum of
    # nu -> lam*nu + T*beta(nu), found by golden section (cancellation-free
    # comparison, see test_entropy.golden_argmin for the rationale)
    import math as _math

    spec = make_power_entropy(1.7)
    Z, T, m = 1.0, 1.5, 1.7
    invphi = (_math.sqrt(5.0) - 1.0) / 2.0
    for j in (1, 2, 5, 12, 40):
        lam = -Z * Z / (4.0 * j * j)
        a, b = 0.0, 1.0
        for _ in range(110):
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            pow_diff = d**m * np.expm1(m * np.log1p((c - d) / d)) if d > 0 else 0.0
            if lam * (c - d) + T * pow_diff < 0.0:
                b = d
            else:
                a = c
        nu_star = 0.5 * (a + b)
        oracle = lam * nu_star + T * nu_star**m
        term = T * float(spec.beta_star(lam / T))
        assert term == pytest.approx(oracle, abs=1e-13)


def test_ground_free_energy_unbounded():
    spec = make_power_entropy(3.0)
    with pytest.raises(UnboundedModelError):
        linear_ground_free_energy(spec, Z=1.0, T=1.0)


def test_q_max_lin_m15():
    spec = make_power_entropy(1.5)
    res = q_max_lin(spec, Z=1.0, T=1.0)
    assert res.value == pytest.approx((math.pi**2 / 6.0) / 36.0, abs=1e-9)


def test_q_max_lin_infinite_for_m2():
    spec = make_power_entropy(2.0)
    assert math.isinf(q_max_lin(spec, Z=1.0, T=1.0).value)


def test_q_max_lin_vanishes_at_high_temperature():
    spec = make_power_entropy(1.5)
    assert q_max_lin(spec, Z=1.0, T=1e8).value < 1e-10


def test_q_max_lin_closed_form_against_zeta():
    # For T > Z^2/(4m) no level saturates and the sum factorizes into
    # (Z^2/(4Tm))^(1/(m-1)) * zeta(2/(m-1) - 2).
    for m, Z, T in ((1.5, 1.0, 1.0), (1.4, 1.0, 1.0), (1.6, 2.0, 3.0)):
        spec = make_power_entropy(m)
        assert T > Z * Z / (4.0 * m)
        s = 2.0 / (m - 1.0) - 2.0
        closed = (Z * Z / (4.0 * T * m)) ** (1.0 / (m - 1.0)) * zeta(s)
        assert q_max_lin(spec, Z, T).value == pytest.approx(closed, rel=1e-9)


def _enclosure(term, coeff, p, n_terms=200_000):
    """Direct sum of the first n_terms terms plus the integral enclosure of
    the rest, whose terms are coeff * j**p and decreasing; no zeta call."""
    j = np.arange(1, n_terms + 1, dtype=float)
    terms = term(j)
    # the remainder formula holds only if the summed terms have reached the power law
    assert terms[-1] == pytest.approx(coeff * n_terms**p, rel=1e-12)
    partial = float(np.sum(terms))
    lower = partial + coeff * (n_terms + 1.0) ** (p + 1.0) / (-1.0 - p)
    upper = partial + coeff * float(n_terms) ** (p + 1.0) / (-1.0 - p)
    return lower, upper


def _inside(value, enclosure):
    lower, upper = enclosure
    slack = 1e-13 * abs(value)
    return lower - slack <= value <= upper + slack


@pytest.mark.parametrize("m", [1.2, 1.5, 2.0, 2.5, 2.9])
@pytest.mark.parametrize("Z,T", [(1.0, 1.0), (5.0, 0.1), (40.0, 0.01)])
def test_closed_form_series_inside_direct_enclosure(m, Z, T):
    # (1, 1) saturates no level; (40, 0.01) saturates up to 182 of them
    spec = make_power_entropy(m)
    c = Z * Z / (4.0 * T)
    p = -2.0 / (m - 1.0)
    g_coeff = (c / m) ** (1.0 / (m - 1.0))

    a4 = validate_a4(spec, Z, T)
    assert a4.converges and a4.tail_bound == 0.0
    a4_terms = lambda j: j**2 * np.abs(spec.beta_star(-c / j**2))
    a4_coeff = (m - 1.0) * (c / m) ** (m / (m - 1.0))
    assert _inside(a4.value, _enclosure(a4_terms, a4_coeff, p))

    unweighted = _g_series(spec, Z, T, 0).value
    assert _inside(unweighted, _enclosure(lambda j: spec.g(-c / j**2), g_coeff, p))

    qmax = q_max_lin(spec, Z, T)
    if m < 5.0 / 3.0:
        assert qmax.tail_bound == 0.0
        qmax_terms = lambda j: j**2 * spec.g(-c / j**2)
        assert _inside(qmax.value, _enclosure(qmax_terms, g_coeff, p + 2.0))
    else:
        assert math.isinf(qmax.value) and math.isinf(qmax.tail_bound)


def test_scipy_special_loaded_only_to_sum_a_tail():
    # scipy.special adds ~0.3 s to every start; importing the package and the
    # divergent q_max_lin of a solver run (m = 2) must not pull it in
    import fermitherm

    probe = (
        "import sys, fermitherm.cli\n"
        "from fermitherm import make_power_entropy, q_max_lin\n"
        "assert q_max_lin(make_power_entropy(2.0), 1.0, 1.0).value == float('inf')\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    src = str(Path(fermitherm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_q_of_mu_single_level():
    spec = make_power_entropy(2.0)
    # only j=1 sits below mu = -0.2; g(-0.05) = 0.025
    assert q_of_mu(spec, 1.0, 1.0, -0.2) == pytest.approx(0.025, abs=1e-15)


def test_q_of_mu_zero_when_mu_below_spectrum():
    spec = make_power_entropy(2.0)
    assert q_of_mu(spec, 1.0, 1.0, -2.0) == 0.0


def test_q_of_mu_approaches_q_max_lin():
    spec = make_power_entropy(1.5)
    qmax = q_max_lin(spec, 1.0, 1.0).value
    assert q_of_mu(spec, 1.0, 1.0, -1e-10) == pytest.approx(qmax, abs=1e-4)
    assert q_of_mu(spec, 1.0, 1.0, 0.0) == qmax


def test_q_of_mu_nondecreasing():
    spec = make_power_entropy(1.5)
    mus = np.linspace(-1.0, -1e-6, 60)
    vals = [q_of_mu(spec, 1.0, 1.0, mu) for mu in mus]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def level_sum_q(spec, Z, T, mu):
    """sum_j j^2 g((lambda_j - mu)/T) over every level below mu, one by one."""
    j = np.arange(1, math.floor(Z / (2.0 * math.sqrt(-mu))) + 1, dtype=float)
    return float(np.sum(j**2 * spec.g((-Z * Z / (4.0 * j**2) - mu) / T)))


@pytest.mark.parametrize("m", [1.2, 1.4, 1.5, 5.0 / 3.0, 2.0, 2.5, 2.95, 4.0])
@pytest.mark.parametrize("Z, T", [(1.0, 1.0), (2.0, 0.1), (30.0, 0.01)])
def test_q_of_mu_tail_matches_the_level_sum(m, Z, T):
    # past a few thousand unsaturated levels the sum takes its Euler-Maclaurin
    # tail; up to 1.5e6 levels, some of them saturated, against the plain sum
    spec = make_power_entropy(m)
    for mu in (-Z * Z / 4e3, -Z * Z / 4e7, -Z * Z / 4e9, -Z * Z / 9e12):
        want = level_sum_q(spec, Z, T, mu)
        assert abs(q_of_mu(spec, Z, T, mu) - want) <= 1e-12 * want, mu


@pytest.mark.parametrize("mu", [-1e-300, -5e-324])
def test_q_of_mu_is_bounded_in_time_as_mu_approaches_zero(mu):
    # J = 5e149 levels below mu = -1e-300, 2e161 below the smallest subnormal;
    # at m = 2 the sum is the polynomial (c J - s J (J + 1) (2J + 1) / 6) / 2
    # with c = Z^2/(4T), s = -mu/T
    spec = make_power_entropy(2.0)
    start = time.perf_counter()
    got = q_of_mu(spec, 1.0, 1.0, mu)
    assert time.perf_counter() - start < 0.1
    levels = math.floor(0.5 / math.sqrt(-mu))
    want = (0.25 * levels + mu * levels * (levels + 1) * (2 * levels + 1) / 6) / 2
    assert abs(got - want) <= 1e-12 * want
    # a summable tail tends to q_max_lin; a sum past the float range raises
    spec = make_power_entropy(1.5)
    got = q_of_mu(spec, 1.0, 1.0, mu)
    assert abs(got - q_max_lin(spec, 1.0, 1.0).value) <= 1e-12 * got
    with pytest.raises(OverflowError):
        q_of_mu(make_power_entropy(4.0), 1.0, 1.0, mu)


def test_mu_of_q_inverts_example():
    spec = make_power_entropy(2.0)
    assert mu_of_q(spec, 1.0, 1.0, 0.025) == pytest.approx(-0.2, abs=1e-9)


def test_mu_of_q_zero_sentinel():
    spec = make_power_entropy(2.0)
    assert mu_of_q(spec, 1.0, 1.0, 0.0) == -math.inf


def test_mu_of_q_unreachable():
    spec = make_power_entropy(1.5)
    with pytest.raises(UnreachableChargeError):
        mu_of_q(spec, 1.0, 1.0, 0.1)  # above q_max_lin ~ 0.0457


def test_mu_of_q_roundtrip():
    spec = make_power_entropy(1.5)
    rng = np.random.default_rng(2)
    for mu in rng.uniform(-0.3, -0.02, size=8):
        q = q_of_mu(spec, 1.0, 1.0, mu)
        if q == 0.0:
            continue
        assert mu_of_q(spec, 1.0, 1.0, q) == pytest.approx(mu, abs=1e-8)


def test_mu_of_q_stops_at_adjacent_floats(monkeypatch):
    # q ~ 5.5e6: the bisection closes its bracket to adjacent floats, where
    # q(mu) still misses q by 2.8e-9 in rounding alone
    from fermitherm import linear

    spec, Z, T = make_power_entropy(1.6), 30.0, 0.01
    q = 0.99 * q_max_lin(spec, Z, T).value
    calls = []

    def counted(*args):
        calls.append(args)
        return q_of_mu(*args)

    monkeypatch.setattr(linear, "q_of_mu", counted)
    mu = mu_of_q(spec, Z, T, q)
    assert 0 < len(calls) < 200
    # q(mu) and q at the float next to mu on the other side straddle q
    below = q_of_mu(spec, Z, T, mu) < q
    other = math.nextafter(mu, 0.0 if below else -math.inf)
    assert (q_of_mu(spec, Z, T, other) < q) is not below


@pytest.mark.parametrize(
    "m, Z, T, q, J",
    [(2.0, 1.0, 1.0, 0.025, 5), (2.0, 4.0, 0.1, 3.0, 40), (1.5, 2.0, 0.05, 1.5, 60),
     (2.5, 3.0, 0.2, 4.0, 60)],
)
def test_discrete_fill_of_hydrogen_levels_matches_mu_of_q(m, Z, T, q, J):
    # the charge fill of the exact spectrum and the analytic inverse bisect the
    # same sum to adjacent floats, so they agree to rounding
    from fermitherm.scf import occupations_from_levels

    spec = make_power_entropy(m)
    levels = [(-Z * Z / (4.0 * j * j), j * j) for j in range(1, J + 1)]
    mu = mu_of_q(spec, Z, T, q)
    assert Z / (2.0 * math.sqrt(-mu)) < J + 1  # every level below mu is listed
    filled_mu = occupations_from_levels(levels, spec, T, q)[0]
    assert abs(filled_mu - mu) <= 2.0 * math.ulp(mu)


@pytest.mark.parametrize(
    "m, Z, T", [(2.0, 1.0, 1.0), (1.5, 1.0, 1.0), (2.5, 5.0, 0.2), (1.2, 0.1, 0.01)]
)
def test_guaranteed_qmax_is_the_largest_float_below_its_bound(m, Z, T):
    spec = make_power_entropy(m)

    def rhs(q):  # the right side as guaranteed_existence_qmax builds it
        return min(_g_series(spec, Z - q, T, 0).value, Z) if q < Z else 0.0

    q = guaranteed_existence_qmax(spec, Z, T)
    above = math.nextafter(q, math.inf)
    assert q <= rhs(q)
    assert above > rhs(above)


def test_guaranteed_qmax_m2():
    # closed form: rhs = (1-q)^2 zeta(2)/8, crossing of q = c(1-q)^2
    spec = make_power_entropy(2.0)
    c = (math.pi**2 / 6.0) / 8.0
    root = (1.0 + 2.0 * c - math.sqrt(4.0 * c + 1.0)) / (2.0 * c)
    got = guaranteed_existence_qmax(spec, 1.0, 1.0)
    assert got == pytest.approx(root, abs=1e-10)
    assert got == pytest.approx(0.148932, abs=5e-6)


def test_guaranteed_qmax_shrinks_with_temperature():
    spec = make_power_entropy(2.0)
    q1 = guaranteed_existence_qmax(spec, 1.0, 1.0)
    q2 = guaranteed_existence_qmax(spec, 1.0, 100.0)
    q3 = guaranteed_existence_qmax(spec, 1.0, 10000.0)
    assert q1 > q2 > q3
    assert q3 < 1e-3


def test_guaranteed_qmax_capped_by_Z():
    spec = make_power_entropy(2.0)
    for Z, T in ((1.0, 1.0), (0.1, 0.01), (5.0, 0.2)):
        assert guaranteed_existence_qmax(spec, Z, T) <= Z


def test_guaranteed_qmax_below_q_max_lin_when_finite():
    spec = make_power_entropy(1.5)
    q_g = guaranteed_existence_qmax(spec, 1.0, 1.0)
    q_m = q_max_lin(spec, 1.0, 1.0).value
    assert q_g <= q_m


def test_linear_report_composes():
    spec = make_power_entropy(2.0)
    rep = linear_report(spec, 1.0, 1.0)
    assert rep.regime is Regime.INFINITE_QMAX
    assert math.isinf(rep.q_max_lin.value)
    assert rep.ground_free_energy.value < 0.0
    assert rep.q_guaranteed == pytest.approx(0.148932, abs=5e-6)


def test_linear_report_unbounded_regime():
    spec = make_power_entropy(3.5)
    rep = linear_report(spec, 1.0, 1.0)
    assert rep.regime is Regime.UNBOUNDED
    assert rep.ground_free_energy.value == -math.inf
