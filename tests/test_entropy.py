import math

import numpy as np
import pytest

from fermitherm.entropy import (
    InvalidExponentError,
    OccupationDomainError,
    make_power_entropy,
    validate_a4,
)


def golden_argmin(lam, m, iterations=110):
    """Independent argmin oracle for nu -> lam*nu + nu**m on [0, 1].

    Plain golden-section search, vectorized over lam; interval shrinks by
    0.618 per iteration so 110 iterations reach ~1e-23.  The comparison is
    done on f(c) - f(d) in the cancellation-free form lam*(c-d) + (c^m - d^m)
    so the bracketing stays reliable far below sqrt(machine eps).
    """
    lam = np.asarray(lam, dtype=float)
    a = np.zeros_like(lam)
    b = np.ones_like(lam)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iterations):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        # c^m - d^m via expm1/log1p (c < d always holds here)
        safe_d = np.where(d > 0.0, d, 1.0)
        pow_diff = np.where(
            d > 0.0, safe_d**m * np.expm1(m * np.log1p((c - d) / safe_d)), 0.0
        )
        df = lam * (c - d) + pow_diff
        left = df < 0.0  # f(c) < f(d)
        b = np.where(left, d, b)
        a = np.where(left, a, c)
    return 0.5 * (a + b)


def test_make_power_entropy_basic():
    spec = make_power_entropy(2.0)
    assert spec.family == "power"
    assert spec.saturation_lambda == -2.0
    assert spec.a4_status == "conditional"


def test_make_power_entropy_m3_flagged():
    assert make_power_entropy(3.0).a4_status == "violated"
    assert make_power_entropy(3.7).a4_status == "violated"


def test_make_power_entropy_rejects_m_at_most_one():
    with pytest.raises(InvalidExponentError):
        make_power_entropy(1.0)
    with pytest.raises(InvalidExponentError):
        make_power_entropy(0.5)


def test_beta_values():
    spec = make_power_entropy(2.0)
    assert spec.beta(0.5) == 0.25
    assert spec.beta(0.0) == 0.0
    assert make_power_entropy(1.5).beta(1.0) == 1.0


def test_beta_domain_error():
    spec = make_power_entropy(2.0)
    with pytest.raises(OccupationDomainError):
        spec.beta(-0.01)
    with pytest.raises(OccupationDomainError):
        spec.beta(1.01)
    with pytest.raises(OccupationDomainError):
        spec.beta(np.array([0.2, 1.5]))


def test_g_values():
    spec = make_power_entropy(2.0)
    assert spec.g(-1.0) == 0.5
    assert spec.g(0.7) == 0.0
    assert spec.g(-4.0) == 1.0
    assert spec.g(0.0) == 0.0


def test_beta_star_values():
    spec = make_power_entropy(2.0)
    assert spec.beta_star(-1.0) == pytest.approx(-0.25, abs=1e-15)
    assert spec.beta_star(1.0) == 0.0
    # saturated branch: lam*1 + beta(1)
    assert spec.beta_star(-3.0) == pytest.approx(-2.0, abs=1e-15)


def test_beta_star_matches_closed_form_on_window():
    for m in (1.3, 1.5, 2.0, 2.7):
        spec = make_power_entropy(m)
        lam = np.linspace(-m + 1e-9, -1e-9, 500)
        closed = -(m - 1.0) * (-lam / m) ** (m / (m - 1.0))
        assert np.max(np.abs(spec.beta_star(lam) - closed)) < 1e-12


def test_g_matches_argmin_oracle():
    rng = np.random.default_rng(7)
    for m in (1.5, 2.0, 2.5):
        spec = make_power_entropy(m)
        lam = rng.uniform(-10.0, 10.0, size=200)
        assert np.max(np.abs(spec.g(lam) - golden_argmin(lam, m))) < 1e-10


def test_beta_star_saturated_matches_grid_argmin():
    # lam <= -m: value of the minimized objective at the oracle argmin
    spec = make_power_entropy(2.0)
    for lam in (-3.0, -2.0, -7.5):
        nu = float(golden_argmin(lam, 2.0))
        assert spec.beta_star(lam) == pytest.approx(lam * nu + nu**2, abs=1e-9)


def test_legendre_identity():
    rng = np.random.default_rng(3)
    for m in (1.4, 2.0, 2.9):
        spec = make_power_entropy(m)
        lam = rng.uniform(-3.0 * m, 2.0, size=400)
        occ = spec.g(lam)
        ident = lam * occ + spec.beta(occ)
        assert np.max(np.abs(spec.beta_star(lam) - ident)) <= 1e-12


def test_g_monotone_nonincreasing():
    rng = np.random.default_rng(11)
    spec = make_power_entropy(1.8)
    pairs = np.sort(rng.uniform(-8.0, 4.0, size=(300, 2)), axis=1)
    g1 = spec.g(pairs[:, 0])
    g2 = spec.g(pairs[:, 1])
    assert np.all(g1 >= g2)
    assert np.all((g1 >= 0.0) & (g1 <= 1.0))


def test_beta_strictly_convex_midpoint():
    rng = np.random.default_rng(5)
    spec = make_power_entropy(2.2)
    x = rng.uniform(0.0, 1.0, size=100)
    y = rng.uniform(0.0, 1.0, size=100)
    keep = np.abs(x - y) > 1e-3
    x, y = x[keep], y[keep]
    mid = spec.beta(0.5 * (x + y))
    avg = 0.5 * (spec.beta(x) + spec.beta(y))
    assert np.all(mid < avg)


def test_beta_linear_upper_bound():
    # 0 <= beta(nu) <= beta(1)*nu, the trace-class workhorse bound
    nu = np.linspace(0.0, 1.0, 1001)
    for m in (1.2, 2.0, 2.9):
        spec = make_power_entropy(m)
        vals = spec.beta(nu)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= spec.beta(1.0) * nu + 1e-15)


def test_a4_m2_value():
    spec = make_power_entropy(2.0)
    report = validate_a4(spec, Z=2.0, T=1.0)
    assert report.converges
    assert report.value == pytest.approx(math.pi**2 / 24.0, abs=1e-9)


def test_a4_m3_diverges():
    spec = make_power_entropy(3.0)
    report = validate_a4(spec, Z=1.0, T=1.0)
    assert not report.converges
    assert math.isinf(report.tail_bound)


def test_a4_small_charge_high_temperature():
    spec = make_power_entropy(2.0)
    Z, T = 1e-3, 1e3
    report = validate_a4(spec, Z=Z, T=T)
    assert report.converges
    expected = Z**4 / (64.0 * T**2) * (math.pi**2 / 6.0)
    assert report.value == pytest.approx(expected, rel=1e-6)


def test_a4_requires_positive_inputs():
    spec = make_power_entropy(2.0)
    with pytest.raises(ValueError):
        validate_a4(spec, Z=0.0, T=1.0)
    with pytest.raises(ValueError):
        validate_a4(spec, Z=1.0, T=-1.0)


@pytest.mark.parametrize(
    "Z, T, named",
    [(math.nan, 1.0, "Z = nan"), (math.inf, 1.0, "Z = inf"), (1.0, math.nan, "T = nan"),
     (1.0, math.inf, "T = inf"), (1e200, 1.0, "overflows"), (1.0, 1e-320, "overflows")],
)
def test_a4_refuses_non_finite_and_overflowing_scale(Z, T, named):
    with pytest.raises(ValueError, match=named):
        validate_a4(make_power_entropy(2.0), Z=Z, T=T)


@pytest.mark.parametrize("m, T", [(2.0, 1e-200), (2.999, 1e-205)])
def test_a4_overflowing_value_raises(m, T):
    # c = Z^2/(4T) is finite; at m = 2 the power (c/m)**(m/(m-1)) overflows,
    # near m = 3 the zeta tail is ~1/(3-m) times that finite power
    with pytest.raises(OverflowError):
        validate_a4(make_power_entropy(m), Z=1.0, T=T)


@pytest.mark.parametrize("m", [math.inf, math.nan, -math.inf])
def test_power_entropy_refuses_non_finite_exponent(m):
    with pytest.raises(InvalidExponentError, match="m > 1"):
        make_power_entropy(m)


def test_maps_take_scalars_and_arrays_alike():
    spec = make_power_entropy(2.5)
    lam = np.array([-4.0, -1.0, -0.2, 0.0, 0.3])
    nu = np.array([0.0, 0.25, 1.0])
    for fn, grid in ((spec.g, lam), (spec.beta_star, lam), (spec.beta, nu), (spec.beta_prime, nu)):
        values = fn(grid)
        assert values.shape == grid.shape
        for x, value in zip(grid, values):
            scalar = fn(float(x))
            # NumPy's array loop and the scalar pow may differ in the last bit
            assert isinstance(scalar, np.float64)
            assert scalar == pytest.approx(value, rel=1e-15, abs=0.0)
        assert fn(grid.reshape(-1, 1)).shape == (grid.size, 1)
    with pytest.raises(OccupationDomainError):
        spec.beta_prime(1.5)
