"""Confluent hypergeometric kernel and the square-root model's psi ratios.

The reference oracle is the defining Taylor series evaluated in exact
rational arithmetic, so it is correct to the final float conversion and
shares no code with the implementation under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from buildlag.boundary import Boundary, cir_tangent
from buildlag.demand import CIR
from buildlag.errors import DomainError, NumericsError
from buildlag.kummer import (
    Z_SWITCH,
    _lgamma,
    _m_log,
    kummer_m,
    kummer_m_log,
    kummer_m_prime,
    psi_over_psi_prime,
    psi_ratio_second,
)

REF = CIR(gamma=0.8, delta=20.0, sigma=0.2)
RHO = 0.08


def series_oracle(a: float, b: float, z: float) -> float:
    """M(a,b,z) summed in exact rationals; Fraction(x) is the exact binary
    value of the float, so the oracle evaluates the same point the
    implementation sees.

    The sum stops once the whole remaining tail is provably below 1e-30 of
    it: for k >= s each term ratio (a+k) z / ((b+k)(k+1)) is at most
    q = max(1, (a+s)/(b+s)) z/(s+1), so the terms from T_s on sum to at
    most T_s / (1-q)."""
    assert a > 0 and b > 0 and z >= 0, "the bound needs positive terms"
    a, b, z = Fraction(a), Fraction(b), Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    s = 0
    while True:
        q = max(Fraction(1), (a + s) / (b + s)) * z / (s + 1)
        if q < 1 and term / (1 - q) < Fraction(1, 10**30) * total:
            return float(total)
        total += term
        term *= (a + s) * z / ((b + s) * (s + 1))
        s += 1


def test_value_at_zero_is_one():
    assert kummer_m(1.3, 4.5, 0.0) == 1.0
    assert kummer_m_log(1.3, 4.5, 0.0) == 0.0


def test_equal_parameters_give_exponential():
    assert kummer_m(1.7, 1.7, 3.0) == pytest.approx(math.exp(3.0), rel=1e-12)


def test_m_1_2_is_expm1_over_z():
    want = (math.exp(0.5) - 1.0) / 0.5
    assert kummer_m(1.0, 2.0, 0.5) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(1.2974425414002564, rel=1e-14)


@pytest.mark.parametrize(
    "a,b,z",
    [
        (0.5, 1.5, 0.1),
        (1.1, 2.2, 3.3),
        (2.0, 7.0, 25.0),
        (0.1, 801.0, 45.0),
        (3.7, 0.4, 10.0),
    ],
)
def test_series_region_against_rational_oracle(a, b, z):
    assert kummer_m(a, b, z) == pytest.approx(series_oracle(a, b, z), rel=1e-10)


@pytest.mark.parametrize("z", [40.0, 45.0, 49.9, 50.1, 55.0, 60.0])
def test_branch_agreement_near_switch(z):
    # both evaluation branches are exercised within +-20% of Z_SWITCH; each
    # must sit on the oracle, hence within 1e-7 of the other
    assert 0.8 * Z_SWITCH <= z <= 1.2 * Z_SWITCH
    for a, b in [(1.1, 2.2), (2.5, 5.0), (0.3, 1.7)]:
        want = series_oracle(a, b, z)
        assert kummer_m(a, b, z) == pytest.approx(want, rel=1e-7)


def test_log_form_tracks_scipy_into_large_z():
    # scipy's hyp1f1 is an independent implementation and stays finite in
    # this range; the exact-rational oracle would be too slow here
    from scipy.special import hyp1f1

    for z in (80.0, 200.0, 600.0):
        want = math.log(hyp1f1(1.1, 2.2, z))
        assert kummer_m_log(1.1, 2.2, z) == pytest.approx(want, rel=1e-10)


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


# each branch of Cephes lgam, with its end points
LGAMMA_BRANCHES = {
    "below 2": (lambda rng: _log_uniform(rng, 1e-300, 2.0, 3000), [5e-324, 1.0, 1.5]),
    "2 to 3": (lambda rng: rng.uniform(2.0, 3.0, 3000), [2.0, 2.5, np.nextafter(3.0, 0.0)]),
    "3 to 13": (lambda rng: rng.uniform(3.0, 13.0, 3000), [3.0, 4.0, np.nextafter(13.0, 0.0)]),
    "13 to 1000": (lambda rng: rng.uniform(13.0, 1000.0, 3000),
                   [13.0, 81.99999999999999, np.nextafter(1000.0, 0.0)]),
    "1000 to 1e8": (lambda rng: _log_uniform(rng, 1000.0, 1e8, 3000),
                    [1000.0, 12800.999999999998, 1e8]),
    "above 1e8": (lambda rng: _log_uniform(rng, 1e8, 1e300, 3000),
                  [np.nextafter(1e8, np.inf), 1e300]),
}

# the (a, b) pairs the figure run hands the large-z form, as the floats
# _cir_abx forms them
FIGURE_AB = [(1.1, 12800.999999999998), (1.1, 3200.9999999999995),
             (2.1, 801.9999999999999), (1.1, 800.9999999999999),
             (3.0, 81.99999999999999), (2.0, 80.99999999999999)]


@pytest.mark.parametrize("branch", sorted(LGAMMA_BRANCHES))
def test_lgamma_equals_scipy_gammaln_bit_for_bit(branch):
    from scipy.special import gammaln

    draw, edges = LGAMMA_BRANCHES[branch]
    x = np.concatenate([draw(np.random.default_rng(7)), edges])
    got = np.array([_lgamma(v) for v in x.tolist()])
    bad = got != gammaln(x)
    assert not bad.any(), f"{bad.sum()} mismatches, first at x={x[bad][0]!r}"


def test_lgamma_equals_scipy_gammaln_on_the_figure_pairs():
    from scipy.special import gammaln

    for a, b in FIGURE_AB:
        assert (_lgamma(a), _lgamma(b)) == (gammaln(a), gammaln(b))


def test_log_form_finite_at_extreme_z():
    # x = 2 gamma d / sigma^2 reaches ~1e6 at plot scales
    lv = kummer_m_log(1.1, 801.0, 1.0e6)
    assert math.isfinite(lv) and lv > 0.0


def test_overflow_reported_not_saturated():
    with pytest.raises(OverflowError):
        kummer_m(1.1, 2.2, 800.0)


@pytest.mark.parametrize("b, z", [(3.2e11, 6.4e11), (3.2e201, 3.2e201)],
                         ids=["past-the-cap", "infinite-count"])
def test_log_series_checks_its_term_cap_before_sizing_a_table(b, z, monkeypatch):
    # the points cir-fast reaches at sigma 1e-5 and 1e-100: the peak term
    # needs ~3e11 terms, or a count that overflows to inf
    arange = np.arange

    def capped(n, *args, **kwargs):
        assert n <= 100_000_000, f"a table of {n} terms"
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", capped)
    with pytest.raises(NumericsError, match=r"M\(2\.1,"):
        kummer_m_log(2.1, b, z)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        kummer_m(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        kummer_m(1.0, 2.0, -0.5)


# ---------------------------------------------------------------------------
# Derivative and the contiguous identity
# ---------------------------------------------------------------------------


def test_prime_at_zero_is_a_over_b():
    assert kummer_m_prime(1.3, 4.0, 0.0) == pytest.approx(1.3 / 4.0, rel=1e-14)


def test_prime_equal_parameters_exponential():
    assert kummer_m_prime(2.5, 2.5, 1.0) == pytest.approx(math.e, rel=1e-11)


def _identity_residual(a, b, z):
    """|z M' - a (M(a+1,b,z) - M(a,b,z))| relative to |z M'|."""
    lhs = z * kummer_m_prime(a, b, z)
    rhs = a * (kummer_m(a + 1.0, b, z) - kummer_m(a, b, z))
    return abs(lhs - rhs) / abs(lhs)


def test_contiguous_identity_at_reference_point():
    assert _identity_residual(1.1, 2.2, 3.3) < 1e-8


def test_contiguous_identity_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(0.2, 10.0)
        z = rng.uniform(0.01, 60.0)
        assert _identity_residual(a, b, z) < 1e-8


def test_prime_against_central_difference():
    a, b, z = 1.4, 3.1, 7.0
    eps = 1e-6
    fd = (kummer_m(a, b, z + eps) - kummer_m(a, b, z - eps)) / (2 * eps)
    assert kummer_m_prime(a, b, z) == pytest.approx(fd, rel=1e-8)


# ---------------------------------------------------------------------------
# psi ratios
# ---------------------------------------------------------------------------


def test_psi_over_psi_prime_limit():
    # kappa_1 = sigma^2 / (2 gamma) = 0.025 at the reference parameters
    got = psi_over_psi_prime(REF, RHO, 1.0e4)
    assert got == pytest.approx(REF.sigma**2 / (2.0 * REF.gamma), rel=1e-2)


def test_psi_over_psi_prime_decreasing_toward_limit():
    # psi(0) = 1 and psi'(0) = rho/(gamma delta), so the ratio starts at
    # gamma delta / rho = 200 and falls toward the limit from above
    start = psi_over_psi_prime(REF, RHO, 1e-8)
    assert start == pytest.approx(REF.gamma * REF.delta / RHO, rel=1e-6)
    grid = [1e-8, 1.0, 10.0, 100.0, 1e4]
    vals = [psi_over_psi_prime(REF, RHO, d) for d in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > REF.sigma**2 / (2.0 * REF.gamma)


def test_psi_ratio_second_positive_random_draws():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = rng.uniform(0.05, 2.0)
        dl = rng.uniform(1.0, 50.0)
        s = min(rng.uniform(0.05, 1.0), 0.99 * math.sqrt(2.0 * g * dl))
        rho = rng.uniform(0.01, 0.3)
        d = rng.uniform(1e-3, 100.0)
        assert psi_ratio_second(CIR(g, dl, s), rho, d) > 0.0


def test_psi_ratio_second_drives_tangent_slope():
    """Near the origin the full boundary must have the tangent's slope: a
    finite-difference slope of chat at d = 1e-6 against the closed form."""
    h, q0 = 8.0, 1.0
    bound = Boundary(REF, RHO, h, q0)
    d = 1e-6
    eps = 1e-7
    fd = float((bound.eval(np.asarray(d + eps)) - bound.eval(np.asarray(d - eps))) / (2 * eps))
    slope = float(
        cir_tangent(REF, RHO, h, q0, 1.0) - cir_tangent(REF, RHO, h, q0, 0.0)
    )
    assert fd == pytest.approx(slope, rel=1e-4)


def test_psi_convexity_on_dense_grid():
    """psi itself (reconstructed from the log values) is positive, strictly
    increasing, and convex."""
    a = RHO / REF.gamma
    b = 2.0 * REF.gamma * REF.delta / REF.sigma**2
    x = 2.0 * REF.gamma / REF.sigma**2
    d = np.linspace(0.05, 60.0, 200)
    logpsi = np.array([kummer_m_log(a, b, x * di) for di in d])
    # constant rescaling keeps all three properties and avoids overflow
    psi = np.exp(logpsi - logpsi.max() + 50.0)
    assert np.all(psi > 0.0)
    assert np.all(np.diff(psi) > 0.0)
    assert np.all(np.diff(psi, 2) > -1e-12 * psi[:-2])


# ---------------------------------------------------------------------------
# Bit-for-bit values of every regime
#
# float.hex values recorded from the one-point implementation that preceded
# the array evaluation; the array code must reproduce them exactly.  The
# comments name the regime each point takes (b = 12801 is the square-root
# model at sigma = 0.05, where the asymptotic form is often rejected and the
# log-series often needs more terms than its first guess).
# ---------------------------------------------------------------------------

LOG_M_HEX = [
    ((1.3, 4.5, 0.0), "0x0.0p+0"),  # z = 0
    ((0.1, 801.0, 45.0), "0x1.7ae9113cfad9ap-8"),  # Taylor
    ((1.1, 2.2, 49.9), "0x1.6df2c87070bb4p+5"),  # Taylor, just below Z_SWITCH
    ((1.1, 2.2, 50.0), "0x1.6ebb150f84f4cp+5"),  # asymptotic, at Z_SWITCH
    ((1.1, 2.2, 50.1), "0x1.6f8363faa4259p+5"),  # asymptotic, just above
    ((1.1, 801.0, 100.0), "0x1.2c5b98d5f8de9p-3"),  # log-series, asymptotic not tried
    ((1.1, 12801.0, 13555.553125), "0x1.bd1659570b12cp+4"),  # asymptotic accepted
    ((1.1, 12801.0, 5131.0796875), "0x1.2075c19708dffp-1"),  # asymptotic rejected
    ((1.1, 12801.0, 9155.828125), "0x1.6193f268487f0p+0"),  # rejected, terms doubled once
    ((2.1, 12802.0, 10905.71875), "0x1.0021f20c0536cp+2"),  # terms doubled twice
    ((1.1, 12801.0, 12030.6484375), "0x1.8908259a0ba43p+1"),  # rejected, doubled 3 times
]

# Boundary(CIR(0.8, 20, sigma), 0.08, h=1, q0=1).precautionary(d)
PRECAUTIONARY_HEX = {
    0.05: [
        (0.0, "0x0.0p+0"),
        (0.01, "0x1.7915609d3140bp-22"),
        (0.1, "0x1.d97c513ce41e7p-19"),
        (8.0, "0x1.eaa23f058d255p-12"),
        (14.0, "0x1.acc7fafa1356ep-10"),
        (17.0, "0x1.0301a50361164p-8"),
        (18.8, "0x1.5a00cf1f98297p-7"),
        (21.2, "0x1.f71eb46d61804p-2"),
        (40.0, "0x1.056e8d75a8689p+3"),
    ],
    0.2: [
        (0.0, "0x0.0p+0"),
        (0.5, "0x1.2d9d876798c81p-12"),
        (5.0, "0x1.e9673cda9f907p-9"),
        (10.0, "0x1.6d4882281d5d6p-7"),
        (20.0, "0x1.f360cdfe2e588p-3"),
        (160.0, "0x1.c98206f0b62cbp+5"),
    ],
}


@pytest.mark.parametrize("abz,want", LOG_M_HEX)
def test_log_m_is_bitwise_unchanged_in_every_regime(abz, want):
    assert kummer_m_log(*abz).hex() == want


@pytest.mark.parametrize("sigma", sorted(PRECAUTIONARY_HEX))
def test_precautionary_is_bitwise_unchanged(sigma):
    bound = Boundary(CIR(0.8, 20.0, sigma), RHO, 1.0, 1.0)
    d, want = zip(*PRECAUTIONARY_HEX[sigma])
    assert [float(v).hex() for v in bound.precautionary(np.array(d))] == list(want)
    assert [bound.precautionary(x).hex() for x in d] == list(want)


@pytest.mark.parametrize("b", [2.2, 801.0, 12801.0])
def test_array_call_equals_one_point_calls(b):
    z = np.concatenate([[0.0], np.linspace(0.5, 60.0, 41), np.linspace(50.0, 14000.0, 57)])
    got = _m_log(1.1, b, z)
    want = [kummer_m_log(1.1, b, float(x)) for x in z]
    assert [float(v).hex() for v in got] == [w.hex() for w in want]


def test_psi_ratios_take_arrays():
    d = np.array([[1e-8, 0.5], [20.0, 1e4]])
    for fn in (psi_ratio_second, psi_over_psi_prime):
        got = fn(REF, RHO, d)
        assert got.shape == d.shape
        assert [v.hex() for v in got.ravel().tolist()] == [
            fn(REF, RHO, float(x)).hex() for x in d.ravel()]
        assert isinstance(fn(REF, RHO, 3.0), float)
    with pytest.raises(DomainError):
        psi_ratio_second(REF, RHO, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi_ratio_second(REF, RHO, np.array([1.0, np.inf]))
