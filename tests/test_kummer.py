"""Confluent hypergeometric kernel and the square-root model's psi ratios.

The reference oracle is the defining Taylor series evaluated in exact
rational arithmetic, so it is correct to the final float conversion and
shares no code with the implementation under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from buildlag import kummer
from buildlag.boundary import Boundary, cir_tangent, generic_boundary
from buildlag.demand import CIR
from buildlag.errors import DomainError, NumericsError
from buildlag.kummer import (
    Z_SWITCH,
    _m_log,
    kummer_m,
    kummer_m_log,
    kummer_m_prime,
    psi_over_psi_prime,
    psi_ratio_second,
)

REF = CIR(gamma=0.8, delta=20.0, sigma=0.2)
RHO = 0.08


def exact_series(a: float, b: float, z: float) -> Fraction:
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
            return total
        total += term
        term *= (a + s) * z / ((b + s) * (s + 1))
        s += 1


def series_oracle(a: float, b: float, z: float) -> float:
    return float(exact_series(a, b, z))


def log_series_oracle(a: float, b: float, z: float) -> float:
    """log M(a,b,z), also where M itself is past the float range."""
    total = exact_series(a, b, z)
    return math.log(total.numerator) - math.log(total.denominator)


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


def test_log_form_finite_at_extreme_z():
    # x = 2 gamma d / sigma^2 reaches ~1e6 at plot scales
    lv = kummer_m_log(1.1, 801.0, 1.0e6)
    assert math.isfinite(lv) and lv > 0.0


def test_overflow_reported_not_saturated():
    with pytest.raises(OverflowError):
        kummer_m(1.1, 2.2, 800.0)


@pytest.mark.filterwarnings("error")
def test_taylor_sum_past_the_float_range_falls_back_to_the_log_series():
    # z below Z_SWITCH, but a = rho/gamma in the thousands: M is ~e^982
    lv = kummer_m_log(8002.0, 4.0, 30.5)
    assert lv == pytest.approx(log_series_oracle(8002.0, 4.0, 30.5), rel=1e-13)
    with pytest.raises(OverflowError, match=r"log value 982\.15"):
        kummer_m(8002.0, 4.0, 30.5)
    # the square-root model at gamma 1e-5 reaches M(8002, 4, 40) at d = 2e6
    model = CIR(1e-5, 1e5, 1.0)
    closed = float(Boundary(model, RHO, 8.0, 1.0).eval(2e6))
    assert closed == pytest.approx(generic_boundary(model, RHO, 8.0, 1.0, 2e6), rel=1e-9)


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


# Log-series points whose window of terms starts above k = 0, with the
# number of times the window was doubled: M(0.1, 12800, x) is psi at
# sigma = 0.05 (x = 640 d), and M(8002, 4, z) is a Taylor sum past the
# float range.
WINDOWED = [
    (0.1, 12800.0, 16000.0),  # k = 1485..4905, doubled once
    (0.1, 12800.0, 19200.0),  # k = 4032..8762, doubled once
    (0.1, 12800.0, 25600.0),  # k = 11152..14443
    (0.1, 12800.0, 13568.0),  # doubled twice, down to k = 0
    (8002.0, 4.0, 20.0),  # k = 54..760
    (8002.0, 4.0, 49.9),  # k = 228..1081
]


@pytest.mark.filterwarnings("error")
def test_windowed_log_series_array_call_equals_one_point_calls():
    for a, b in {(a, b) for a, b, _ in WINDOWED}:
        z = np.array([zi for ai, bi, zi in WINDOWED if (ai, bi) == (a, b)])
        s, m = kummer._series_log(a, b, z)
        for i, zi in enumerate(z):
            s1, m1 = kummer._series_log(a, b, z[i:i + 1])
            assert s[i].hex() == s1[0].hex(), (a, b, zi)
            assert [v.hex() for v in m[:, i]] == [v.hex() for v in m1[:, 0]], (a, b, zi)


def test_log_series_sums_only_a_window_around_the_peak_term(monkeypatch):
    # the peak term is k = 12798; a sum from k = 0 would take 14,440 terms
    exp = np.exp
    sizes = []

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    kummer._series_log(0.1, 12800.0, np.array([25600.0]))
    assert len(sizes) == 1 and sizes[0] < 4000


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
# float.hex values that array and one-point calls must both reproduce
# exactly.  The comments name the regime each point takes (b = 12801 is the
# square-root model at sigma = 0.05, where the asymptotic form is often
# rejected and the log-series often needs a wider window than its first guess).
# ---------------------------------------------------------------------------

LOG_M_HEX = [
    ((1.3, 4.5, 0.0), "0x0.0p+0"),  # z = 0
    ((0.1, 801.0, 45.0), "0x1.7ae9113cfad9ap-8"),  # Taylor
    ((1.1, 2.2, 49.9), "0x1.6df2c87070bb4p+5"),  # Taylor, just below Z_SWITCH
    ((1.1, 2.2, 50.0), "0x1.6ebb150f84f4dp+5"),  # asymptotic, at Z_SWITCH
    ((1.1, 2.2, 50.1), "0x1.6f8363faa425ap+5"),  # asymptotic, just above
    ((1.1, 801.0, 100.0), "0x1.2c5b98d5f8de7p-3"),  # log-series, asymptotic not tried
    ((1.1, 12801.0, 13555.553125), "0x1.bd165956f1c0ap+4"),  # dropped part e^-28: log-series
    ((1.1, 12801.0, 5131.0796875), "0x1.2075c19708dfep-1"),  # asymptotic rejected
    ((1.1, 12801.0, 9155.828125), "0x1.6193f268487f0p+0"),  # rejected, window doubled once
    ((2.1, 12802.0, 10905.71875), "0x1.0021f20c0536dp+2"),  # window doubled twice
    ((1.1, 12801.0, 12030.6484375), "0x1.8908259a0ba43p+1"),  # rejected, window doubled 3 times
    ((8002.0, 4.0, 30.5), "0x1.eb12d0cdf9be2p+9"),  # Taylor past the float range: window from 122
]

# Boundary(CIR(0.8, 20, sigma), 0.08, h=1, q0=1).precautionary(d)
PRECAUTIONARY_HEX = {
    0.05: [
        (0.0, "0x0.0p+0"),
        (0.01, "0x1.7915609d3140bp-22"),
        (0.1, "0x1.d97c513ce41e8p-19"),
        (8.0, "0x1.eaa23f058d254p-12"),
        (14.0, "0x1.acc7fafa13570p-10"),
        (17.0, "0x1.0301a50361162p-8"),
        (18.8, "0x1.5a00cf1f98295p-7"),
        (21.2, "0x1.f71eb46f58176p-2"),
        (40.0, "0x1.056e8d75b4c5dp+3"),
    ],
    0.2: [
        (0.0, "0x0.0p+0"),
        (0.5, "0x1.2d9d876798c83p-12"),
        (5.0, "0x1.e9673cda9f908p-9"),
        (10.0, "0x1.6d4882281d5d8p-7"),
        (20.0, "0x1.f360cdfe2e58ap-3"),
        (160.0, "0x1.c98206f0b54e1p+5"),
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


# One array call per recurrence: the points of each call stop by different
# rules at different terms, so a stopped point that the mask let move, or
# one point's stop that touched another, changes a value.  Each z is paired
# with its log M and the rule it stops by.  At a = 1 the large-z sums are
# polynomials in 1/z, and the one for M' is not positive below z = b - 1.
M_LOG_CALLS_HEX = {
    "taylor": (1.1, 2.2, [
        (0.5, "0x1.09fb35a9d0bb5p-2"),  # small term
        (5.0, "0x1.ab83ba9495203p+1"),
        (24.3, "0x1.4eebc9f1c6e2ap+4"),  # moves by an ulp if it keeps summing
        (49.9, "0x1.6df2c87070bb4p+5"),
    ]),
    "taylor-past-the-float-range": (8002.0, 4.0, [
        (0.0, "0x0.0p+0"),  # z = 0
        (0.5, "0x1.c2df9c009b163p+6"),  # small term, at k far above z
        (5.0, "0x1.807b47a613784p+8"),
        (10.0, "0x1.13bcf3f83cc26p+9"),
        (15.0, "0x1.5436bab6fe16ep+9"),  # e^680: the last sum inside the range
        (20.0, "0x1.8ad120eb0c7c9p+9"),  # past the range (nan): log-series from k = 54
        (30.5, "0x1.eb12d0cdf9be2p+9"),
        (49.9, "0x1.3cb81259a2932p+10"),
    ]),
    "taylor-small-term-before-k-passes-z": (0.1, 801.0, [
        (0.0, "0x0.0p+0"),
        (0.5, "0x1.05e5fb5866ce5p-14"),  # small terms, k = 6
        (3.0, "0x1.89761ba0be2ffp-12"),  # small terms, k = 8
        (12.0, "0x1.8bb141df18fb9p-10"),  # k = 13: terms below 1e-17 from k = 10
        (45.0, "0x1.7ae9113cfad9ap-8"),  # k = 46, small from k = 15
        (49.99, "0x1.a64e9adb09c38p-8"),
    ]),
    "large-z": (1.1, 801.0, [
        (0.0, "0x0.0p+0"),
        (30.0, "0x1.57f67c6b3d5ecp-5"),  # Taylor
        (200.0, "0x1.4369d89b67682p-2"),  # asymptotic form not tried: log-series
        (500.0, "0x1.129dba836c59ep+0"),  # grown term, smallest above 1e-15: log-series
        (979.79966611, "0x1.670998b67c3e4p+4"),  # dropped part e^-23: log-series
        (983.72287145, "0x1.72b1b0badaa7ep+4"),
        (1042.0, "0x1.1b72f483e4084p+5"),  # dropped part e^-36: log-series
        (1100.0, "0x1.90f22862c8b42p+5"),  # small terms
        (2400.0, "0x1.6b145f4b33eb2p+9"),
    ]),
    "large-z-term-cap": (1.1, 12801.0, [
        (13555.553125, "0x1.bd165956f1c0ap+4"),  # dropped part e^-28: log-series
        (13800.0, "0x1.5c38fbc47978cp+5"),  # 400 terms, smallest 7e-15: log-series
        (13900.0, "0x1.98f23eae89f2ap+5"),  # 400 terms for two sums, accepted
        (14000.0, "0x1.daf692b3a7fc3p+5"),  # 400 terms for one sum, accepted
        (14700.0, "0x1.0dce1347aa1aep+7"),  # small terms
        (20000.0, "0x1.758715590c3bap+10"),
    ]),
    "large-z-at-a-equal-one": (1.0, 801.0, [
        (50.0, "0x1.07fc7b77fb887p-4"),  # the sum for M' is -15: log-series
        (600.0, "0x1.5f33dcc8a0aedp+0"),  # dropped part e^-34: log-series
        (1100.0, "0x1.8bfca6175a907p+5"),  # sums end at a zero term, accepted
        (3000.0, "0x1.1eb6d3c9ff45dp+10"),
    ]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(M_LOG_CALLS_HEX))
def test_array_call_mixing_every_stop_is_bitwise_unchanged(name):
    a, b, points = M_LOG_CALLS_HEX[name]
    z, want = zip(*points)
    assert [float(v).hex() for v in _m_log(a, b, np.array(z))] == list(want)


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
    # a finite level whose x = 2 gamma d / sigma^2 is not
    for fn in (psi_ratio_second, psi_over_psi_prime):
        with pytest.raises(NumericsError, match=r"at d=1\.7e\+308"):
            fn(REF, RHO, np.array([1.0, 1.7e308]))


# ---------------------------------------------------------------------------
# Accuracy where the large-z form's dropped part is not negligible, and of
# the psi ratios far out
# ---------------------------------------------------------------------------


def test_log_m_at_a_equal_one_below_the_large_z_range():
    # at a = 1 the large-z sum S(1, b, z) is exactly 1, so only the gate on
    # the dropped part sends z below about 2b to the log-series (cir-slow's
    # psi is M(1, 80, 4 d))
    for z in (50.0, 80.0, 100.0, 120.0, 160.0):
        assert kummer_m_log(1.0, 80.0, z) == pytest.approx(
            math.log(series_oracle(1.0, 80.0, z)), abs=1e-13), z


# psi''/psi' on cir-fast (REF) at the 16 nodes 626..641 of its rule table,
# linspace(0.01, 160, 4097), where the large-z form would be 1e-11 to 1.1e-9
# off for want of its dropped part, and on sigma = 0.1 at d = 22.2 (x = 3552,
# b = 3200).
# References: mpmath 1.3 hyp1f1 at 50 digits, at the binary values of the
# parameters and levels, rounded to the nearest double.
PSI_RATIO_SECOND_REF = [
    (REF, 24.461596679687503, "0x1.d4646f7e046bcp+2"),
    (REF, 24.500656738281254, "0x1.d7b73e7358b12p+2"),
    (REF, 24.539716796875002, "0x1.db07659d32daep+2"),
    (REF, 24.578776855468753, "0x1.de54e7d511f21p+2"),
    (REF, 24.617836914062504, "0x1.e19fc7f3d2e0cp+2"),
    (REF, 24.656896972656252, "0x1.e4e808d17b848p+2"),
    (REF, 24.695957031250003, "0x1.e82dad450a122p+2"),
    (REF, 24.735017089843755, "0x1.eb70b82448608p+2"),
    (REF, 24.774077148437502, "0x1.eeb12c43a2c38p+2"),
    (REF, 24.813137207031254, "0x1.f1ef0c7602239p+2"),
    (REF, 24.852197265625, "0x1.f52a5b8ca9068p+2"),
    (REF, 24.891257324218753, "0x1.f8631c5713518p+2"),
    (REF, 24.930317382812504, "0x1.fb9951a2d8829p+2"),
    (REF, 24.96937744140625, "0x1.feccfe3b9034fp+2"),
    (REF, 25.008437500000003, "0x1.00ff12755c606p+3"),
    (REF, 25.047497558593754, "0x1.0296643bcfe46p+3"),
    (CIR(0.8, 20.0, 0.1), 22.2, "0x1.fce0dc12423b9p+3"),
]


def test_psi_ratio_second_where_the_dropped_part_is_not_negligible():
    assert [d for _, d, _ in PSI_RATIO_SECOND_REF[:16]] == np.linspace(
        0.01, 160.0, 4097)[626:642].tolist()
    for model, d, want in PSI_RATIO_SECOND_REF:
        assert psi_ratio_second(model, RHO, d) == pytest.approx(
            float.fromhex(want), rel=1e-13), (model.sigma, d)


def test_psi_over_psi_prime_at_a_equal_one():
    # cir-slow: rho = gamma, so psi = M(1, 80, 4 d); same references as above
    model = CIR(0.08, 20.0, 0.2)
    for d, want in ((15.0, "0x1.86ddc6ba90e60p+2"), (20.0, "0x1.5f103e943df7fp+1")):
        assert psi_over_psi_prime(model, RHO, d) == pytest.approx(
            float.fromhex(want), rel=1e-13), d


# psi''/psi' and psi/psi' at sigma = 0.05 (b = 12800, x = 640 d), at levels
# whose log-series window starts above k = 0 (d = 25 and 30 after one
# doubling); same references as above
PSI_RATIOS_SIGMA005_REF = [
    (25.0, "0x1.000a4051add53p+7", "0x1.0047f9f9d1a78p-7"),
    (30.0, "0x1.aaafc9bc38aa5p+7", "0x1.33481d47edf61p-8"),
    (40.0, "0x1.400147b3532a8p+8", "0x1.99a027f52b51bp-9"),
    (50.0, "0x1.8000da75828edp+8", "0x1.55579bff38ab1p-9"),
    (60.0, "0x1.aaab4e8247ba6p+8", "0x1.3334467d7f3e3p-9"),
    (70.0, "0x1.c925155bd8f6dp+8", "0x1.1eb8ea9bf2794p-9"),
]


def test_psi_ratios_where_the_log_series_window_starts_above_zero():
    model = CIR(0.8, 20.0, 0.05)
    for d, second, ratio in PSI_RATIOS_SIGMA005_REF:
        assert psi_ratio_second(model, RHO, d) == pytest.approx(
            float.fromhex(second), rel=1e-13), d
        assert psi_over_psi_prime(model, RHO, d) == pytest.approx(
            float.fromhex(ratio), rel=1e-13), d


@pytest.mark.parametrize("abz,want", [
    ((1.1, 12801.0, 14328.0), "0x1.6bdf422d520f6p+6"),
    ((1.0, 801.0, 1200.0), "0x1.3f8e9ab7cc0b7p+6"),
])
def test_large_z_log_scale_does_not_cancel_terms_of_size_b(abz, want):
    # both points take the large-z form; z + (a - b) log z there cancels
    # terms of size 1e5 (it was 1.3e-11 and 7.9e-13 off); same references
    assert kummer_m_log(*abz) == pytest.approx(float.fromhex(want), abs=2e-13)


@pytest.mark.parametrize("d", [1e16, 1e100, 5e299])
def test_psi_ratios_reach_their_limits(d):
    # both ratios are c = 2 gamma / sigma^2 (or 1/c) times 1 + O((b - a)/x),
    # which is below 3e-15 here
    c = 2.0 * REF.gamma / REF.sigma**2
    assert psi_ratio_second(REF, RHO, d) == pytest.approx(c, rel=1e-13)
    assert psi_over_psi_prime(REF, RHO, d) == pytest.approx(1.0 / c, rel=1e-13)


@pytest.mark.parametrize("b", [2.2, 801.0, 12801.0])
def test_psi_ratio_array_call_equals_one_point_calls(b):
    # psi = M(1.1, b, 40 d): the positive z of the log M test above, as d
    model = CIR(0.8, b * 0.2**2 / 1.6, 0.2)
    d = np.concatenate([np.linspace(0.5, 60.0, 41), np.linspace(50.0, 14000.0, 57)]) / 40.0
    for fn in (psi_ratio_second, psi_over_psi_prime):
        got = fn(model, 0.88, d)
        assert [v.hex() for v in got.tolist()] == [fn(model, 0.88, float(x)).hex() for x in d]
