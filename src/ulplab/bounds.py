"""Closed-form error bounds, the n_max cutoff, and their exact numeric checks.

Everything is exact: the classical bounds are rationals in ulps built from
integers, ``n_max`` decides its irrational threshold through an integer
predicate, and the check suites evaluate the paper's inequalities at
rational sample points, so no double-precision rounding can leak in.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exact import _EXACT, _coprime_fraction

__all__ = [
    "BoundSet",
    "CheckReport",
    "bound_set",
    "check_lemma2",
    "check_property1",
    "check_refined_binary32_bound",
    "n_max",
    "psi_fractions",
]

# Lemma 2 is sampled at these chain lengths, each interval cut into
# this many equal parts.
_LEMMA2_N_GRID = (3, 4, 5, 6, 10, 32, 100, 1000)
_LEMMA2_SUBDIVISIONS = 16


@dataclass(frozen=True)
class BoundSet:
    """The classical bounds for an n-term chain at p bits, in ulps (u = 2**-p):
    with k = n-1, simple = k, psi = ((1+u)**k - 1)/u, gamma = k/(1 - k*u)."""

    simple: int
    psi: Fraction
    gamma: Fraction


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exact verification sweep."""

    name: str
    passed: bool
    checked: int


def bound_set(p: int, n: int) -> BoundSet:
    """Exact bounds, in ulps, for an (n-1)-multiplication chain at precision p.

    With k = n-1 and U = 2**p, psi = ((U+1)**k - U**k) / U**(k-1): every
    term of the numerator but the binomial's 1 is a multiple of U, so it is
    odd and the fraction is already reduced.  gamma = k*U / (U-k).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 2:
        raise ValueError(f"precision must be >= 2, got {p}")
    k, U = n - 1, 1 << p
    if k >= U:
        raise ValueError(f"gamma undefined: (n-1)*u = {Fraction(k, U)} >= 1")
    return BoundSet(
        simple=k,
        psi=_coprime_fraction((U + 1) ** k - (1 << p * k), 1 << p * (k - 1)),
        gamma=Fraction(k * U, U - k),
    )


def psi_fractions(p: int, ns: range) -> Iterator[str]:
    """The text ``"num/den"`` of ``bound_set(p, n).psi`` for each n in ``ns``,
    a range of consecutive n >= 2.

    (U+1)**k and U**(k-1) (U = 2**p, k = n-1) are carried as exact
    ``decimal`` integers and multiplied once per row, so a row costs time
    linear in its length, where ``str()`` of psi's int numerator is
    quadratic.  A row is formed only when it is asked for, so a caller that
    validates each n with ``bound_set`` first refuses a bad n before the
    fold reaches it.  Every operation goes through ``exact``'s exact
    context; the caller's decimal context is never touched.
    """
    if ns.step != 1 or (ns and ns[0] < 2):
        raise ValueError(f"need a range of consecutive n >= 2, got {ns}")
    U = _EXACT.power(2, p)
    U1 = _EXACT.add(U, 1)
    a = None
    for n in ns:
        if a is None:
            a, den = _EXACT.power(U1, n - 1), _EXACT.power(U, n - 2)
        else:
            a, den = _EXACT.multiply(a, U1), top
        top = _EXACT.multiply(den, U)  # U**k
        yield str(_EXACT.subtract(a, top)) + "/" + str(den)


def _iroot(a: int, k: int) -> int:
    """floor(a ** (1/k)) for a >= 0, k >= 1, by integer Newton iteration.

    Started above the floor, a step never passes below it (AM-GM) and
    descends while above it, so the first step that does not descend
    stops exactly at the floor.  A big ``a`` starts from the root of its
    top half, plus one and shifted back: that exceeds the true root and
    already carries half its bits, so two or three steps finish where a
    start at a power of two would take dozens."""
    if a < 0 or k < 1:
        raise ValueError("need a >= 0 and k >= 1")
    if a == 0:
        return 0
    m = a.bit_length() // (2 * k)
    if m < 64:
        x = 1 << -(-a.bit_length() // k)  # >= true root
    else:
        # (r+1)**k > a >> km, so (r+1)**k >= (a >> km) + 1 > a / 2**km
        x = (_iroot(a >> k * m, k) + 1) << m
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def n_max(p: int) -> int:
    """Largest n with n <= sqrt(2**(1/3) - 1) * 2**(p/2), exactly.

    Squared and cubed, the comparison is the integer predicate
    (n**2 + 2**p)**3 <= 2**(3p+1).  For an integer m, m**3 <= B exactly
    when m <= floor(cbrt(B)), so n is isqrt(floor(cbrt(2**(3p+1))) - 2**p)
    and no rounding of the irrational threshold is involved.
    """
    if p < 5:
        raise ValueError(f"n_max requires p >= 5, got {p}")
    return isqrt(_iroot(1 << (3 * p + 1), 3) - (1 << p))


def _property1_grid() -> list[Fraction]:
    grid = [Fraction(1, 1 << j) for j in range(5, 61)]
    grid += [Fraction(1, 33), Fraction(1, 100), Fraction(3, 1000)]
    return grid


def check_property1() -> CheckReport:
    """(1 + u/(1+u))**k < 1 + k*u for k <= 3, and fails for some u at k = 4.

    Verified exactly on a grid of rational u in (0, 1/32]; the k = 4
    counterexample is searched over u = 2**-j, j = 4..60.
    """
    grid = _property1_grid()
    holds = all((1 + u / (1 + u)) ** k < 1 + k * u for k in (1, 2, 3) for u in grid)
    k4_fails = any(
        (1 + u / (1 + u)) ** 4 >= 1 + 4 * u
        for u in (Fraction(1, 1 << j) for j in range(4, 61))
    )
    return CheckReport(
        name="property1", passed=holds and k4_fails, checked=3 * len(grid)
    )


def _lemma2_samples(n: int) -> list[Fraction]:
    top = Fraction(2, 3 * n * n)
    d = _LEMMA2_SUBDIVISIONS
    samples = [top * Fraction(j, d) for j in range(d + 1)]
    j = 1
    while Fraction(1, 1 << j) > top:
        j += 1
    samples += [Fraction(1, 1 << jj) for jj in range(j, min(j + 20, 64))]
    return samples


def check_lemma2() -> CheckReport:
    """(1+u)**(n-2) * (1 + u/(1+n^2 u)) <= 1 + (n-1)u on 0 <= u <= 2/(3n^2).

    Sampled exactly: the endpoints, a uniform rational subdivision of the
    interval, and the dyadic points 2**-j that fall inside it.  This is a
    regression guard on the inequality, not a proof over the continuum.
    """
    cases = [(n, u) for n in _LEMMA2_N_GRID for u in _lemma2_samples(n)]
    holds = all(
        (1 + u) ** (n - 2) * (1 + u / (1 + n * n * u)) <= 1 + (n - 1) * u
        for n, u in cases
    )
    return CheckReport(name="lemma2", passed=holds, checked=len(cases))


def _refined_binary32_holds(n: int, m_pow: int) -> bool:
    # (1 + 7.06u)(1+u)**(n-10) - 1 <= (n - 2.8104)u at u = 2**-24, with
    # m_pow = (2**24 + 1)**(n-10); cleared of denominators this is exactly:
    lhs = 100 * ((100 << 24) + 706) * m_pow
    rhs = ((10_000 << 24) + 10_000 * n - 28_104) << (24 * (n - 10))
    return lhs <= rhs


def check_refined_binary32_bound() -> CheckReport:
    """The single-precision refinement (n - 2.8104)u holds for 10 <= n <= 2088.

    The constants 7.06 and 2.8104 enter as the exact rationals 706/100 and
    28104/10000; every comparison is an integer comparison.
    """
    ns = range(10, 2089)
    holds = True
    m_pow = 1
    step = (1 << 24) + 1
    for n in ns:
        holds = _refined_binary32_holds(n, m_pow) and holds
        m_pow *= step
    return CheckReport(name="refined_binary32", passed=holds, checked=len(ns))
