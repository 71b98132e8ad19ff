"""Closed-form error bounds, the n_max cutoff, and their exact numeric checks.

Everything is exact: the classical bounds are rationals in ulps built from
integers, ``n_max`` decides its irrational threshold through an integer
predicate, and the check suites multiply each of the paper's inequalities
at a rational sample u = a/b through by its denominators, so every case is
a comparison of integers and no double-precision rounding can leak in.
A case is first decided by integer interval bounds on its power (1+u)**k,
held to ``_FRACTION_BITS`` fractional bits, and only a case the interval
cannot decide is compared exactly.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import isqrt

from .exact import _EXACT
from .softfloat import _check_length, _check_precision, _coprime_fraction

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

# Fractional bits F of the check suites' fixed-point powers (1+u)**k.  Each
# rounding moves a bound by at most 2**-F of a value >= 1, and the rest of a
# k-th power scales an earlier error at most k-fold, so for k <= 2078 the
# interval's relative width stays below 2**(13-F), 2**-115 at F = 128: far
# inside the tightest grid case's relative slack, about 2**-61 (Lemma 2 at
# n = 1000, u = 2**-40; the refined bound's tightest, at n = 2088, is about
# 2**-37), so no case of either suite is left to the exact comparison.
_FRACTION_BITS = 128


class BoundSet(namedtuple("BoundSet", "simple psi gamma")):
    """The classical bounds for an n-term chain at p bits, in ulps (u = 2**-p):
    with k = n-1, the int simple = k and the Fractions psi = ((1+u)**k - 1)/u
    and gamma = k/(1 - k*u)."""

    __slots__ = ()


class CheckReport(namedtuple("CheckReport", "name passed checked")):
    """Outcome of one exact verification sweep: its ``name``, whether it
    ``passed``, and the number of cases ``checked``."""

    __slots__ = ()


def bound_set(p: int, n: int) -> BoundSet:
    """Exact bounds, in ulps, for an (n-1)-multiplication chain at precision p.

    With k = n-1 and U = 2**p, psi = ((U+1)**k - U**k) / U**(k-1): every
    term of the numerator but the binomial's 1 is a multiple of U, so it is
    odd and the fraction is already reduced.  gamma = k*U / (U-k).
    """
    _check_length(n, 2)
    _check_precision(p)
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

    (U+1)**k and U**k (U = 2**p, k = n-1) are carried as exact ``decimal``
    integers from the row before the first and multiplied once per row, so
    a row costs time linear in its length, where ``str()`` of psi's int
    numerator is quadratic.  A row is formed only when it is asked for, so
    a caller that validates each n with ``bound_set`` first refuses a bad n
    before the fold reaches it.  Every operation goes through ``exact``'s
    exact context; the caller's decimal context is never touched.
    """
    if not isinstance(ns, range) or ns.step != 1 or (ns and ns[0] < 2):
        raise ValueError(f"need a range of consecutive n >= 2, got {ns!r}")
    _check_precision(p)
    if not ns:
        return
    U = _EXACT.power(2, p)
    U1 = _EXACT.add(U, 1)
    a, top = _EXACT.power(U1, ns[0] - 2), _EXACT.power(U, ns[0] - 2)
    for _ in ns:
        a, den, top = _EXACT.multiply(a, U1), top, _EXACT.multiply(top, U)
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
    _check_precision(p)
    if p < 5:
        raise ValueError(f"n_max requires p >= 5, got {p}")
    return isqrt(_iroot(1 << (3 * p + 1), 3) - (1 << p))


_PROPERTY1_GRID = [(1, 1 << j) for j in range(5, 61)] + [(1, 33), (1, 100), (3, 1000)]


def _property1_holds(k: int, a: int, b: int) -> bool:
    return (b + 2 * a) ** k * b < (b + k * a) * (b + a) ** k


def check_property1() -> CheckReport:
    """(1 + u/(1+u))**k < 1 + k*u for k <= 3, and fails for some u at k = 4.

    Verified exactly on a grid of rational u = a/b in (0, 1/32]; the k = 4
    counterexample is searched over u = 2**-j, j = 4..60.  As 1 + u/(1+u)
    is (b+2a)/(b+a), each case is the inequality times b * (b+a)**k:
    (b+2a)**k * b < (b+ka) * (b+a)**k.
    """
    grid = _PROPERTY1_GRID
    holds = all(_property1_holds(k, a, b) for k in (1, 2, 3) for a, b in grid)
    k4_fails = not all(_property1_holds(4, 1, 1 << j) for j in range(4, 61))
    return CheckReport("property1", holds and k4_fails, 3 * len(grid))


def _power_bounds(num: int, den: int, k: int) -> tuple[int, int]:
    """Integers lo <= (num/den)**k * 2**F <= hi, F = ``_FRACTION_BITS``, for
    num >= den > 0: square-and-multiply in fixed point, rounding the lower
    bound down and the upper bound up at every step."""
    F = _FRACTION_BITS
    lo, hi = 1 << F, 1 << F
    base_lo, base_hi = (num << F) // den, -((-num << F) // den)
    while k:
        if k & 1:
            lo, hi = lo * base_lo >> F, -(-hi * base_hi >> F)
        k >>= 1
        if k:
            base_lo, base_hi = base_lo * base_lo >> F, -(-base_hi * base_hi >> F)
    return lo, hi


def _decide(lo: int, hi: int, scale: int, bound: int) -> bool | None:
    """Whether v * scale <= B, from lo <= v * 2**F <= hi and bound = B * 2**F:
    True or False where the interval decides it, None where it is open."""
    if hi * scale <= bound:
        return True
    if lo * scale > bound:
        return False
    return None


def _lemma2_holds(n: int, a: int, b: int, b_pow: int) -> bool:
    m = n * n * a  # b_pow is b**(n-2)
    return (b + a) ** (n - 2) * (b + m + a) * b <= (b + (n - 1) * a) * (b + m) * b_pow


def _lemma2_decided(n: int, a: int, b: int) -> bool:
    # _lemma2_holds divided by b**(n-2): ((b+a)/b)**(n-2) * K <= Q
    m = n * n * a
    K, Q = (b + m + a) * b, (b + (n - 1) * a) * (b + m)
    decided = _decide(*_power_bounds(b + a, b, n - 2), K, Q << _FRACTION_BITS)
    return _lemma2_holds(n, a, b, b ** (n - 2)) if decided is None else decided


def _lemma2_samples(n: int) -> list[tuple[int, int]]:
    # (a, b) for u = a/b: 0 to 2/(3n^2) in equal steps, then 2**-j
    b = 3 * n * n * _LEMMA2_SUBDIVISIONS
    samples = [(2 * j, b) for j in range(_LEMMA2_SUBDIVISIONS + 1)]
    j = (3 * n * n - 1).bit_length() - 1  # least j with 2**(j+1) >= 3n^2
    samples += [(1, 1 << jj) for jj in range(j, min(j + 20, 64))]
    return samples


def check_lemma2() -> CheckReport:
    """(1+u)**(n-2) * (1 + u/(1+n^2 u)) <= 1 + (n-1)u on 0 <= u <= 2/(3n^2).

    Sampled exactly: the endpoints, a uniform rational subdivision of the
    interval over one denominator, and the dyadic 2**-j inside it.  At
    u = a/b a case is the inequality times b * (b + n^2 a), so it reads
    ((b+a)/b)**(n-2) * K <= Q with the integers K = (b + n^2 a + a) * b and
    Q = (b + (n-1)a)(b + n^2 a).  It is decided by integer interval bounds
    on the power first; only a case they leave open is compared exactly,
    times b**(n-2) as well, where both sides have degree n in (a, b), so a
    pair need not be reduced.  This is a regression guard on the
    inequality, not a proof over the continuum.
    """
    cases = [(n, *c) for n in _LEMMA2_N_GRID for c in _lemma2_samples(n)]
    holds = all(_lemma2_decided(*c) for c in cases)
    return CheckReport(name="lemma2", passed=holds, checked=len(cases))


def _refined_binary32_holds(n: int, lhs: int) -> bool:
    # lhs = 100 * (100 * 2**24 + 706) * (2**24 + 1)**(n-10) <= r * 2**s,
    # where r * 2**s is built only if lhs >> s is r
    s, r = 24 * (n - 10), (10_000 << 24) + 10_000 * n - 28_104
    top = lhs >> s
    return top < r or (top == r and lhs == r << s)


def _refined_binary32_decided(stop: int) -> Iterator[bool]:
    """``_refined_binary32_holds`` for each n in 10..stop-1, decided first by
    bounds on (1 + 2**-24)**(n-10) * 2**F carried from one n to the next."""
    c, F = 100 * ((100 << 24) + 706), _FRACTION_BITS
    lo, hi = 1 << F, 1 << F
    for n in range(10, stop):
        decided = _decide(lo, hi, c, ((10_000 << 24) + 10_000 * n - 28_104) << F)
        if decided is None:
            decided = _refined_binary32_holds(n, c * ((1 << 24) + 1) ** (n - 10))
        yield decided
        lo, hi = lo + (lo >> 24), hi - (-hi >> 24)


def check_refined_binary32_bound() -> CheckReport:
    """The single-precision refinement (n - 2.8104)u holds for 10 <= n <= 2088.

    That is (1 + 7.06u)(1+u)**(n-10) - 1 <= (n - 2.8104)u at u = 2**-24;
    times 10**4 * 2**24 it reads c * (1+u)**(n-10) <= r with the integers
    c = 100 * (100 * 2**24 + 706) and r = 10**4 * (2**24 + n) - 28104.
    Integer bounds on (1+u)**(n-10) decide each n first: from one n to the
    next the lower bound gains itself shifted down 24 bits, rounded down,
    and the upper bound likewise rounded up.  Only an n they leave open is
    compared exactly, times 2**(24(n-10)), where the left side gains a
    factor 2**24 + 1 per n.
    """
    ns = range(10, 2089)
    holds = all(list(_refined_binary32_decided(ns.stop)))  # every n, as counted
    return CheckReport(name="refined_binary32", passed=holds, checked=len(ns))
