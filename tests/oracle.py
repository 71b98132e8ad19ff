"""Brute-force reference implementations, independent of the package.

Everything here works directly on fractions.Fraction and shares no code
with the library under test.  It is deliberately slow and obvious: binades
are found by repeated halving, candidates are enumerated one by one.  The
point is to compute the same quantities twice by unrelated routes.
"""

from fractions import Fraction

HALF = Fraction(1, 2)


def _split(t):
    """(m, s) with t = m * 2**s and 1 <= |m| < 2, for a nonzero Fraction t."""
    s = 0
    while abs(t) >= 2:
        t /= 2
        s += 1
    while abs(t) < 1:
        t *= 2
        s -= 1
    return t, s


def oracle_round(t, p, ties_away=False):
    """Round the rational t to the nearest p-bit float, as a Fraction."""
    t = Fraction(t)
    if t == 0:
        return Fraction(0)
    sign = 1
    if t < 0:
        sign, t = -1, -t
    t, shift = _split(t)
    scaled = t * (1 << (p - 1))
    q = scaled.numerator // scaled.denominator
    rem = scaled - q
    if rem > HALF or (rem == HALF and (ties_away or q % 2 == 1)):
        q += 1
    return sign * Fraction(q, 1 << (p - 1)) * Fraction(2) ** shift


def oracle_power(x, n, p, ties_away=False):
    """naive x**n: n-1 rounded multiplications, left fold.

    Rounding commutes with scaling by a power of two, so x and the running
    value are kept as m * 2**s with 1 <= |m| < 2: each step rounds a product
    below 4 in magnitude, and its cost does not grow with the power."""
    x = Fraction(x)
    if x == 0:
        return x
    mx, sx = _split(x)
    m, scale = mx, sx
    for _ in range(n - 1):
        m, s = _split(oracle_round(mx * m, p, ties_away))
        scale += sx + s
    return m * Fraction(2) ** scale


def oracle_product(factors, p, ties_away=False):
    acc = Fraction(factors[0])
    for f in factors[1:]:
        acc = oracle_round(acc * Fraction(f), p, ties_away)
    return acc


def oracle_error_ulps(computed, exact, p):
    """|computed - exact| / |exact| in units of 2**-p."""
    computed, exact = Fraction(computed), Fraction(exact)
    return abs(computed - exact) / abs(exact) * (1 << p)


def oracle_max_power_error(p, n, ties_away=False):
    """Scan every x in [1, 2); returns (max_err, argmax_x, violations).

    argmax_x is the smallest x attaining the maximum; violations counts
    inputs whose error exceeds (n-1) ulps.
    """
    best, best_x = Fraction(-1), None
    violations = 0
    for k in range(1 << (p - 1)):
        x = Fraction((1 << (p - 1)) + k, 1 << (p - 1))
        err = oracle_error_ulps(oracle_power(x, n, p, ties_away), x**n, p)
        if err > best:
            best, best_x = err, x
        if err > n - 1:
            violations += 1
    return best, best_x, violations
