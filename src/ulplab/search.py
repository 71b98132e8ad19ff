"""Exhaustive measurement of the worst-case relative error of naive powers.

The scan walks every significand X = 2**(p-1) + k, k = 0 .. 2**(p-1)-1
(i.e. every x in [1, 2), which suffices because the error is invariant
under binade shifts), runs the power iteration, and scores candidates
with the exact rational error.  Work is split into contiguous significand
ranges whose partial results merge associatively (larger error wins, ties
to the smaller significand), so reports are bit-identical for any worker
count, and a scan can resume from a checkpoint without changing its
outcome.

A range is scanned by one of two kernels that return identical results:

* ``_scan_exact`` runs the power iteration in integer arithmetic and
  scores every candidate exactly.  It serves p > 26, TIES_AWAY at p = 26,
  n = 1, and n beyond the binary64 kernel's gates, and it is the
  reference the binary64 kernel is tested against.  At p = 53, TIES_EVEN,
  its step is the double product (below).
* ``_scan_binary64`` serves TIES_EVEN at p <= 26, and TIES_AWAY at
  p <= 25 with n * 2**12 <= 2**(2p).  It assumes IEEE 754 binary64 floats
  with round-to-nearest-even, which is what CPython's float is on every
  supported platform.  It runs the iteration in doubles, estimates each
  candidate's error with a proven bound, and scores exactly only the few
  candidates the bound cannot rule out.

Why the binary64 iteration is exact.  With x = X * 2**(1-p) in [1, 2) and
the running value v in [1, 2] both p-bit doubles, z = x * v has at most
2p <= 52 significant bits, so the product is exact.  For z in [1, 2),
``(z + C) - C`` with C = 1.5 * 2**(53-p) rounds z to p bits: z + C lies in
[2**(53-p), 2**(54-p)), where doubles are 2**(1-p) apart, so the hardware
addition rounds z to the nearest multiple of 2**(1-p), ties to even (C is
an even multiple of that spacing), and the subtraction is exact.  For z in
[2, 4) the constant is 2C and v is then halved while a running exponent
``ec`` goes up by one.  So v * 2**ec is the correctly rounded power, step
for step the same value as the integer kernel's.

Why xa rounds ties away.  At TIES_AWAY the kernel runs on xa = x + a,
a = 2**-2p, in place of x: v starts at xa, and each step rounds xa * v.
xa has 2p + 1 <= 51 bits, so it and its steps by 2**(1-p) are exact.
Take a step whose v is a p-bit value in [2**c, 2**(c+1)] (c = 0 in the
branching loop, b_{j-1} in a run, below).  Then z = x * v is a multiple
of g = 2**(c+2-2p), and so is every p-bit value and every midpoint
between two of them in z's binade, c or c + 1.  xa * v = z + a * v lies
in [z + g/4, z + g/2], and both ends are doubles (multiples of g/4 below
2**(c+2): 2p + 2 <= 52 bits), so the double product w lies there too.
The first step's v is xa: there xa * xa = z + a * (2x + a), z = x * x,
lies in (z + g/2, z + g), so w lies in (z, z + g].  w = z + g needs
z + g - xa * xa = a * (4 - 2x - a), which is above 2**(1-3p), to be at
most half an ulp, 2**-52: so p >= 18, and x = 2 - j * 2**(1-p) with z in
[2, 4).  Then z + g is a midpoint only if j**2 + 1 is an odd multiple of
2**(p-1), and j**2 + 1 is never a multiple of 4.  So no midpoint lies in
(z, w]: w rounds to p bits as z does if z is no midpoint, and up, which
is away from zero, if z is one.  As w is never a midpoint itself,
``(w + C) - C`` rounds it so under any tie rule.  2**(c+1) is a multiple
of g, so w >= 2**(c+1) exactly when z >= 2**(c+1): the branches, and with
them ec and S, do not move.  Ties-away rounding is monotone too, so the
runs below hold unchanged.  TIES_EVEN passes a = 0: its loops do no extra
operation.

Why the p = 53 step is the double product.  At p = 53 every candidate x and
every running v in [1, 2) is a double, so the double product x * v is the
53-bit, ties-to-even rounding of the exact product: the integer kernel's
step.  It is below 4 - 2**-50, a double, so it rounds below 4; when it is
2 or more, v is halved, exactly, and ec goes up by one.  So v stays in
[1, 2), and v * 2**ec is the integer kernel's value, scored by the same
formula.  TIES_AWAY keeps the integer step there, and so do p = 27 .. 52,
where ``(w + C) - C`` would round the rounded product w a second time.

Why runs may skip the branches.  Let b_j be the binade of the exact
product z_j at step j, so the branch halves v at step j exactly when
b_j > b_{j-1} (b_0 = 0), and ec ends as b_{n-1}.  Rounding is monotone, so
every b_j is non-decreasing in x.  Hence if candidates k_a < k_b have
equal sums S = b_1 + ... + b_{n-1}, each b_j is equal at both ends, and so
at every candidate between them: a run.  The branching loop gets S with no
extra operation: its one counter s gains w_j = m + n - j at each step j
that halves v, where m = n(n-1)/2 + 1; since b_j counts the halvings up to
step j, s = ec * m + S with S < m.  Inside a run every step is
``v = x * v + C_j - C_j``, with C_j = 1.5 * 2**(53-p+b_j), and ``e *= x``:
no compare, no halving, no ec.  The first product x * x, exact at
TIES_EVEN, is the walk's e after step 1 too.  Without the halvings v and e grow as x**n, so runs
are looked for only where n <= ``_RUN_MAX_N`` = 969: then b_j <= 968, and
for every p >= 2 each C_j and z + C_j stay below 2**1021.  Scaling by a
power of two is exact and commutes with rounding among such normal values,
so v and e are the branching loop's values times 2**ec: rho_hat = v / e is
the same double, and v * 2**-ec is its v.

Pass 1 visits the candidates in increasing k, as its floor needs (below).
It walks the first and the last candidate of a range.  A walked probe
with the current candidate's s closes a run, which it visits without
branches; a probe with another s is kept until k reaches it, and the
stretch before it is split in two, so no candidate is walked twice.
S takes at most m values over the binade, so its runs average at least
2**(p-1) / m candidates.  Runs are looked for only where that is at least
``_RUN_GATE``, in ranges of ``_MIN_RUN`` + 2 candidates or more; elsewhere
the candidates are walked.

Why the filter is safe.  Alongside v the kernel keeps e, started at x and
multiplied at every step by x (or x/2 when v was halved).  In exact
arithmetic e ends as x**n / 2**ec, so rho = v / e is the computed power
over the exact one, and the error in ulps is |rho - 1| * 2**p.  The n-1 products and the
division each round once, with relative error at most u = 2**-53 (the
range gate n-1 <= 2**(p+8) keeps |log2 rho| <= (n-1) * 2**(1-p) <= 512,
far from overflow and underflow).  By Higham's Lemma 3.1 the estimate is
rho_hat = rho * (1 + theta) with |theta| <= gamma_n = n*u / (1 - n*u), so
rho lies in [rho_hat / (1 + gamma_n), rho_hat / (1 - gamma_n)].  Hence

    (1 - t) * (1 + gamma_n) <= rho_hat <= (1 + t) * (1 - gamma_n)

implies |rho - 1| <= t.  At TIES_AWAY e runs on xa, from xa, and ends as
xa**n / 2**ec.  As xa / x <= 1 + a, (x / xa)**n lies in [1 - n*a, 1], so
rho_hat = rho * (1 + theta) with -(gamma_n + n*a) <= theta <= gamma_n:
the kernel puts gamma_n + n*a for gamma_n.  Its gate n * 2**12 <= 2**(2p)
keeps n*a <= 2**-12, far below 1, as ``_band`` and ``_error_floor`` need.
The kernel runs in two passes over a range.

* Pass 1 iterates every candidate in doubles.  Each kept candidate's
  rho_hat also gives a floor, a lower bound on its |rho - 1|
  (``_error_floor``).  A candidate is dropped when the band holds for
  t = min(the largest floor so far, the violation line (n-1) * 2**-p).
  Its error is then at most that of an earlier kept candidate, so it
  cannot be the best (ties keep the smaller k), and it is no violation.
* Pass 2 scores the kept candidates with the exact integer formula,
  largest |rho_hat - 1| first.  After each new best it skips those inside
  the band for t = min(the best's error rounded down, the violation
  line).  That t lies strictly below the best's exact error, so a
  skipped candidate loses to the best in any order.

The thresholds are computed in binary64 with an outward nudge of 2**-50
(8u) relative, which covers the few roundings inside them.  Over the
p = 20, n = 6 binade pass 1 walks a few dozen of each 8192 candidates,
keeps about 13 and pass 2 scores one; over 4-candidate ranges at p = 24,
n = 600 it also scores one per range.  So a range's cost hardly depends
on where its errors lie.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import deque, namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .algorithms import naive_power
from .exact import _lowest_terms, relative_error
from .softfloat import FpNumber, RoundingMode, _check_precision

__all__ = ["SearchReport", "exhaustive_max_error", "spot_error"]

# Full scans cost 2**(p-1) exact evaluations; beyond this precision that is
# no longer a desk-scale run, so it must be requested explicitly.
PRECISION_GUARD = 26

DEFAULT_CHUNK_SIZE = 1 << 20
CHECKPOINT_SCHEMA_VERSION = 2


class SearchReport(namedtuple(
    "SearchReport", "n max_error argmax_x scanned violations k_start k_stop"
)):
    """Result of scanning significands k_start .. k_stop-1 for the n-th power:
    ``max_error`` in ulps, ``argmax_x`` the smallest x attaining it in the
    scanned range, and ``violations`` the inputs whose error exceeded (n-1) ulps."""

    __slots__ = ()


# Precisions whose significand products are exact doubles (2p <= 52 bits):
# at these, TIES_EVEN scans run the binary64 kernel.  TIES_AWAY scans need
# 2p + 1 bits (the module docstring), so they run it at p < 26.
_BINARY64_MAX_P = 26

# Relative nudge that moves the binary64 filter's thresholds outward; it
# covers the handful of roundings (each at most 2**-53) inside them.
_NUDGE = 2.0**-50

# Largest n whose run constants stay finite unscaled (the module docstring).
_RUN_MAX_N = sys.float_info.max_exp - 55

# Runs are looked for only in ranges of _MIN_RUN + 2 candidates or more;
# in shorter ones looking for them costs more than it saves.
_MIN_RUN = 8

# Runs are looked for only where the binade's runs average this many
# candidates or more.
_RUN_GATE = 64


def _scan_chunk(args: tuple[int, int, bool, int, int]) -> tuple[int, int, int, int]:
    """Scan one contiguous significand range; args = (p, n, ties_away, k_lo, k_hi).

    Returns (best_num, best_den, best_k, violations) where best_num/best_den
    is the largest error in ulps over the range (unreduced) and best_k the
    smallest k attaining it.  With 2 <= n <= 2**(p+8) + 1, TIES_EVEN at
    p <= 26 and TIES_AWAY at p <= 25 with n * 2**12 <= 2**(2p) run
    ``_scan_binary64``; everything else runs ``_scan_exact``.  Both return
    the same tuple; the module docstring gives the proof.
    """
    p, n, ties_away = args[:3]
    if ties_away:
        fast = p < _BINARY64_MAX_P and n << 12 <= 1 << 2 * p
    else:
        fast = p <= _BINARY64_MAX_P
    if fast and 2 <= n <= (1 << (p + 8)) + 1:
        return _scan_binary64(args)
    return _scan_exact(args)


def _scan_exact(args: tuple[int, int, bool, int, int]) -> tuple[int, int, int, int]:
    """Integer kernel: every candidate iterated and scored exactly.

    The power iteration tracks (significand, exponent) pairs and the error
    in ulps of candidate k, ranked as ``_merge`` ranks errors, is
    |Xc * 2**(ec + (n-1)(p-1)) - X0**n| * 2**p / X0**n.  At p = 53, TIES_EVEN,
    the step is the double product (the module docstring).
    """
    p, n, ties_away, k_lo, k_hi = args
    half_sig = 1 << (p - 1)
    top = 1 << p
    full_bits = 2 * p
    expo_scale = (n - 1) * (p - 1)
    best_num, best_den, best_k, best = -1, 1, -1, -1.0  # best: the float quotient
    violations = 0
    nm1 = n - 1
    hardware = p == 53 and not ties_away
    for k in range(k_lo, k_hi):
        X0 = half_sig + k
        if hardware:
            x = v = X0 * 2.0**-52
            ec = 0
            for _ in range(nm1):
                v *= x
                if v >= 2.0:
                    v *= 0.5
                    ec += 1
            Xc = int(v * 2.0**52)
        else:
            Xc, ec = X0, 0
            for _ in range(nm1):
                P = X0 * Xc
                bits = P.bit_length()
                if bits == full_bits:
                    ec += 1
                shift = bits - p
                q = P >> shift
                r = P - (q << shift)
                half = 1 << (shift - 1)
                if r > half or (r == half and (ties_away or q & 1)):
                    q += 1
                    if q == top:
                        q = half_sig
                        ec += 1
                Xc = q
        x_pow = X0**n
        err_num = abs((Xc << (ec + expo_scale)) - x_pow) << p
        try:
            err = err_num / x_pow
        except OverflowError:  # an error beyond 2**1024 ulps
            err = math.inf
        if err > best or (err == best and err_num * best_den > best_num * x_pow):
            best_num, best_den, best_k, best = err_num, x_pow, k, err
        if err_num > nm1 * x_pow:
            violations += 1
    return best_num, best_den, best_k, violations


def _scan_binary64(args: tuple[int, int, bool, int, int]) -> tuple[int, int, int, int]:
    """Binary64 kernel for TIES_EVEN at p <= 26 and TIES_AWAY at p <= 25:
    iterate in doubles, keep what the gamma_n filter cannot rule out, then
    score the kept candidates exactly, largest estimate first (see the
    module docstring)."""
    p, n, ties_away, k_lo, k_hi = args
    nm1 = n - 1
    spacing = 2.0 ** (1 - p)
    c_lo = 1.5 * 2.0 ** (53 - p)  # rounds z in [1, 2) to p bits
    # TIES_AWAY iterates on xa = x + tie in place of x (the module docstring).
    tie = 2.0 ** (-2 * p) if ties_away else 0.0
    gamma = _gamma(n, tie)
    t_viol = nm1 * 2.0**-p  # the (n-1)-ulp line as a relative error, exactly
    # A walk adds weights[i] to s at each step i that halves v.  S climbs
    # from 0 to at most m - 1 over the binade, so its runs average at least
    # 2**(p-1) / m candidates: only where that is long, in a long range,
    # are runs worth looking for.
    m = nm1 * n // 2 + 1
    runs = 2 <= n <= _RUN_MAX_N and k_hi - k_lo >= _MIN_RUN + 2 and 1 << (p - 1) >= _RUN_GATE * m
    if runs or nm1 >= 1 << 20:  # (a range holds no memory at any n)
        weights = range(m + nm1, m, -1)  # s = ec * m + S, as S < m
    else:
        weights, m = b"\1" * nm1, 1  # s = ec, counted in cached small ints
    # Pass 1, doubles only: keep (rho_hat, k, v, ec) of every candidate
    # outside the band that a kept candidate's error floor allows.  The
    # candidates are visited in increasing k, as the floor needs.
    kept = []
    floor = 0.0
    lo, hi = 2.0, 0.0  # empty, so the range's first candidate is kept

    def keep(rho_hat, k, v, ec):
        nonlocal floor, lo, hi
        kept.append((rho_hat, k, v, ec))
        t = _error_floor(rho_hat, gamma)
        if t > floor:
            floor = t
            lo, hi = _band(min(t, t_viol), gamma)

    def walk(a, b):  # walk and visit candidates a .. b-1
        for k, rho_hat, v, s in _walks(a, b, spacing, weights, c_lo, tie):
            if not lo <= rho_hat <= hi:
                keep(rho_hat, k, v, s // m)

    if runs:

        def probe(k):
            return next(_walks(k, k + 1, spacing, weights, c_lo, tie))

        probes = [probe(k_hi - 1), probe(k_lo)]
    else:
        walk(k_lo, k_hi)
        probes = []
    # Candidate k has been visited, and probes holds walked candidates
    # beyond it, the nearest last.  Up to a probe with k's s lies a run,
    # visited without branches; the stretch up to any other probe is split
    # in two.  So no candidate is walked twice.
    k, s, run_s = k_lo - 1, None, None  # run_s: the run constants' s
    while probes:
        q, rho_q, v_q, s_q = probes[-1]
        gap = q - k - 1
        if s_q == s:
            if s != run_s:
                c1, consts, unscale = _run_constants(1.0 + k * spacing + tie, nm1, c_lo)
                run_s, ec = s, s // m
            # Two candidates at a time, x and y; an odd last one is walked.
            x = 1.0 + (k + 1) * spacing + tie
            for j in range(k + 1, q - 1, 2):
                y = x + spacing
                e = x * x  # also the first product to round
                f = y * y
                v = e + c1 - c1
                w = f + c1 - c1
                for c in consts:
                    v = x * v + c - c
                    w = y * w + c - c
                    e *= x
                    f *= y
                rho_hat = v / e
                if not lo <= rho_hat <= hi:
                    keep(rho_hat, j, v * unscale, ec)
                rho_hat = w / f
                if not lo <= rho_hat <= hi:
                    keep(rho_hat, j + 1, w * unscale, ec)
                x = y + spacing
            if gap % 2:
                walk(q - 1, q)
        elif gap:
            probes.append(probe((k + q) // 2))
            continue
        probes.pop()
        if not lo <= rho_q <= hi:
            keep(rho_q, q, v_q, s_q // m)
        k, s = q, s_q
    # Pass 2, exact: the first candidate scored is almost always the
    # range's best, and its error rules out the rest.
    kept.sort(key=lambda c: abs(c[0] - 1.0), reverse=True)
    half_sig = 1 << (p - 1)
    to_sig = float(half_sig)  # v * to_sig is v's integral significand
    expo_scale = nm1 * (p - 1)
    state = (-1, 1, -1, 0)
    lo, hi = 2.0, 0.0
    for rho_hat, k, v, ec in kept:
        if lo <= rho_hat <= hi:
            continue
        x_pow = (half_sig + k) ** n
        err_num = abs((int(v * to_sig) << (ec + expo_scale)) - x_pow) << p
        err = err_num / x_pow
        state = _merge(state, (err_num, x_pow, k, int(err_num > nm1 * x_pow)), err)
        if state[2] == k:
            # Strictly below the exact best, so a candidate inside the band
            # loses to it whatever the order.
            t = err * 2.0**-p * (1.0 - _NUDGE)
            lo, hi = _band(min(t, t_viol), gamma)
    return state


def _walks(
    k_lo: int, k_hi: int, spacing: float, weights: range | bytes, c_lo: float, tie: float = 0.0
) -> Iterator[tuple[int, float, float, int]]:
    """Yield (k, rho_hat, v, s) for each candidate k in [k_lo, k_hi), by the
    branching loop: v in [1, 2] is the computed power over 2**ec, and s adds
    weights[i] at each step i that halves v.  The loop runs on
    x = 1 + k * spacing + tie; tie = 2**-2p makes ties round away."""
    c_hi = 2.0 * c_lo  # rounds z in [2, 4) to p bits
    x = 1.0 + k_lo * spacing + tie
    for k in range(k_lo, k_hi):
        x_half = 0.5 * x
        v = e = x
        s = 0
        for w in weights:
            z = x * v
            if z >= 2.0:
                v = (z + c_hi - c_hi) * 0.5
                e *= x_half
                s += w
            else:
                v = z + c_lo - c_lo
                e *= x
        yield k, v / e, v, s
        x += spacing


def _run_constants(x: float, nm1: int, c_lo: float) -> tuple[float, list, float]:
    """The branch-free loop's constants for the run that holds x.

    Returns (c1, consts, unscale): c1 rounds the first product x * x,
    consts holds C_j for each later step j, and unscale = 2**-ec brings
    the final v into [1, 2].
    """
    z = x * x
    top, c = (4.0, 2.0 * c_lo) if z >= 2.0 else (2.0, c_lo)
    c1 = c
    v = z + c - c
    consts = []
    for _ in range(nm1 - 1):
        z = x * v
        if z >= top:  # z < 2 * top, as x < 2 and v <= top
            top += top
            c += c
        v = z + c - c
        consts.append(c)
    return c1, consts, 2.0 / top


def _gamma(n: int, tie: float) -> float:
    """The filter's slack, gamma_n + n * tie, nudged up: e tracks xa**n,
    at most n * tie above x**n relatively (the module docstring)."""
    return (n * 2.0**-53 / (1.0 - n * 2.0**-53) + n * tie) * (1.0 + _NUDGE)


def _band(t: float, gamma: float) -> tuple[float, float]:
    """(lo, hi) such that lo <= rho_hat <= hi implies |rho - 1| <= t."""
    hi = (1.0 + t) * (1.0 - gamma)
    hi -= hi * _NUDGE  # 1 + t > 0 and gamma < 1, so hi > 0
    lo = (1.0 - t) * (1.0 + gamma)
    lo += abs(lo) * _NUDGE
    return lo, hi


def _error_floor(rho_hat: float, gamma: float) -> float:
    """A lower bound on |rho - 1| for every rho that rho_hat allows.

    rho >= rho_hat / (1 + gamma) and rho <= rho_hat / (1 - gamma).  The
    quotient q rounds twice, so the true quotient is within q * 2u of it.
    q - 1 (or 1 - q) is exact by Sterbenz's lemma when q is in [1/2, 2]
    and otherwise rounds by at most u * max(q, 1).  The subtracted
    16u * max(q, 1) covers both with the final rounding.  A result <= 0
    says nothing and is never used.
    """
    if rho_hat >= 1.0:
        q = rho_hat / (1.0 + gamma)
        return (q - 1.0) - q * 2.0**-49
    q = rho_hat / (1.0 - gamma)
    return (1.0 - q) - 2.0**-49  # here q < 1 wherever the result is used


def _merge(
    state: tuple[int, int, int, int],
    part: tuple[int, int, int, int],
    new: float | None = None,
) -> tuple[int, int, int, int]:
    # Associative and commutative: larger error wins, ties prefer smaller k.
    # Int true division rounds correctly, hence monotonically, so unequal
    # quotients already order the errors; only equal ones need the exact
    # cross-multiplication.  ``new``, if given, is part's quotient already.
    num, den, k, viol = state
    pnum, pden, pk, pviol = part
    try:
        old = num / den
        if new is None:
            new = pnum / pden
    except OverflowError:  # an error beyond 2**1024 ulps
        new = old = 0.0
    if new == old:
        new, old = pnum * den, num * pden
    if new > old or (new == old and 0 <= pk < k):
        num, den, k = pnum, pden, pk
    return num, den, k, viol + pviol


def _pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    # Imported here, so that only a scan that starts a pool loads the
    # process-pool modules, and every other command starts without them.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _pooled(
    pool: concurrent.futures.ProcessPoolExecutor,
    chunks: Iterable[tuple[int, int, bool, int, int]],
    depth: int,
) -> Iterator[tuple[tuple[int, int, bool, int, int], tuple[int, int, int, int]]]:
    """Yield (chunk, _scan_chunk(chunk)) in order, scanned in ``pool`` with
    at most ``depth`` chunks submitted and not yet taken.  A worker that
    dies is an OSError, like any other failure of the machine."""
    from concurrent.futures.process import BrokenProcessPool

    pending = deque()
    try:
        for chunk in chunks:
            pending.append((chunk, pool.submit(_scan_chunk, chunk)))
            if len(pending) == depth:
                chunk, future = pending.popleft()
                yield chunk, future.result()
        for chunk, future in pending:
            yield chunk, future.result()
    except BrokenProcessPool:
        raise ChildProcessError(
            "a scan worker died; a --checkpoint scan resumes from its last chunk"
        ) from None


def _write_checkpoint(path: str, payload: dict) -> None:
    # A unique temp file in the same directory, synced before the rename,
    # so a crash leaves either the old checkpoint or the new one.
    import tempfile

    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + "."
    )
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_checkpoint(path: str, expect: dict) -> tuple[int, int, int] | None:
    """(next_k, best_k, violations) saved for this scan, or None for a new
    file.  Anything but a state the writer could have left after a chunk of
    this scan is refused, naming the file, and so is a new file in a missing
    directory, before any scanning."""
    if not os.path.exists(path):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"checkpoint {path}: no such directory")
        return None
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path} is not JSON: {exc}") from None
    schema = data.get("schema_version") if isinstance(data, dict) else None
    if schema != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"unsupported checkpoint schema in {path}")
    for key, want in expect.items():
        if data.get(key) != want:
            raise ValueError(
                f"checkpoint {path} was written for {key}={data.get(key)!r}, "
                f"this scan has {key}={want!r}"
            )

    def integer(key: str, lo: int, hi: int) -> int:
        v = data.get(key)
        if type(v) is not int or not lo <= v <= hi:
            msg = f"{key}={v!r} is not an integer in [{lo}, {hi}]"
            raise ValueError(f"checkpoint {path}: {msg}")
        return v

    # next_k first: the other two bounds are computed from it.
    k_start = expect["k_start"]
    next_k = integer("next_k", k_start + 1, expect["k_stop"])
    best_k = integer("best_k", k_start, next_k - 1)
    return next_k, best_k, integer("violations", 0, next_k - k_start)


def exhaustive_max_error(
    p: int,
    n: int,
    mode: RoundingMode = RoundingMode.TIES_EVEN,
    *,
    k_start: int = 0,
    k_stop: int | None = None,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint: str | None = None,
    progress: Callable[[int, int], None] | None = None,
    force: bool = False,
) -> SearchReport:
    """Scan naive_power over x = 1 + 2ku for k in [k_start, k_stop).

    By default the whole binade [1, 2) is scanned.  ``k_start``/``k_stop``
    restrict the scan to a significand window (used to re-verify a known
    worst case quickly).  ``checkpoint`` names a JSON state file written
    after every chunk; an interrupted scan resumes from it and finishes
    with a report identical to an uninterrupted run.  Scans above the
    precision guard (p > 26) must pass ``force=True``.
    """
    _check_precision(p)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p > PRECISION_GUARD and not force:
        raise ValueError(
            f"p = {p} exceeds the scan guard ({PRECISION_GUARD}); "
            "pass force=True for a deliberately large run"
        )
    space = 1 << (p - 1)
    if k_stop is None:
        k_stop = space
    if not 0 <= k_start < k_stop <= space:
        raise ValueError(f"bad significand window [{k_start}, {k_stop})")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    ties_away = mode is RoundingMode.TIES_AWAY
    expect = {
        "p": p,
        "n": n,
        "mode": mode.value,
        "k_start": k_start,
        "k_stop": k_stop,
    }
    state = (-1, 1, -1, 0)
    next_k = k_start
    saved = _load_checkpoint(checkpoint, expect) if checkpoint else None
    if saved:
        # The best error is a function of best_k alone: score that one input
        # again, with the kernel and formula that scored it in the first place.
        next_k, best_k, violations = saved
        num, den, _, _ = _scan_chunk((p, n, ties_away, best_k, best_k + 1))
        state = num, den, best_k, violations

    # Chunks are made as they are taken, so a scan's memory does not grow
    # with their count.
    chunks = (
        (p, n, ties_away, lo, min(lo + chunk_size, k_stop))
        for lo in range(next_k, k_stop, chunk_size)
    )

    # Never more workers than chunks or CPUs: the pool forks all of them at
    # once.  The CPU count is a system call, so a serial scan skips it.
    workers = min(jobs, -(-(k_stop - next_k) // chunk_size))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    pool = _pool(workers) if workers > 1 else None
    try:
        if pool:
            parts = _pooled(pool, chunks, 2 * workers)
        else:
            parts = ((chunk, _scan_chunk(chunk)) for chunk in chunks)
        for chunk, part in parts:
            state = _merge(state, part)
            done_upto = chunk[4]
            if checkpoint:
                _write_checkpoint(
                    checkpoint,
                    {
                        "schema_version": CHECKPOINT_SCHEMA_VERSION,
                        **expect,
                        "next_k": done_upto,
                        "best_k": state[2],
                        "violations": state[3],
                    },
                )
            if progress:
                progress(done_upto - k_start, k_stop - k_start)
    finally:
        if pool:  # on an error, drop the chunks that have not started
            pool.shutdown(cancel_futures=True)

    num, den, best_k, violations = state
    argmax = FpNumber(1, (1 << (p - 1)) + best_k, 0, p)
    return SearchReport(
        n=n,
        max_error=_lowest_terms(num, den, argmax.significand),
        argmax_x=argmax,
        scanned=k_stop - k_start,
        violations=violations,
        k_start=k_start,
        k_stop=k_stop,
    )


def spot_error(
    x: FpNumber,
    n: int,
    mode: RoundingMode = RoundingMode.TIES_EVEN,
) -> Fraction:
    """Exact relative error in ulps of naive_power(x, n) against the rational x**n.

    Measured on x moved into [1, 2) (or (-2, -1]): the error is invariant
    under binade shifts, and at a large exponent the exact x**n is too
    large to build.
    """
    p = x.precision
    x = FpNumber(x.sign, x.significand, 0, p)
    computed = naive_power(x, n, mode)  # first: it refuses n < 1
    # x is sign * X * 2**(1-p), so x**n is (sign * X)**n * 2**(n*(1-p)).
    return relative_error(computed, (x.sign * x.significand) ** n, n * (1 - p))
