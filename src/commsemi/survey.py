"""Parameter-space scans and empirical verification of the structure theorems.

scan() walks every validated presentation in an m-range, analyzes both
commutation semigroups, and records where non-basic orbits appear.  The
verify_* suites re-check, over concrete ranges, the facts the engine's
correctness leans on: prime m forces completeness (and ties the order
equality |P| = |Lambda| to outright equality), prime-square m forces
completeness with a rigid non-unit structure in R, prime index n forces
all non-zero closure elements to be units, and the minimal prime index s
of p in the k_t table divides exactly the t with p | k_t.

A theorem violation is an implementation bug: every suite is expected to
report zero violations on every range.

The generators of one cyclic subgroup <k> of Z_m^* share their bases R and
L, and so their analyses.  scan and the prime-m, prime-square and prime-n
suites walk each modulus inside one sigma.shared_analyses() scope, which
decomposes each distinct base once; they still report every k.  scan
also builds the bases of each <k> once, from the first presentation of
<k>, and files them under every generator k^j (j coprime to n) read off
that presentation's power table; a later generator finds them by its k
alone and never builds its own power tables.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import group, sigma
from .group import InvalidPresentation, Presentation
from .sigma import LEFT, RIGHT, SIDES


class NotADivisor(ValueError):
    """minimal_prime_index was asked about a prime not dividing m."""


@dataclass(frozen=True)
class ScanRecord:
    m: int
    k: int
    n: int
    side: str
    non_basic_reps: tuple[int, ...]
    complete: bool
    order: int


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def primes_up_to(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if is_prime(p)]


def factor_string(n: int) -> str:
    """Trial-division factorization rendered as '3^2*7'."""
    parts = []
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            parts.append(f"{f}^{e}" if e > 1 else f"{f}")
        f += 1
    if n > 1:
        parts.append(f"{n}")
    return "*".join(parts) if parts else "1"


def validated_presentations(m: int) -> list[Presentation]:
    """Every k in [2, m) passing validation, ascending."""
    out = []
    for k in range(2, m):
        try:
            out.append(group.validate(m, k))
        except InvalidPresentation:
            continue
    return out


def base_for(p: Presentation, side: str) -> sigma.BaseSet:
    if side == RIGHT:
        return sigma.right_base(p)
    if side == LEFT:
        return sigma.left_base(p)
    raise ValueError(f"unknown side {side!r}")


def _scan_one_modulus(m: int) -> list[ScanRecord]:
    out = []
    bases = {}  # each generator of a <k> seen -> the right and left bases of <k>
    with sigma.shared_analyses():
        for p in validated_presentations(m):
            if p.k not in bases:
                both = [base_for(p, side) for side in SIDES]
                for j in range(1, p.n):
                    if math.gcd(j, p.n) == 1:
                        bases[p.k_pow[j]] = both
            for side, base in zip(SIDES, bases[p.k]):
                a = sigma.analyze(p, base)
                reps = tuple(o.representative for o in a.orbits if not o.basic)
                out.append(ScanRecord(m, p.k, p.n, side, reps, a.complete, a.total_order))
    return out


def scan(m_lo: int, m_hi: int, jobs: int = 1) -> list[ScanRecord]:
    """Analyze both sides of every validated (m, k) with m_lo <= m <= m_hi.

    Every generator of one cyclic subgroup <k> of Z_m^* has the same bases
    R and L, so each modulus is walked inside one sigma.shared_analyses()
    scope: the bases are built once per <k>, from its first presentation,
    and decomposed once, and every k still gets its own record.  Only that
    first presentation builds its power tables; every other generator of
    <k> is one dict lookup.  Records come back in (m, k,
    right-then-left) order regardless of the worker count; parallel runs
    chunk by modulus and merge in order.
    """
    if not 2 <= m_lo <= m_hi:
        raise ValueError(f"bad scan range [{m_lo}, {m_hi}]")
    moduli = range(m_lo, m_hi + 1)
    # a forked pool starts every worker at the first submit, so more workers
    # than moduli or cores only costs processes
    workers = min(jobs, len(moduli), os.cpu_count() or 1)
    if workers <= 1:
        chunks = map(_scan_one_modulus, moduli)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_one_modulus, moduli, chunksize=4))
    return [rec for chunk in chunks for rec in chunk]


def non_basic_moduli(records) -> dict[int, str]:
    """Distinct m values carrying any non-basic orbit, with factorizations."""
    hit = sorted({r.m for r in records if r.non_basic_reps})
    return {m: factor_string(m) for m in hit}


# ---------------------------------------------------------------------------
# theorem suites


def _divisors_by_x(a: sigma.SigmaAnalysis) -> dict[int, frozenset[int]]:
    return {x: o.generators_d for o in a.orbits for x in o.elements}


def verify_prime_m(p_max: int) -> VerificationReport:
    """Prime modulus: both sides complete, and the equality chain
    |R*| = |L*|  <=>  R* = L*  <=>  identical map sets  <=>  equal orders
    holds for every valid k.  The map sets are compared as each x's minimal
    divisors, read off the orbits: they fix x's y-set, so equal divisors
    for every x are equal map sets, in O(p) rather than p^2 codes per side."""
    violations = []
    cases = 0
    for p in primes_up_to(p_max):
        with sigma.shared_analyses():
            for pres in validated_presentations(p):
                cases += 1
                ar = sigma.analyze(pres, sigma.right_base(pres))
                al = sigma.analyze(pres, sigma.left_base(pres))
                tag = f"G({p},{pres.n},{pres.k})"
                if not ar.complete:
                    violations.append(f"{tag}: right side incomplete")
                if not al.complete:
                    violations.append(f"{tag}: left side incomplete")
                chain = {
                    "closure sizes equal": len(ar.closure.elements) == len(al.closure.elements),
                    "closures equal": ar.closure.elements == al.closure.elements,
                    "map sets equal": _divisors_by_x(ar) == _divisors_by_x(al),
                    "orders equal": ar.total_order == al.total_order,
                }
                if len(set(chain.values())) > 1:
                    detail = ", ".join(f"{k}={v}" for k, v in chain.items())
                    violations.append(f"{tag}: equivalence chain broken ({detail})")
    return VerificationReport("prime-m", cases, tuple(violations))


def verify_prime_square_m(p_max: int) -> VerificationReport:
    """Prime-square modulus: both sides complete, and the non-units of each
    base are either {0} or all p multiples of p."""
    violations = []
    cases = 0
    for p in primes_up_to(p_max):
        m = p * p
        full = frozenset(t * p for t in range(p))
        with sigma.shared_analyses():
            for pres in validated_presentations(m):
                cases += 1
                tag = f"G({m},{pres.n},{pres.k})"
                for side in SIDES:
                    base = base_for(pres, side)
                    a = sigma.analyze(pres, base)
                    if not a.complete:
                        violations.append(f"{tag}: {side} side incomplete")
                    if base.non_units != {0} and base.non_units != full:
                        violations.append(
                            f"{tag}: {side} base non-units {sorted(base.non_units)} "
                            "are neither {0} nor all multiples of p"
                        )
    return VerificationReport("prime-square-m", cases, tuple(violations))


def verify_prime_n(m_max: int) -> VerificationReport:
    """Prime index: all non-zero closure elements are units and both sides
    are complete, for every validated (m, k) with n = ind_m(k) prime."""
    violations = []
    cases = 0
    for m in range(3, m_max + 1):
        with sigma.shared_analyses():
            for pres in validated_presentations(m):
                if not is_prime(pres.n):
                    continue
                cases += 1
                tag = f"G({m},{pres.n},{pres.k})"
                for side in SIDES:
                    a = sigma.analyze(pres, base_for(pres, side))
                    if a.closure.non_units != {0}:
                        violations.append(
                            f"{tag}: {side} closure has non-units "
                            f"{sorted(a.closure.non_units)} beyond 0"
                        )
                    if not a.complete:
                        violations.append(f"{tag}: {side} side incomplete")
    return VerificationReport("prime-n", cases, tuple(violations))


def minimal_prime_index(p: Presentation, prime: int) -> int:
    """Least s in (1, n] with prime | k_s; k_n = 0 guarantees existence.

    The divisibility equivalence (prime | k_t iff s | t, for every t in
    (1, n]) is checked, and a violation raises ValueError.
    """
    if prime < 2 or p.m % prime != 0:
        raise NotADivisor(f"{prime} does not divide {p.m}")
    s = next(t for t in range(2, p.n + 1) if p.k_sub[t] % prime == 0)
    for t in range(2, p.n + 1):
        if (p.k_sub[t] % prime == 0) != (t % s == 0):
            raise ValueError(
                f"divisibility equivalence fails in {p} at prime {prime}: "
                f"s={s}, t={t}, k_t={p.k_sub[t]}"
            )
    return s


def verify_minimal_prime_index(m_max: int) -> VerificationReport:
    """Check the index-divisibility equivalence for every validated (m, k)
    with m <= m_max and every prime divisor of m; also s | n."""
    violations = []
    cases = 0
    for m in range(3, m_max + 1):
        prime_divisors = [q for q in primes_up_to(m) if m % q == 0]
        for pres in validated_presentations(m):
            for q in prime_divisors:
                cases += 1
                try:
                    s = minimal_prime_index(pres, q)
                except ValueError as exc:
                    violations.append(str(exc))
                    continue
                if pres.n % s != 0:
                    violations.append(
                        f"G({m},{pres.n},{pres.k}): s={s} for prime {q} does not divide n"
                    )
    return VerificationReport("lemma-6-4", cases, tuple(violations))
