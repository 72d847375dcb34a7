"""Irreducibility testing, factorization and enumeration of GF(2) irreducibles.

Inputs of degree at most 20 are factored by trial division against the
cached table of irreducibles up to degree 10, which is enough to expose
every composite in that range; larger inputs go through squarefree
splitting, then distinct-degree and trace-based equal-degree splitting.
Both paths produce the same canonical Factorization and are tested
against each other.
"""

import random
from dataclasses import dataclass
from functools import lru_cache

from .gf2poly import (
    X, X1, degree, derivative, divexact, divrem, gcd, mul, pow_, rem,
    sqrt, square,
)

# trial division against irreducibles of degree <= _TRIAL_SIEVE_DEG is a
# complete factorization for inputs of degree <= 2*_TRIAL_SIEVE_DEG
_TRIAL_SIEVE_DEG = 10
_TRIAL_INPUT_DEG = 2 * _TRIAL_SIEVE_DEG

_EDF_SEED = 0x5EED


@dataclass(frozen=True)
class Factorization:
    """Multiset of (irreducible, exponent) pairs in ascending prime order."""

    value: int
    factors: tuple

    @property
    def omega(self):
        """Number of distinct irreducible factors."""
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def primes(self):
        """The distinct irreducible factors, ascending."""
        return [p for p, _ in self.factors]

    def product(self):
        """Reassemble the factorization; equals ``value`` by construction."""
        r = 1
        for p, e in self.factors:
            r = mul(r, pow_(p, e))
        return r

    def to_dict(self):
        """JSON-friendly form with hex primes."""
        return {
            'poly_hex': format(self.value, '#x'),
            'factors': [{'prime_hex': format(p, '#x'), 'exp': e}
                        for p, e in self.factors],
        }


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(p):
    """Rabin's criterion: x^(2^d) == x mod p, plus gcd checks at the
    maximal proper divisors d/r of d for each prime r dividing d."""
    d = degree(p)
    if d < 1:
        raise ValueError('irreducibility is undefined for constants')
    if d == 1:
        return True
    if p & 1 == 0:  # divisible by x
        return False
    checkpoints = {d // r for r in _prime_divisors(d)}
    h = X
    for i in range(1, d + 1):
        h = rem(square(h), p)
        if i in checkpoints and gcd(h ^ X, p) != 1:
            return False
    return h == X


@lru_cache(maxsize=None)
def _irreducibles_up_to(d):
    out = [X, X1]
    for n in range(2, d + 1):
        for c in range((1 << n) | 1, 1 << (n + 1), 2):
            # skip multiples of x+1 (even weight) before the full test
            if (c.bit_count() & 1) and is_irreducible(c):
                out.append(c)
    return tuple(out)


# Above _TRIAL_SIEVE_DEG the primes come from the sieve (0.06 s at degree
# 20 on a 2-CPU Xeon VM, where the Rabin loop took 20 s), so the cap
# bounds its 2^d-entry tables and the output: 111,013 primes at 20.
MAX_IRREDUCIBLES_DEG = 20


def irreducibles_up_to(d):
    """All irreducibles of degree <= d, ascending by (degree, bitmask).

    Up to degree _TRIAL_SIEVE_DEG this is the cached Rabin list, with
    no numpy import; above it, x and the primes of the odd-only sieve,
    whose entries with quot == 1 are the odd irreducibles.
    """
    if d < 1:
        raise ValueError('degree bound must be >= 1')
    if d > MAX_IRREDUCIBLES_DEG:
        raise ValueError(f'degree bound must be <= {MAX_IRREDUCIBLES_DEG}')
    if d <= _TRIAL_SIEVE_DEG:
        return list(_irreducibles_up_to(d))
    _, quot = smallest_factor_tables(d)
    return [X] + (2 * (quot == 1).nonzero()[0] + 1).tolist()


def factorize(p, seed=None):
    """Complete factorization of a nonzero polynomial.

    The seed feeds the equal-degree splitting step only; the default is
    fixed so repeated runs are reproducible.
    """
    if p == 0:
        raise ValueError('cannot factor the zero polynomial')
    if p == 1:
        return Factorization(1, ())
    if degree(p) <= _TRIAL_INPUT_DEG:
        counts = _factor_trial(p)
    else:
        counts = {}
        _factor_general(p, 1, counts,
                        random.Random(_EDF_SEED if seed is None else seed))
    return Factorization(p, tuple(sorted(counts.items())))


def _factor_trial(p):
    counts = {}
    for q in _irreducibles_up_to(_TRIAL_SIEVE_DEG):
        if 2 * degree(q) > degree(p):
            break
        while True:
            quo, r = divrem(p, q)
            if r:
                break
            p = quo
            counts[q] = counts.get(q, 0) + 1
    if degree(p) >= 1:
        # no factor of degree <= deg(p)/2 remains, so p is irreducible
        counts[p] = counts.get(p, 0) + 1
    return counts


def _factor_general(p, mult, counts, rng):
    # peel squarefree layers: gcd(p, p') collects exactly the primes of
    # even multiplicity plus one copy less of the odd-multiplicity ones,
    # so the cofactor is squarefree and the rest is a perfect square
    while degree(p) >= 1:
        d = derivative(p)
        if d == 0:
            p = sqrt(p)
            mult *= 2
            continue
        g = gcd(p, d)
        for q in _factor_squarefree(divexact(p, g), rng):
            counts[q] = counts.get(q, 0) + mult
        p = g


def _factor_squarefree(w, rng):
    """Split a squarefree w into irreducibles (distinct-degree first)."""
    out = []
    h = X
    d = 1
    while 2 * d <= degree(w):
        h = rem(square(h), w)  # h = x^(2^d) mod w
        g = gcd(h ^ X, w)
        if g != 1:
            out.extend(_split_equal_degree(g, d, rng))
            w = divexact(w, g)
            h = rem(h, w)
        d += 1
    if degree(w) >= 1:
        out.append(w)
    return out


def _split_equal_degree(g, d, rng):
    """Split a product of distinct degree-d irreducibles via the trace map."""
    if degree(g) == d:
        return [g]
    while True:
        u = rng.randrange(1, 1 << degree(g))
        # trace u + u^2 + u^4 + ... + u^(2^(d-1)) lands in GF(2) on each factor
        t = u
        v = u
        for _ in range(d - 1):
            v = rem(square(v), g)
            t ^= v
        s = gcd(t, g)
        if 0 < degree(s) < degree(g):
            return (_split_equal_degree(s, d, rng)
                    + _split_equal_degree(divexact(g, s), d, rng))


def squarefree_part(p):
    """Product of the distinct irreducible factors of a nonzero p."""
    if p == 0:
        raise ValueError('squarefree part of the zero polynomial is undefined')
    r = 1
    for q, _ in factorize(p):
        r = mul(r, q)
    return r


def smallest_factor_tables(max_deg):
    """Tables (spf, quot) over the odd ints below 2^(max_deg+1).

    Entry i describes a = 2i+1: spf[i] is the least irreducible factor
    of a (as an int) and quot[i] = a // spf[i]; entry 0 (a = 1) is left
    as zero.  Both tables are uint32 of length 2^max_deg.  Even a are
    implicit: their least prime is x and their quotient is a >> 1.

    A linear sieve marks each odd composite once, by its least prime:
    for each irreducible p != x of degree <= max_deg/2, in ascending
    order, the odd cofactors m still unmarked have no prime factor below
    p, so every p*m (odd, stored at (p*m) >> 1) gets spf = p.  For x+1
    that is every odd m.  Anything unmarked afterwards has no factor of
    degree <= max_deg/2 and is therefore itself irreducible.
    """
    import numpy as np

    size = 1 << max_deg
    spf = np.zeros(size, dtype=np.uint32)
    quot = np.zeros(size, dtype=np.uint32)
    for p in _irreducibles_up_to(max_deg // 2)[1:]:
        # odd m with deg(p*m) <= max_deg sit at entries below n
        n = size >> degree(p)
        if p == X1:
            m = np.arange(1, 2 * n, 2, dtype=np.uint32)
        else:
            m = np.flatnonzero(spf[:n] == 0).astype(np.uint32)
            m <<= 1
            m |= 1
        prod = np.zeros_like(m)
        bits = p
        shift = 0
        while bits:
            if bits & 1:
                prod ^= m << shift
            bits >>= 1
            shift += 1
        prod >>= 1
        spf[prod] = p
        quot[prod] = m
    leftovers = np.flatnonzero(spf[1:] == 0).astype(np.uint32) + 1
    spf[leftovers] = 2 * leftovers + 1
    quot[leftovers] = 1
    return spf, quot
