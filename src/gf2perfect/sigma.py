"""The sum-of-divisors function for GF(2) polynomials, and its classifiers.

sigma(A) is the xor-sum of all divisors of A.  It is multiplicative, so
the production path assembles it from the factorization: sigma(P^n) per
prime power, multiplied out.

Characteristic-2 prime-power identities used throughout:

- Mersenne exponents:  1 + P + ... + P^(2^s - 1) = (P+1)^(2^s - 1)
- splitting, n+1 = 2^s * u with u odd:
      sigma(P^n) = (P+1)^(2^s - 1) * sigma(P^(u-1))^(2^s)
- three-term recurrence, e >= 1:
      sigma(P^(e+1)) = (P+1) * sigma(P^e) + P * sigma(P^(e-1))
"""

from enum import Enum

from .factor import factorize, smallest_factor_tables
from .gf2poly import X, X1, gcd, mul, pow_


class Parity(Enum):
    """Even means divisible by x or x+1; odd means coprime to x^2+x."""
    EVEN = 'even'
    ODD = 'odd'


def sigma_prime_power(p, n):
    """1 + p + ... + p^n for nonzero p.

    Splits n+1 = 2^s * u (u odd) and applies the characteristic-2
    identity; the odd Horner tail has u-1 multiplications.
    """
    if p == 0:
        raise ValueError('sigma of a power of the zero polynomial')
    n += 1
    s = (n & -n).bit_length() - 1
    u = n >> s
    r = 1
    for _ in range(u - 1):  # 1 + p*(previous), u-1 times
        r = mul(p, r) ^ 1
    r = pow_(r, 1 << s)
    return mul(r, pow_(p ^ 1, (1 << s) - 1))


def sigma(a, seed=None):
    """sigma assembled multiplicatively over the factorization of a != 0."""
    return sigma_of_factorization(factorize(a, seed=seed))


def sigma_of_factorization(fac):
    """sigma from an existing Factorization."""
    s = 1
    for p, e in fac:
        s = mul(s, sigma_prime_power(p, e))
    return s


def omega(a):
    """Number of distinct irreducible factors of a != 0."""
    if a == 0:
        raise ValueError('omega of the zero polynomial is undefined')
    return factorize(a).omega


def parity(a):
    """Even iff x or x+1 divides a, i.e. gcd(a, x^2+x) != 1."""
    if a == 0:
        raise ValueError('parity of the zero polynomial is undefined')
    return Parity.EVEN if gcd(a, mul(X, X1)) != 1 else Parity.ODD


def sigma_table(max_deg):
    """sigma(a) for every a of degree <= max_deg, as a uint32 array.

    Entry a holds sigma(a); entry 0 is unused.  With p = spf(a) and
    b = a // p, sigma(a) = (p+1) sigma(b), plus p sigma(b // p) when p
    also divides b: the three-term recurrence times the sigma of the
    cofactor coprime to p.  One vectorised round per degree d fills the
    slice [2^d, 2^(d+1)); b and b // p have lower degree than a, so a
    round reads only finished slices.  The even entries have p = x and
    b = a >> 1, so they are done by slicing; only the odd half gathers
    through the sieve.  Entries must fit in uint32, so max_deg <= 31.
    """
    import numpy as np

    spf, quot = smallest_factor_tables(max_deg)
    sig = np.zeros(len(spf), dtype=np.uint32)
    sig[1] = 1
    for d in range(1, max_deg + 1):
        lo, hi = 1 << d, 2 << d
        # a = 2b: (x+1) sigma(b), plus x sigma(a >> 2) where 4 | a (for
        # d = 1 that term reads sig[0] = 0)
        half = sig[lo >> 1:hi >> 1]
        ev = sig[lo:hi:2]
        np.left_shift(half, 1, out=ev)
        ev ^= half
        ev[::2] ^= sig[lo >> 2:hi >> 2] << 1
        p = spf[lo + 1:hi:2]
        b = quot[lo + 1:hi:2]
        s = p ^ 1
        sb = sig[b]
        # deg(s) + deg(sig[b]) = d, so the smaller has degree <= d/2
        odd = sig[lo + 1:hi:2]
        odd[:] = _clmul(np.minimum(s, sb), np.maximum(s, sb))
        # where p also divides b (never for b = 1, since spf[1] = 0);
        # then p^2 divides a, so deg(p) <= d/2
        ext = np.flatnonzero(spf[b] == p)
        odd[ext] ^= _clmul(p[ext], sig[quot[b[ext]]])
    return sig


def _clmul(x, y):
    """Elementwise carryless product of uint32 arrays, looping over x.

    One pass per bit of the largest x, so callers pass as x an operand
    of degree at most d/2: (x & 2^i) * y is y << i when bit i of x is
    set and 0 otherwise.  Products must fit in 32 bits.
    """
    import numpy as np

    r = np.zeros_like(y)
    t = np.empty_like(y)
    for i in range(int(x.max(initial=0)).bit_length()):
        np.bitwise_and(x, 1 << i, out=t)
        t *= y
        r ^= t
    return r
