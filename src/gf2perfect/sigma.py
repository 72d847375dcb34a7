"""The sum-of-divisors function for GF(2) polynomials, and its classifiers.

sigma(A) is the xor-sum of all divisors of A.  It is multiplicative, so
the production path assembles it from the factorization: sigma(P^n) per
prime power as the geometric series (P^(n+1) + 1) / (P + 1), multiplied
out.

Characteristic-2 prime-power identities, each tested against that path
(sigma_table builds on the recurrence):

- Mersenne exponents:  1 + P + ... + P^(2^s - 1) = (P+1)^(2^s - 1)
- splitting, n+1 = 2^s * u with u odd:
      sigma(P^n) = (P+1)^(2^s - 1) * sigma(P^(u-1))^(2^s)
- three-term recurrence, e >= 1:
      sigma(P^(e+1)) = (P+1) * sigma(P^e) + P * sigma(P^(e-1))
"""

from enum import Enum

from .factor import factorize, smallest_factor_tables
from .gf2poly import divexact, mul, pow_


class Parity(Enum):
    """Even means divisible by x or x+1; odd means coprime to x^2+x."""
    EVEN = 'even'
    ODD = 'odd'


def sigma_prime_power(p, n):
    """1 + p + ... + p^n for nonzero p: (p^(n+1) + 1) / (p + 1).

    p + 1 itself for n = 1, the common case in a factorization, and
    (n + 1) mod 2 for p = 1, where p + 1 = 0.
    """
    if p == 0:
        raise ValueError('sigma of a power of the zero polynomial')
    if p == 1:
        return (n + 1) & 1
    if n == 1:
        return p ^ 1
    return divexact(pow_(p, n + 1) ^ 1, p ^ 1)


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
    """Even iff x or x+1 divides a, i.e. gcd(a, x^2+x) != 1.

    x divides a iff its constant term is 0, and x+1 divides a iff a(1) =
    0, i.e. a has an even number of terms.
    """
    if a == 0:
        raise ValueError('parity of the zero polynomial is undefined')
    if a & 1 == 0 or a.bit_count() % 2 == 0:
        return Parity.EVEN
    return Parity.ODD


# Entries per block of a round's odd half.  Every temporary of a round is
# block-sized, so the working set is the tables plus a few fixed buffers
# whatever max_deg is.
_BLOCK = 1 << 15


def sigma_table(max_deg):
    """sigma(a) for every a of degree <= max_deg, as a uint32 array.

    Entry a holds sigma(a); entry 0 is unused.  With p = spf(a) and
    b = a // p, sigma(a) = (p+1) sigma(b), plus p sigma(b // p) when p
    also divides b: the three-term recurrence times the sigma of the
    cofactor coprime to p.  One round per degree d fills the slice
    [2^d, 2^(d+1)); b and b // p have lower degree than a, so a round
    reads only finished slices.  The even entries have p = x and
    b = a >> 1, so they are done by slicing; the odd half gathers
    through the odd-only sieve in blocks of _BLOCK entries that reuse
    the same buffers.  Entries must fit in uint32, so max_deg <= 31.
    """
    import numpy as np

    spf, quot = smallest_factor_tables(max_deg)
    sig = np.zeros(2 * len(spf), dtype=np.uint32)
    sig[1] = 1
    n = min(_BLOCK, len(spf))
    s_buf, b_buf, m_buf, t_buf = (np.empty(n, dtype=np.uint32)
                                  for _ in range(4))
    for d in range(1, max_deg + 1):
        lo, hi = 1 << d, 2 << d
        # a = 2b: (x+1) sigma(b), plus x sigma(a >> 2) where 4 | a (for
        # d = 1 that term reads sig[0] = 0)
        half = sig[lo >> 1:hi >> 1]
        ev = sig[lo:hi:2]
        np.left_shift(half, 1, out=ev)
        ev ^= half
        ev[::2] ^= sig[lo >> 2:hi >> 2] << 1
        # odd a = 2i+1 for i in [lo/2, hi/2)
        for i in range(lo >> 1, hi >> 1, n):
            j = min(i + n, hi >> 1)
            k = j - i
            p = spf[i:j]
            b = quot[i:j]
            odd = sig[2 * i + 1:2 * j:2]
            s = np.bitwise_xor(p, 1, out=s_buf[:k])
            sb = np.take(sig, b, out=b_buf[:k])
            # deg(s) + deg(sig[b]) = d, so the smaller has degree <= d/2;
            # the larger is s ^ sb ^ min
            mn = np.minimum(s, sb, out=m_buf[:k])
            s ^= sb
            s ^= mn
            _clmul(mn, s, odd, t_buf[:k])
            # where p also divides b (never for b = 1, since spf[0] = 0);
            # then p^2 divides a, so deg(p) <= d/2
            half_b = np.right_shift(b, 1, out=b_buf[:k])
            ext = np.flatnonzero(np.take(spf, half_b, out=s_buf[:k]) == p)
            e = ext.size
            c = np.take(sig, quot[half_b[ext]], out=m_buf[:e])
            odd[ext] ^= _clmul(p[ext], c, s_buf[:e], t_buf[:e])
    return sig


def _clmul(x, y, out, t):
    """Elementwise carryless product of uint32 arrays x, y into out.

    One pass per bit of the largest x, so callers pass as x an operand
    of degree at most d/2: (x & 2^i) * y is y << i when bit i of x is
    set and 0 otherwise.  t is a scratch buffer of the same length;
    products must fit in 32 bits.  Returns out.
    """
    import numpy as np

    out.fill(0)
    for i in range(int(x.max(initial=0)).bit_length()):
        np.bitwise_and(x, 1 << i, out=t)
        t *= y
        out ^= t
    return out
