"""The sum-of-divisors function for GF(2) polynomials, and its classifiers.

sigma(A) is the xor-sum of all divisors of A.  It is multiplicative, so
the production path assembles it from the factorization: sigma(P^n) per
prime power as the geometric series (P^(n+1) + 1) / (P + 1), multiplied
out.

The bulk table sigma_table (sigma(a) for every a up to a degree) is
filled by a round loop over the odd-only smallest-factor sieve, built
on the recurrence below.  fixed_points scans it for the a with
sigma(a) = a.

Characteristic-2 prime-power identities, each tested against that path:

- Mersenne exponents:  1 + P + ... + P^(2^s - 1) = (P+1)^(2^s - 1)
- splitting, n+1 = 2^s * u with u odd:
      sigma(P^n) = (P+1)^(2^s - 1) * sigma(P^(u-1))^(2^s)
- three-term recurrence, e >= 1:
      sigma(P^(e+1)) = (P+1) * sigma(P^e) + P * sigma(P^(e-1))
"""

from enum import Enum
from functools import reduce

from .factor import factorize, smallest_factor_tables
from .gf2poly import divexact, mul, pow_


class Parity(Enum):
    """Even means divisible by x or x+1; odd means coprime to x^2+x."""
    EVEN = 'even'
    ODD = 'odd'


def sigma_prime_power(p, n):
    """1 + p + ... + p^n for nonzero p and n >= 0: (p^(n+1) + 1) / (p + 1).

    p + 1 itself for n = 1, the common case in a factorization, and
    (n + 1) mod 2 for p = 1, where p + 1 = 0.
    """
    if p <= 0:
        raise ValueError(f'expected a nonzero polynomial, an int > 0: {p}')
    if n < 0:
        raise ValueError('negative exponent')
    if p == 1:
        return (n + 1) & 1
    # the division below gives the same p + 1, but this return is
    # faster: without it the certify-mix stream's 1,500 is_perfect calls
    # took 0.38-0.40 s in-process against 0.33-0.34 s, 15-16% slower in
    # each of 3 alternating pairs (2-CPU Xeon VM)
    if n == 1:
        return p ^ 1
    return divexact(pow_(p, n + 1) ^ 1, p ^ 1)


def sigma(a):
    """sigma assembled multiplicatively over the factorization of a != 0."""
    return sigma_of_factorization(factorize(a))


def sigma_of_factorization(fac):
    """sigma from (prime, exponent) pairs, such as factorize returns."""
    return reduce(mul, (sigma_prime_power(p, e) for p, e in fac), 1)


def parity(a):
    """Even iff x or x+1 divides a, i.e. gcd(a, x^2+x) != 1.

    x divides a iff its constant term is 0, and x+1 divides a iff a(1) =
    0, i.e. a has an even number of terms.
    """
    if a <= 0:
        raise ValueError(f'expected a nonzero polynomial, an int > 0: {a}')
    if a & 1 == 0 or a.bit_count() % 2 == 0:
        return Parity.EVEN
    return Parity.ODD


# Entries per block of a round.  Every temporary of a round is at most
# block-sized, so the working set is the tables plus a few block-sized
# arrays whatever max_deg is.
_BLOCK = 1 << 15


def sigma_table(max_deg):
    """sigma(a) for every a of degree <= max_deg, as a uint32 array.

    Entry a holds sigma(a); entry 0 is unused.  The odd entries come
    from _odd_rounds in a contiguous array of their own, so the sieve is
    freed before this table is allocated.  An even a has p = x and
    b = a >> 1, so sigma(a) = (x+1) sigma(b), plus x sigma(a >> 2) when
    4 | a; one slice per degree d fills them, reading degrees d-1 and
    d-2 only.  Entries must fit in uint32, so max_deg <= 31.
    """
    import numpy as np

    # entry 2i+1 is odd[i]; every even entry above 0 is overwritten below
    sig = np.repeat(_odd_rounds(max_deg), 2)
    sig[0] = 0
    for d in range(1, max_deg + 1):
        lo, hi = 1 << d, 2 << d
        # for d = 1 the x sigma(a >> 2) term reads sig[0] = 0
        half = sig[lo >> 1:hi >> 1]
        ev = sig[lo:hi:2]
        np.left_shift(half, 1, out=ev)
        ev ^= half
        ev[::2] ^= sig[lo >> 2:hi >> 2] << 1
    return sig


def fixed_points(max_deg):
    """The a >= 2 of degree <= max_deg with sigma(a) = a, ascending.

    The scan runs block by block, so no table-sized index or mask is
    built.
    """
    import numpy as np

    table = sigma_table(max_deg)
    ramp = np.arange(_BLOCK, dtype=table.dtype)
    found = []
    for lo in range(0, len(table), _BLOCK):
        part = table[lo:lo + _BLOCK]
        hits = np.flatnonzero(part == ramp[:len(part)] + lo)
        found.extend((hits + lo).tolist())
    return [a for a in found if a >= 2]


def _odd_rounds(max_deg):
    """t[i] = sigma(2i+1) for i < 2^max_deg, as a uint32 array.

    With p = spf(a) and b = a // p, sigma(a) = (p+1) sigma(b), except
    where p also divides b: there sigma(a) = (p+1) sigma(b) +
    p sigma(b // p), and the round adds the second term in place.
    That is the three-term recurrence
    sigma(P^(e+1)) = (P+1) sigma(P^e) + P sigma(P^(e-1)) times the sigma
    of the cofactor coprime to p.  One round per degree d fills the a of
    degree d; b and b // p are odd and of lower degree, so a round reads
    only finished entries.  Each round gathers through the odd-only
    sieve in blocks of _BLOCK entries, and every temporary is a fresh
    array of at most one block.
    """
    import numpy as np

    spf, quot = smallest_factor_tables(max_deg)
    # sigma(1) = 1; the rounds fill the rest
    t = np.ones(len(spf), dtype=np.uint32)
    for d in range(1, max_deg + 1):
        # odd a = 2i+1 of degree d, for i in [2^(d-1), 2^d)
        for i in range(1 << (d - 1), 1 << d, _BLOCK):
            j = min(i + _BLOCK, 1 << d)
            p = spf[i:j]
            h = quot[i:j] >> 1  # b = 2h+1
            s = p ^ 1
            fb = t[h]
            # deg sigma(p) + deg sigma(b) = deg sigma(a), so the smaller
            # has at most half that degree
            t[i:j] = _clmul(np.minimum(s, fb), np.maximum(s, fb))
            # where p also divides b (never for b = 1, since spf[0] = 0),
            # add p sigma(b // p), reading sigma(b // p) at entry
            # quot[h] >> 1; x = p there, and p^2 | a caps deg p at half
            # of deg a, which bounds the passes
            ext = np.flatnonzero(spf[h] == p)
            t[i + ext] ^= _clmul(p[ext], t[quot[h[ext]] >> 1])
    return t


def _clmul(x, y):
    """Elementwise carryless product of unsigned arrays x and y.

    The passes equal the bit length of x's largest entry: (x & 2^i) * y
    is y << i when bit i of x is set and 0 otherwise.  The result and
    the one scratch array are fresh, with the dtype of y, and products
    must fit in it.
    """
    import numpy as np

    out = np.zeros_like(y)
    t = np.empty_like(y)
    for i in range(int(x.max(initial=0)).bit_length()):
        np.bitwise_and(x, 1 << i, out=t)
        t *= y
        out ^= t
    return out
