"""The sum-of-divisors function for GF(2) polynomials, and its classifiers.

sigma(A) is the xor-sum of all divisors of A.  It is multiplicative, so
the production path assembles it from the factorization: sigma(P^n) per
prime power as the geometric series (P^(n+1) + 1) / (P + 1), multiplied
out.

The bulk table sigma_table (sigma(a) for every a up to a degree) is
filled by a round loop over the smallest-factor sieve, built on the
recurrence below.  The sieve is a wheel on x^2+x: it covers only the a
prime to x^2+x, and sigma_table fills the multiples of x+1 from those
by exact division, then the multiples of x by slicing.  fixed_points
scans the table for the a with sigma(a) = a.

Characteristic-2 prime-power identities, each tested against that path:

- Mersenne exponents:  1 + P + ... + P^(2^s - 1) = (P+1)^(2^s - 1)
- splitting, n+1 = 2^s * u with u odd:
      sigma(P^n) = (P+1)^(2^s - 1) * sigma(P^(u-1))^(2^s)
- three-term recurrence, e >= 1:
      sigma(P^(e+1)) = (P+1) * sigma(P^e) + P * sigma(P^(e-1))
"""

from enum import Enum
from functools import reduce

from .factor import factorize, prefix_xor, smallest_factor_tables
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


# Entries per block of a round, a power of two so that the pair pass's
# blocks are aligned to their size.  Every temporary of a round is at
# most block-sized, so the working set is the tables plus a few
# block-sized arrays whatever max_deg is.
_BLOCK = 1 << 15


def sigma_table(max_deg):
    """sigma(a) for every a of degree <= max_deg, as a uint32 array.

    Entry a holds sigma(a); entry 0 is unused.  The a prime to x^2+x
    come from _wheel_rounds in a compact array of their own, so the
    sieve is freed before this table is allocated.  The rest of the odd
    half is filled one degree d at a time, one pair (4c+1, 4c+3) at a
    time: one of the pair has odd weight and is expand(c), and the
    other is (x+1) b with b = 2 prefix_xor(c) + 1 of degree d-1, so
    sigma((x+1) b) = x sigma(b), plus (x+1) sigma(b / (x+1)) where x+1
    divides b, and b / (x+1) is prefix_xor(prefix_xor(c)), odd exactly
    then.  An even a has p = x and b = a >> 1, so sigma(a) = (x+1)
    sigma(b), plus x sigma(a >> 2) when 4 | a; one slice per degree d
    fills them, reading degrees d-1 and d-2 only.  Entries must fit in
    uint32, so max_deg <= 31.
    """
    import numpy as np

    t = _wheel_rounds(max_deg)
    sig = np.empty(2 << max_deg, dtype=np.uint32)
    sig[:2] = 0, 1  # the first pair reads sigma(1)
    # prefix_xor is linear and a block's lo has no bits below the block
    # size, so over the block it is the ramp's prefix_xor xor that of lo
    g_ramp = prefix_xor(np.arange(_BLOCK, dtype=np.uint32))
    h_ramp = prefix_xor(g_ramp)
    for d in range(1, max_deg + 1):
        for lo in range(1 << d >> 2, 1 << d >> 1, _BLOCK):
            n = min(_BLOCK, (1 << d >> 1) - lo)
            g = g_ramp[:n] ^ prefix_xor(lo)
            h = h_ramp[:n] ^ prefix_xor(prefix_xor(lo))
            s = sig[2 * g + 1] << 1
            # an even h reads sig[0] = 0 in place of sigma(b / (x+1))
            h *= h & 1
            v = sig[h]
            v ^= v << 1
            s ^= v
            # column 1 holds 4c+1 and column 3 holds 4c+3, and the one of
            # odd weight takes t[c]: 4c+3 where c has odd weight, that is
            # where g is odd, so swap s and t[c] there
            pair = sig[4 * lo:4 * (lo + n)].reshape(-1, 4)
            tc = t[lo:lo + n]
            swap = s ^ tc
            swap *= g & 1
            np.bitwise_xor(tc, swap, out=pair[:, 1])
            np.bitwise_xor(s, swap, out=pair[:, 3])
    del t  # the slices need the table alone
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


def _wheel_rounds(max_deg):
    """t[c] = sigma(expand(c)) over the wheel tables, as a uint32 array.

    With p = spf(a) and b = a // p, sigma(a) = (p+1) sigma(b), except
    where p also divides b: there sigma(a) = (p+1) sigma(b) +
    p sigma(b // p), and the round adds the second term in place.
    That is the three-term recurrence
    sigma(P^(e+1)) = (P+1) sigma(P^e) + P sigma(P^(e-1)) times the sigma
    of the cofactor coprime to p.  One round per degree d fills the a of
    degree d, at c in [2^(d-2), 2^(d-1)); b and b // p are prime to
    x^2+x and of lower degree, so a round reads only finished entries.
    Each round gathers through the sieve in blocks of _BLOCK entries,
    and every temporary is a fresh array of at most one block.
    """
    import numpy as np

    spf, quot = smallest_factor_tables(max_deg)
    # sigma(1) = 1; the rounds fill the rest
    t = np.ones(len(spf), dtype=np.uint32)
    for d in range(2, max_deg + 1):
        for i in range(1 << (d - 2), 1 << (d - 1), _BLOCK):
            j = min(i + _BLOCK, 1 << (d - 1))
            p = spf[i:j]
            # one index conversion for the three gathers through h
            h = quot[i:j].astype(np.intp)
            s = p ^ 1
            fb = t[h]
            # deg sigma(p) + deg sigma(b) = deg sigma(a), so the smaller
            # has at most half that degree
            t[i:j] = _clmul(np.minimum(s, fb), np.maximum(s, fb))
            # where p also divides b (never for b = 1, since spf[0] = 0),
            # add p sigma(b // p), reading sigma(b // p) at entry
            # quot[h]; p^2 | a caps deg p at half of deg a, which bounds
            # the passes
            ext = np.flatnonzero(spf[h] == p)
            t[i + ext] ^= _clmul(p[ext], t[quot[h[ext]]])
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
