"""Irreducibility testing, factorization and enumeration of GF(2) irreducibles.

Every factorization peels squarefree layers, then runs Berlekamp's
algorithm (Factoring polynomials over finite fields, Bell System Tech.
J. 46, 1967) on each layer: one GF(2) elimination finds the kernel of
Q - I, whose dimension is the number of prime factors, and gcds with
its basis split the layer.  The irreducibility test is the same kernel:
a squarefree polynomial is prime iff its kernel is one-dimensional.
The tests check both against trial division, Rabin's criterion and the
distinct-degree and equal-degree splitting kept in the test oracles.
"""

from functools import lru_cache

from .gf2poly import X, X1, degree, derivative, divexact, gcd, sqrt, to_hex

# irreducibles_up_to lists the primes of degree <= _NUMPY_FREE_DEG by
# testing each candidate, so small bounds never import numpy; on a
# 2-CPU Xeon VM that takes 7 ms at degree 11 and 15 ms at 12 (33 ms at
# 13), where importing numpy takes 155-170 ms.  12 is also the largest
# list the sieve builds by test, for smallest_factor_tables(24).
_NUMPY_FREE_DEG = 12


def is_irreducible(p):
    """Berlekamp's test: p is prime iff it is squarefree and the kernel
    of Q - I, whose dimension is the number of its prime factors, is
    the constants alone.

    x and x+1 pass it like any other prime, and a multiple of x of
    degree >= 2 fails it, being either not squarefree or a product of
    at least two primes.  A negative p raises ValueError from gcd.
    """
    if degree(p) < 1:
        raise ValueError('irreducibility is undefined for constants')
    # gcd(p, p') == 1 iff p is squarefree
    return gcd(p, derivative(p)) == 1 and len(_berlekamp_kernel(p)) == 1


@lru_cache(maxsize=None)
def _irreducibles_up_to(d):
    # x, x+1, then the odd candidates that pass the full test, skipping
    # multiples of x+1 (even weight) before it
    return (X, X1) + tuple(c for c in range(5, 2 << d, 2)
                           if c.bit_count() & 1 and is_irreducible(c))


# Above _NUMPY_FREE_DEG the primes come from the wheel sieve (16-24 ms
# at degree 20 on a 2-CPU Xeon VM once numpy is imported, where testing
# each candidate takes 6.5 s), so the cap bounds its 2^(d-1)-entry
# tables and the output: 111,013 primes at 20.
MAX_IRREDUCIBLES_DEG = 20


def irreducibles_up_to(d):
    """All irreducibles of degree <= d, ascending by (degree, bitmask).

    Up to degree _NUMPY_FREE_DEG this is the cached list of the
    candidates that pass is_irreducible, with no numpy import; above it,
    x, x+1 and the primes of the wheel sieve, the entries c >= 1 with
    quot == 0.
    """
    if d < 1:
        raise ValueError('degree bound must be >= 1')
    if d > MAX_IRREDUCIBLES_DEG:
        raise ValueError(f'degree bound must be <= {MAX_IRREDUCIBLES_DEG}')
    if d <= _NUMPY_FREE_DEG:
        return list(_irreducibles_up_to(d))
    _, quot = smallest_factor_tables(d)
    # expand is ascending, so the primes come out in order
    return [X, X1] + expand((quot[1:] == 0).nonzero()[0] + 1).tolist()


def irreducible_counts(max_deg):
    """{d: N(d)} for d = 1..max_deg, where N(d) counts the irreducibles
    of degree d, from sum_{e | d} e N(e) = 2^d; lists none of them."""
    counts = {}
    for d in range(1, max_deg + 1):
        counts[d] = ((1 << d) - sum(e * n for e, n in counts.items()
                                    if d % e == 0)) // d
    return counts


def factorize(p):
    """Complete factorization of a nonzero polynomial p (an int > 0): the
    sorted tuple of its (prime, exponent) pairs, () for p = 1."""
    if p <= 0:
        raise ValueError(f'expected a nonzero polynomial, an int > 0: {p}')
    counts = {}
    _factor_general(p, 1, counts)
    return tuple(sorted(counts.items()))


def factors_json(fac):
    """JSON form of (prime, exponent) pairs, with hex primes."""
    return [{'prime_hex': to_hex(q), 'exp': e} for q, e in fac]


def _factor_general(p, mult, counts):
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
        # p' != 0, so some prime has odd multiplicity and p / g != 1
        for q in _berlekamp(divexact(p, g)):
            counts[q] = counts.get(q, 0) + mult
        p = g


def _berlekamp_kernel(w):
    """Basis of {v : v^2 = v mod w, deg v < deg w}, led by v = 1.

    Row i of Q - I is x^(2i) mod w + x^i.  Shifted up by n bits, with
    x^i as its low n bits to record the combination, each row is
    reduced against the pivots found so far (indexed by leading bit).
    A row whose high half clears leaves in its low half a combination
    of the x^i that Q - I maps to 0.  For squarefree w, v mod P lies in
    GF(2) for each prime P | w, so by CRT the kernel has dimension
    omega(w).
    """
    n = degree(w)
    top = 1 << n
    top2, w2 = top << 1, w << 1
    pivots = [0] * (2 * n + 1)
    kernel = []
    q = 1  # x^(2i) mod w
    xi = 1  # x^i
    while xi < top:
        r = ((q ^ xi) << n) | xi
        while r >= top:
            lead = r.bit_length()
            piv = pivots[lead]
            if not piv:
                pivots[lead] = r
                break
            r ^= piv
        else:
            kernel.append(r)
        q <<= 2
        if q >= top2:
            q ^= w2
        if q >= top:
            q ^= w
        xi <<= 1
    return kernel


def _berlekamp(w):
    """Split a squarefree w of degree >= 1 into its irreducible factors.

    Each kernel vector v other than 1 is 0 or 1 mod every prime of w,
    so gcd(f, v) and f / gcd(f, v) split each piece f along those
    values; the kernel separates every pair of primes, so the pieces
    reach its dimension k, and k = 1 proves w irreducible.
    """
    kernel = _berlekamp_kernel(w)
    pieces = [w]
    for v in kernel[1:]:
        if len(pieces) == len(kernel):
            break
        split = []
        for f in pieces:
            g = gcd(f, v)
            # as ints, 1 < g < f means 0 < deg g < deg f
            split += (g, divexact(f, g)) if 1 < g < f else (f,)
        pieces = split
    return pieces


def prefix_xor(v):
    """Bit i of the result is the xor of the bits >= i of v, for an int
    or an unsigned array below 2^32.

    Bit 0 is the parity of v's weight, so x+1 divides v iff it is 0,
    and then the result is v / (x+1) shifted up by one: if v = (x+1) q,
    bit i of v is q_i + q_(i-1), so bit i+1 of the result is q_i.
    """
    for s in (1, 2, 4, 8, 16):
        v = v ^ (v >> s)
    return v


def expand(c):
    """The odd, odd-weight polynomials at compact indices c (an integer
    array below 2^30) of the wheel tables: c << 2, with bit 1 set to
    the weight parity of c, and bit 0 set.

    Its inverse is a >> 2.  The map is ascending, and it is onto the
    polynomials prime to x^2+x, since x divides an even a and x+1 an a
    of even weight.
    """
    import numpy as np

    return c << 2 | (np.bitwise_count(c) & 1) << 1 | 1


def smallest_factor_tables(max_deg):
    """Wheel tables (spf, quot) over the polynomials of degree <= max_deg
    that are prime to x^2+x.

    Those are the odd a of odd weight, a quarter of all, and entry c
    describes a = expand(c), so c = a >> 2: spf[c] is the least prime
    factor of a (as an int) and quot[c] is the compact index of the
    cofactor a // spf[c], so 0 for a prime; entry 0 (a = 1) is left as
    zero.  Both tables are uint32 of length 2^(max_deg-1), for
    max_deg >= 1.  This is a wheel on x^2+x, the analogue of 2 in the
    integers: the other three quarters are the multiples of x or x+1,
    whose least prime is x or x+1 and whose cofactor is a >> 1 or
    prefix_xor(a) >> 1, so sigma_table fills them from these entries
    with no sieve.  Keeping them cost the sieve the marking of every
    multiple of x+1, its largest pass, and doubled its tables.  The
    product of two a prime to x^2+x is again one, so the sieve never
    leaves the wheel.

    A linear sieve marks each composite once, by its least prime: for
    each prime p from x^2+x+1 up to degree max_deg/2, in ascending
    order, the cofactors m still unmarked have no prime factor below p,
    so every p*m (stored at (p*m) >> 2) gets spf = p.  For x^2+x+1, the
    first, nothing is marked yet, so that is every m.  Anything unmarked
    afterwards has no factor of degree <= max_deg/2 and is therefore
    itself a prime, with spf its own polynomial.
    """
    import numpy as np

    size = 1 << (max_deg - 1)
    spf = np.zeros(size, dtype=np.uint32)
    quot = np.zeros(size, dtype=np.uint32)
    for p in _irreducibles_up_to(max_deg // 2)[2:]:
        # m with deg(p*m) <= max_deg sit at entries below n
        n = size >> degree(p)
        m = np.flatnonzero(spf[:n] == 0).astype(np.uint32)
        a = expand(m)
        prod = np.zeros_like(a)
        for i in range(p.bit_length()):
            if p >> i & 1:
                prod ^= a << i
        # one index conversion for both writes
        prod = (prod >> 2).astype(np.intp)
        spf[prod] = p
        quot[prod] = m
    primes = np.flatnonzero(spf[1:] == 0).astype(np.uint32) + 1
    spf[primes] = expand(primes)
    return spf, quot
