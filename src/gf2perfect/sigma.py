"""The sum-of-divisors function for GF(2) polynomials, and its classifiers.

sigma(A) is the xor-sum of all divisors of A.  It is multiplicative, so
the production path assembles it from the factorization: sigma(P^n) per
prime power, multiplied out.

Characteristic-2 prime-power identities used throughout:

- Mersenne exponents:  1 + P + ... + P^(2^s - 1) = (P+1)^(2^s - 1)
- splitting, n+1 = 2^s * u with u odd:
      sigma(P^n) = (P+1)^(2^s - 1) * sigma(P^(u-1))^(2^s)
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
    """sigma(a) for every nonzero a of degree <= max_deg, as a list.

    Entry a holds sigma(a); entry 0 is unused.  Built multiplicatively
    in one pass over ascending a: the quotient b = a // spf(a) is always
    a smaller int, so sigma(spf-power) and the coprime cofactor are
    already available.
    """
    spf, quot = smallest_factor_tables(max_deg)
    spf = spf.tolist()
    quot = quot.tolist()
    size = len(spf)
    sig = [0] * size
    spp = [0] * size  # sigma of the leading prime power of a
    cof = [0] * size  # a with its leading prime power divided out
    sig[1] = 1
    for a in range(2, size):
        p = spf[a]
        b = quot[a]
        if b == 1:
            spp[a] = p ^ 1
            cof[a] = 1
            sig[a] = p ^ 1
        elif spf[b] == p:
            # a = p * b extends the leading prime power of b
            t = mul(p, spp[b]) ^ 1
            c = cof[b]
            spp[a] = t
            cof[a] = c
            sig[a] = mul(t, sig[c])
        else:
            spp[a] = p ^ 1
            cof[a] = b
            sig[a] = mul(p ^ 1, sig[b])
    return sig
