"""Reference implementations for cross-checking.

Everything here except sigma_naive works on coefficient lists (index
i = coefficient of x^i) with schoolbook algorithms, deliberately sharing
no code with the bit-packed production path.  sigma_naive walks the
divisor lattice with the production factorize, mul and pow_, so it
checks sigma's assembly from the factorization, not the factorization.
"""

from gf2perfect.factor import factorize
from gf2perfect.gf2poly import mul, pow_


def to_coeffs(p):
    return [(p >> i) & 1 for i in range(p.bit_length())]


def from_coeffs(c):
    return sum(bit << i for i, bit in enumerate(c))


def list_add(a, b):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x + y) % 2 for x, y in zip(a, b)])


def list_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= y
    return _trim(out)


def list_divmod(a, d):
    assert any(d), 'division by zero'
    a = list(a)
    dd = len(_trim(list(d))) - 1
    q = [0] * max(len(a) - dd, 0)
    while len(_trim(a)) - 1 >= dd and any(a):
        shift = len(_trim(a)) - 1 - dd
        q[shift] = 1
        for j, y in enumerate(_trim(list(d))):
            a[shift + j] ^= y
    return _trim(q), _trim(a)


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def divides(d, a):
    return list_divmod(to_coeffs(a), to_coeffs(d))[1] == []


def sigma_bruteforce(a):
    """Sum of all divisors, found by trial division over every candidate."""
    total = 0
    for d in range(1, a + 1):
        if d.bit_length() > a.bit_length():
            break
        if divides(d, a):
            total ^= d
    return total


def irreducibles_bruteforce(max_deg):
    """Sieve by trial products: composites are products of smaller polys."""
    composite = set()
    for p in range(2, 1 << max_deg):
        for q in range(2, 1 << max_deg):
            r = from_coeffs(list_mul(to_coeffs(p), to_coeffs(q)))
            if r.bit_length() - 1 <= max_deg:
                composite.add(r)
    return [p for p in range(2, 1 << (max_deg + 1)) if p not in composite]


def sigma_naive(a):
    """Differential oracle: xor of every divisor, walked off the lattice."""
    divisors = [1]
    for p, e in factorize(a):
        powers = [pow_(p, i) for i in range(e + 1)]
        divisors = [mul(d, q) for d in divisors for q in powers]
    s = 0
    for d in divisors:
        s ^= d
    return s
