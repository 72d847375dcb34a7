"""Sum-of-divisors arithmetic and perfect-polynomial searches over GF(2)[x]."""

from .factor import factorize, irreducibles_up_to, is_irreducible
from .gf2poly import (
    PolyParseError, degree, divrem, gcd, is_self_inverse, mul, parse, pow_,
    reverse, to_hex, to_text, translate,
)
from .perfect import (
    PerfectCertificate, SearchReport, catalog, exhaustive_search,
    is_perfect, odd_square_search, shape_search, trivial_perfect,
)
# NB: the sigma function itself lives at gf2perfect.sigma.sigma; exporting
# it here would shadow the submodule of the same name.
from .sigma import Parity, parity, sigma_prime_power

__version__ = '0.1.0'
