import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gf2perfect.factor import (
    _berlekamp, _berlekamp_kernel, _irreducibles_up_to, expand, factorize,
    irreducible_counts, irreducibles_up_to, is_irreducible, prefix_xor,
    smallest_factor_tables,
)
from gf2perfect.gf2poly import (
    X, X1, degree, derivative, divexact, gcd, mul, parse, pow_, rem, square,
)
from oracles import (
    factor_trial, factorize_ddf_edf, irreducibles_bruteforce,
    irreducibles_rabin, is_irreducible_rabin, product_of_powers,
    smallest_factor_tables_marking,
)


def test_is_irreducible_examples():
    assert is_irreducible(0b111)
    assert is_irreducible(0b11111)           # the degree-4 complete polynomial
    assert not is_irreducible(0b11110)       # x(x+1)^3, divisible by x
    assert is_irreducible(2) and is_irreducible(3)
    assert not is_irreducible(0b101)         # (x+1)^2
    with pytest.raises(ValueError):
        is_irreducible(1)


def test_factorize_paper_instances():
    fac = factorize(parse('x^9+1'))
    assert fac == ((0b11, 1), (0b111, 1), (0b1001001, 1))
    fac = factorize(parse('1+x^3+x^4+x^6+x^8'))
    assert fac == ((0b111, 1), (parse('1+x+x^4+x^5+x^6'), 1))
    fac = factorize(0b1100000)               # x^6+x^5
    assert fac == ((0b10, 5), (0b11, 1))


def test_factorize_edge_cases():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    # only ints > 0 are polynomials
    for p in (0, -1, -3):
        with pytest.raises(ValueError):
            factorize(p)


def test_factorize_round_trip_and_primality():
    rng = random.Random(11)
    for _ in range(1000):
        p = rng.randrange(2, 1 << 65)
        fac = factorize(p)
        assert product_of_powers(fac) == p
        assert all(is_irreducible(q) for q, _ in fac)
        assert all(e >= 1 for _, e in fac)
        assert [q for q, _ in fac] == sorted(q for q, _ in fac)


def test_trial_and_general_paths_agree():
    # factor_trial is exact to degree 20; every input of degree <= 12,
    # where it is faster than Berlekamp, is checked
    rng = random.Random(12)
    polys = [rng.randrange(2, 1 << 21) for _ in range(400)]
    for p in list(range(2, 1 << 13)) + polys:
        assert factorize(p) == tuple(sorted(factor_trial(p).items()))


def _random_polys(seed, count, lo, hi):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randrange(lo, hi + 1)
        out.append((1 << d) | rng.getrandbits(d))
    return out


def _structured_polys():
    out = [(1 << n) | 1 for n in range(1, 301)]             # x^n + 1
    out += [(1 << (2 * h + 1)) - 1 for h in range(1, 200)]  # 1 + ... + x^2h
    irr = _irreducibles_up_to(8)
    for d in range(2, 9):
        # all irreducibles of degree d at once: up to 30 equal-degree primes
        p = 1
        for q in irr:
            if degree(q) == d:
                p = mul(p, q)
        out.append(p)
    for p in _random_polys(14, 40, 8, 40):
        out.append(mul(p, pow_(X, 7)))
        out.append(mul(p, pow_(X1, 12)))
        out.append(mul(pow_(p, 3), mul(pow_(X, 2), pow_(X1, 5))))
    return out


# irreducible trinomial and pentanomial of degree >= 64: a single prime
# makes the kernel the constants alone (k = 1)
BIG_PRIMES = [parse('x^64+x^4+x^3+x+1'), parse('x^127+x+1')]


def test_general_path_matches_ddf_edf_oracle_on_random_inputs():
    for p in _random_polys(15, 600, 21, 200):
        assert factorize(p) == factorize_ddf_edf(p)


def test_general_path_matches_ddf_edf_oracle_on_structured_inputs():
    for p in _structured_polys() + BIG_PRIMES:
        assert factorize(p) == factorize_ddf_edf(p)


def test_is_irreducible_matches_rabin_oracle():
    polys = list(range(2, 1 << 15))                        # degrees 1..14
    polys += BIG_PRIMES + [(1 << n) | 1 for n in range(1, 301)]
    for p in polys:
        assert is_irreducible(p) == is_irreducible_rabin(p)


def test_big_primes_have_one_dimensional_kernel():
    for p in BIG_PRIMES:
        assert is_irreducible(p)
        assert _berlekamp_kernel(p) == [1]
        assert _berlekamp(p) == [p]
        assert factorize(p) == ((p, 1),)


def test_kernel_dimension_is_omega_on_squarefree_inputs():
    polys = _random_polys(16, 300, 2, 160) + _structured_polys()
    squarefree = [p for p in polys if gcd(p, derivative(p)) == 1]
    assert len(squarefree) > 200
    for w in squarefree:
        kernel = _berlekamp_kernel(w)
        primes = [q for q, _ in factorize_ddf_edf(w)]
        assert kernel[0] == 1
        assert len(kernel) == len(primes)
        assert sorted(_berlekamp(w)) == primes
        for v in kernel:
            # v^2 = v mod w, with v reduced
            assert degree(v) < degree(w)
            assert rem(square(v) ^ v, w) == 0


def test_irreducibles_small_degrees():
    assert irreducibles_up_to(1) == [0b10, 0b11]
    assert irreducibles_up_to(2) == [0b10, 0b11, 0b111]
    deg4 = [p for p in irreducibles_up_to(4) if degree(p) == 4]
    assert deg4 == [0b10011, 0b11001, 0b11111]


def test_irreducibles_match_bruteforce_sieve():
    assert irreducibles_up_to(6) == irreducibles_bruteforce(6)


@pytest.mark.parametrize('d', [11, 12, 13, 14])
def test_irreducibles_from_sieve_match_rabin(d):
    # at 11 and 12 this checks the listing by is_irreducible against
    # Rabin's test, and at 13 and 14 the sieve's primes
    polys = irreducibles_up_to(d)
    assert polys == list(irreducibles_rabin(d))
    assert all(type(p) is int for p in polys)


def test_irreducibles_from_sieve_count_per_degree():
    # every sieve list is ascending, holds N(e) primes of each degree e,
    # and begins with the Rabin-checked list of degree 14
    low = irreducibles_up_to(14)
    for d in range(13, 21):
        polys = irreducibles_up_to(d)
        assert all(p < q for p, q in zip(polys, polys[1:]))
        by_degree = {}
        for p in polys:
            by_degree[degree(p)] = by_degree.get(degree(p), 0) + 1
        assert by_degree == irreducible_counts(d)
        assert polys[:len(low)] == low[:len(polys)]


NUMPY_PROBE = '''
import sys
sys.path.insert(0, sys.argv[1])
from gf2perfect.factor import irreducibles_up_to
from gf2perfect.perfect import odd_square_search, shape_search
irreducibles_up_to(12)
shape_search(40, 8)
shape_search(60, 20)  # the tally counts primes without listing them
odd_square_search(100)  # its seeds have degree <= 12
print('numpy' in sys.modules)
'''


def test_small_irreducibles_and_shape_search_skip_numpy():
    # a fresh interpreter, since other tests import numpy
    src = Path(__file__).resolve().parents[1] / 'src'
    out = subprocess.run(
        [sys.executable, '-c', NUMPY_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == 'False'


def _mobius(n):
    m, count = 1, 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        d += 1
    if n > 1:
        count += 1
    return (-1) ** count


def test_irreducible_counts_match_necklace_formula():
    polys = irreducibles_up_to(16)
    by_degree = {}
    for p in polys:
        by_degree[degree(p)] = by_degree.get(degree(p), 0) + 1
    for d in range(1, 17):
        expected = sum(_mobius(e) * 2 ** (d // e)
                       for e in range(1, d + 1) if d % e == 0) // d
        assert by_degree[d] == expected


def test_squarefree_part_is_squarefree():
    # the product of the distinct primes of p is squarefree and factors
    # into the same primes, each once
    rng = random.Random(13)
    for _ in range(300):
        p = rng.randrange(2, 1 << 24)
        primes = [q for q, _ in factorize(p)]
        s = product_of_powers((q, 1) for q in primes)
        # squarefree in characteristic 2 means coprime to the derivative
        assert s == 1 or gcd(s, derivative(s)) == 1
        assert factorize(s) == tuple((q, 1) for q in primes)


def test_factorize_matches_sympy():
    sympy = pytest.importorskip('sympy')
    x = sympy.symbols('x')
    rng = random.Random(22)
    polys = [rng.randrange(2, 1 << 41) for _ in range(100)]
    polys += _random_polys(23, 5, 64, 160)
    for p in polys:
        coeffs = [(p >> i) & 1 for i in range(p.bit_length() - 1, -1, -1)]
        _, sfac = sympy.Poly(coeffs, x, domain=sympy.GF(2)).factor_list()
        theirs = []
        for f, e in sfac:
            v = 0
            for bit in f.all_coeffs():
                v = (v << 1) | int(bit) % 2
            theirs.append((v, e))
        assert factorize(p) == tuple(sorted(theirs))


def test_expand_is_the_wheel_index():
    # expand maps c < 2^13 onto the odd, odd-weight a below 2^15, in
    # ascending order, with a >> 2 == c; checked by Python's bit_count
    c = np.arange(1 << 13, dtype=np.uint32)
    a = expand(c)
    assert a.dtype == 'uint32'
    assert ((a >> 2) == c).all()
    assert a.tolist() == [v for v in range(1, 1 << 15, 2)
                          if v.bit_count() & 1]


def test_prefix_xor_divides_by_x_plus_1():
    # bit 0 is the weight parity, and for an even weight the rest is
    # a / (x+1): checked against long division for every odd a of
    # degree <= 14, as ints and as a uint32 array
    odd = list(range(1, 1 << 15, 2))
    as_array = prefix_xor(np.array(odd, dtype=np.uint32)).tolist()
    for a, v in zip(odd, as_array):
        assert prefix_xor(a) == v
        assert v & 1 == a.bit_count() & 1
        if v & 1 == 0:
            assert v >> 1 == divexact(a, X1)


def test_smallest_factor_tables_consistency():
    irr = set(_irreducibles_up_to(12))
    for d in range(1, 13):
        spf, quot = smallest_factor_tables(d)
        a = expand(np.arange(len(spf), dtype=np.uint32)).tolist()
        cof = expand(quot).tolist()
        spf, quot = spf.tolist(), quot.tolist()
        assert spf[0] == quot[0] == 0  # a = 1
        for c in range(1, len(spf)):
            p = spf[c]
            assert p in irr
            assert mul(p, cof[c]) == a[c]
            # sigma_table tests p | b as spf[b] == p, which needs the
            # least prime; a prime is its own, with cofactor index 0
            assert p == factorize(a[c])[0][0]
            assert (quot[c] == 0) == (p == a[c])


def test_sieve_matches_marking_oracle():
    # the production sieve keeps the a prime to x^2+x only: entry c is
    # a = expand(c), and quot holds the compact index of the cofactor
    for d in range(1, 17):
        spf, quot = smallest_factor_tables(d)
        want_spf, want_quot = smallest_factor_tables_marking(d)
        for got in spf, quot:
            assert got.dtype == 'uint32'
            assert len(got) == 1 << (d - 1)
        a = expand(np.arange(1 << (d - 1), dtype=np.uint32))
        assert (spf == want_spf[a]).all()
        assert (quot == want_quot[a] >> 2).all()
