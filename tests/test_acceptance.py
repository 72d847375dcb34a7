"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All comparisons are exact bit equality; there are no numeric tolerances.
"""

import random

from gf2perfect.canaday import (
    verify_lemma1_iv, verify_lemma4, verify_lemma5, verify_lemma6,
    verify_theorem8,
)
from gf2perfect.factor import factorize, irreducibles_up_to, is_irreducible
from gf2perfect.gf2poly import degree, gcd, mul, pow_, reverse, translate
from gf2perfect.perfect import C1, C2, C3, C4, C5, odd_square_search
from gf2perfect.sigma import sigma, sigma_prime_power
from oracles import product_of_powers, sigma_naive


def _verdict(num, name, ok):
    print(f'\nacceptance criterion {num} ({name}): '
          f'{"PASS" if ok else "FAIL"}')
    assert ok, f'criterion {num} ({name}) failed'


def test_criterion_1_catalog_certifies(catalog_certs):
    ok = len(catalog_certs) == 16
    for cert in catalog_certs:
        ok = ok and cert.is_perfect
        ok = ok and sigma(cert.poly) == cert.poly  # exact bit equality
    degrees = sorted(degree(c.poly) for c in catalog_certs)
    ok = ok and degrees == [2, 5, 5, 6, 11, 11, 11, 11, 14, 15, 15, 16,
                            20, 20, 30, 62]
    _verdict(1, 'catalog certification', ok)


def test_criterion_2_shape_search_reproduction(shape40, shape24_pruned,
                                               shape24_unpruned):
    ok = shape40.found_polys() == sorted([C1, C2, C3, C4, C5])
    ok = ok and all(c.omega == 4 and c.parity.value == 'even'
                    for c in shape40.perfects_found)
    ok = ok and shape24_pruned.found_polys() == shape24_unpruned.found_polys()
    _verdict(2, 'four-prime classification via shape search', ok)


def test_criterion_3_exhaustive_by_degree(exhaustive20, catalog_certs):
    expected = sorted(c.poly for c in catalog_certs if degree(c.poly) <= 20)
    found = exhaustive20.found_polys()
    ok = found == expected and len(found) == 14
    found_set = set(found)
    # independent cross-check below degree 12: walk the divisor lattice
    for a in range(2, 1 << 12):
        ok = ok and (sigma_naive(a) == a) == (a in found_set)
    _verdict(3, 'exhaustive search to degree 20', ok)


def test_criterion_4_odd_square_nonexistence():
    report = odd_square_search(28)
    ok = report.perfects_found == [] and report.candidates_examined > 0
    _verdict(4, 'no odd perfect squares through degree 28', ok)


def test_criterion_5_lemma_suite():
    ok = verify_lemma1_iv(16) == [0b111, 0b11111]
    ok = ok and [(h, k) for h, k, _, _ in verify_lemma4(20, 10)] == [(4, 1)]
    ok = ok and verify_theorem8(30) == [1, 2, 3]
    ok = ok and verify_lemma5(6, 4) == []
    ok = ok and verify_lemma6(6, 4) == []
    _verdict(5, 'lemma suite at default bounds', ok)


def test_criterion_6_property_suites(exhaustive20, shape40):
    rng = random.Random(2026)
    ok = True

    # sigma multiplicativity on coprime pairs
    done = 0
    while done < 1000:
        a = rng.randrange(2, 1 << 13)
        b = rng.randrange(2, 1 << 13)
        if gcd(a, b) != 1:
            continue
        ok = ok and sigma(mul(a, b)) == mul(sigma(a), sigma(b))
        done += 1

    # Mersenne-exponent identity
    primes = irreducibles_up_to(8)
    for _ in range(1000):
        p = rng.choice(primes)
        e = (1 << rng.randrange(1, 6)) - 1
        ok = ok and sigma_prime_power(p, e) == pow_(p ^ 1, e)

    # splitting identity for n + 1 = 2^s * u
    for _ in range(1000):
        p = rng.choice(primes)
        s = rng.randrange(1, 5)
        u = rng.choice((1, 3, 5, 7))
        tail = 1
        for _ in range(u - 1):
            tail = mul(p, tail) ^ 1
        lhs = sigma_prime_power(p, (1 << s) * u - 1)
        ok = ok and lhs == mul(pow_(p ^ 1, (1 << s) - 1), pow_(tail, 1 << s))

    # reversal is an involution away from x = 0
    for _ in range(1000):
        p = rng.randrange(1 << 40) | 1
        ok = ok and reverse(reverse(p)) == p

    # translation is an involution; found perfects are closed under it
    for _ in range(1000):
        p = rng.randrange(1 << 40)
        ok = ok and translate(translate(p)) == p
    for report in (exhaustive20, shape40):
        found = set(report.found_polys())
        ok = ok and all(translate(a) in found for a in found)

    # factorization round trip with certified prime factors
    for _ in range(1000):
        p = rng.randrange(2, 1 << 65)
        fac = factorize(p)
        ok = ok and product_of_powers(fac) == p
        ok = ok and all(is_irreducible(q) for q, _ in fac)

    # irreducible counts against the divisor-sum (necklace) formula
    by_degree = {}
    for p in irreducibles_up_to(16):
        by_degree[degree(p)] = by_degree.get(degree(p), 0) + 1
    for d in range(1, 17):
        total = sum(_mobius(e) * 2 ** (d // e)
                    for e in range(1, d + 1) if d % e == 0)
        ok = ok and by_degree[d] == total // d

    _verdict(6, 'randomized property suites', ok)


def _mobius(n):
    count = 0
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
