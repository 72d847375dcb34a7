import random
import tracemalloc

import pytest

import gf2perfect.sigma as sigma_module
from gf2perfect.factor import irreducibles_up_to
from gf2perfect.gf2poly import X, X1, degree, gcd, mul, parse, pow_
from gf2perfect.sigma import (
    Parity, fixed_points, parity, sigma, sigma_prime_power, sigma_table,
)
from oracles import sigma_bruteforce, sigma_naive, sigma_table_list

C1 = parse('x^2(x+1)(x^2+x+1)^2(x^4+x+1)')


def horner_sigma(p, n):
    # independent oracle: 1 + p(1 + p(...)), n nested steps
    r = 1
    for _ in range(n):
        r = mul(p, r) ^ 1
    return r


def test_sigma_prime_power_examples():
    assert sigma_prime_power(0b10, 8) == 0b111111111
    assert sigma_prime_power(0b111, 2) == 0b10011          # 1 + P + P^2
    assert sigma_prime_power(0b111, 3) == pow_(0b110, 3)   # (P+1)^3
    assert sigma_prime_power(0b111, 0) == 1
    assert sigma_prime_power(1, 2) == 1  # 1 + 1 + 1
    assert sigma_prime_power(1, 3) == 0
    for p in (0, -3):
        with pytest.raises(ValueError):
            sigma_prime_power(p, 2)
    for p, n in ((0b111, -1), (1, -1), (1, -2)):
        with pytest.raises(ValueError, match='negative exponent'):
            sigma_prime_power(p, n)


def test_sigma_prime_power_matches_horner():
    rng = random.Random(14)
    for _ in range(500):
        p = rng.randrange(1, 1 << 6)
        n = rng.randrange(0, 12)
        assert sigma_prime_power(p, n) == horner_sigma(p, n)
    for p in (X, X1):
        for n in range(301):
            assert sigma_prime_power(p, n) == horner_sigma(p, n)


def test_sigma_examples():
    assert sigma(0b110) == 0b110
    assert sigma(C1) == C1
    assert sigma(0b1000) == pow_(0b11, 3)  # sigma(x^3)
    for a in (0, -1, -3):
        with pytest.raises(ValueError):
            sigma(a)


def test_parity_examples():
    assert parity(0b110) is Parity.EVEN
    assert parity(0b111) is Parity.ODD
    c4 = parse('x^6(x+1)^3(x^3+x^2+1)(x^3+x+1)')
    assert parity(c4) is Parity.EVEN


def test_parity_matches_gcd_definition():
    x2x = mul(X, X1)
    for a in range(1, 1 << 12):
        want = Parity.EVEN if gcd(a, x2x) != 1 else Parity.ODD
        assert parity(a) is want
    with pytest.raises(ValueError):
        parity(0)


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(15)
    done = 0
    while done < 1000:
        a = rng.randrange(2, 1 << 13)
        b = rng.randrange(2, 1 << 13)
        if gcd(a, b) != 1:
            continue
        assert sigma(mul(a, b)) == mul(sigma(a), sigma(b))
        done += 1


def test_mersenne_exponent_identity():
    rng = random.Random(16)
    primes = irreducibles_up_to(8)
    for _ in range(1000):
        p = rng.choice(primes)
        n = rng.randrange(1, 6)
        e = (1 << n) - 1
        assert sigma_prime_power(p, e) == pow_(p ^ 1, e)


def test_splitting_identity_exhaustive_grid():
    for p in irreducibles_up_to(4):
        for s in range(1, 4):
            for u in (1, 3, 5):
                n = (1 << s) * u - 1
                expected = mul(pow_(p ^ 1, (1 << s) - 1),
                               pow_(horner_sigma(p, u - 1), 1 << s))
                assert sigma_prime_power(p, n) == expected


def test_three_term_recurrence_exhaustive_grid():
    # the recurrence sigma_table builds each prime-power step from
    for p in irreducibles_up_to(6):
        for e in range(1, 13):
            assert sigma_prime_power(p, e + 1) == \
                mul(p ^ 1, sigma_prime_power(p, e)) ^ \
                mul(p, sigma_prime_power(p, e - 1))


def test_splitting_identity_randomized():
    rng = random.Random(17)
    primes = irreducibles_up_to(8)
    for _ in range(1000):
        p = rng.choice(primes)
        s = rng.randrange(1, 5)
        u = rng.choice((1, 3, 5, 7))
        n = (1 << s) * u - 1
        expected = mul(pow_(p ^ 1, (1 << s) - 1),
                       pow_(horner_sigma(p, u - 1), 1 << s))
        assert sigma_prime_power(p, n) == expected


def test_sigma_equals_divisor_lattice_walk_up_to_degree_12():
    for a in range(1, 1 << 13):
        assert sigma(a) == sigma_naive(a)


def test_sigma_preserves_degree():
    rng = random.Random(18)
    for _ in range(300):
        a = rng.randrange(2, 1 << 40)
        assert degree(sigma(a)) == degree(a)


def test_sigma_table_matches_sigma():
    table = sigma_table(10)
    for a in range(1, 1 << 11):
        assert table[a] == sigma(a)


def test_sigma_table_matches_list_oracle():
    for d in range(1, 17):
        table = sigma_table(d)
        assert len(table) == 1 << (d + 1)
        assert table.dtype == 'uint32'
        assert table[1:].tolist() == sigma_table_list(d)[1:]


def test_sigma_table_multi_block_rounds(monkeypatch):
    # with the default block a round's odd half spans several blocks
    # only from degree 17 up
    monkeypatch.setattr(sigma_module, '_BLOCK', 8)
    for d in range(1, 13):
        assert sigma_table(d)[1:].tolist() == sigma_table_list(d)[1:]


def test_sigma_table_memory_is_tables_plus_fixed_buffers():
    # the odd rounds hold the sieve's two odd-only tables (together as
    # large as the result) and the odd half (half of it), and the sieve
    # is freed before the result is allocated; round-sized temporaries,
    # or a sieve alive beside the result, would push the peak past 2.25x
    sigma_table(16)  # a first call makes one-off allocations; keep them out
    tracemalloc.start()
    try:
        table = sigma_table(18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * table.nbytes


def test_fixed_point_scans_across_blocks(monkeypatch):
    # with 8-entry blocks the scan crosses many block boundaries
    monkeypatch.setattr(sigma_module, '_BLOCK', 8)
    assert fixed_points(12) == [a for a in range(2, 1 << 13)
                                if sigma(a) == a]


def test_fixed_point_scan_allocates_no_table_sized_buffer(monkeypatch):
    # the scan reads the table block by block; a table-sized bool mask
    # alone would take a quarter of the uint32 table, an index all of it
    table = sigma_table(20)
    monkeypatch.setattr(sigma_module, 'sigma_table', lambda d: table)
    tracemalloc.start()
    try:
        fixed_points(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * table.nbytes


def test_sigma_naive_agrees_with_trial_division_walk():
    for a in range(1, 1 << 9):
        assert sigma_naive(a) == sigma_bruteforce(a)
