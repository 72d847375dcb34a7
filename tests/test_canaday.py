import pytest

from gf2perfect import canaday
from gf2perfect.canaday import (
    MAX_EVEN_POWERS_WORK, MAX_LEMMA4_BOUND, _even_powers_work,
    _sigma_even_powers, special_form, verify_lemma1_iv, verify_lemma4,
    verify_lemma5, verify_lemma6, verify_minimal_prime_parity,
    verify_theorem8,
)
from gf2perfect.factor import factorize, irreducibles_up_to
from gf2perfect.gf2poly import X1, degree, parse, pow_, reverse
from gf2perfect.perfect import C1, S1, trivial_perfect
from gf2perfect.sigma import sigma_prime_power
from oracles import (
    even_power_violations_factoring, factorize_ddf_edf, irreducibles_rabin,
)


def test_special_form_examples():
    assert special_form(0b111) == (1, 1)
    assert special_form(0b11001) == (3, 1)     # x^4+x^3 = x^3(x+1)
    assert special_form(0b10011) is None       # x^4+x = x(x+1)(x^2+x+1)
    assert special_form(1) is None
    with pytest.raises(ValueError):
        special_form(0)


def test_special_form_round_trip():
    # every x^a (x+1)^b + 1 decomposes back into (a, b), and every other
    # polynomial of degree < 12 has no special form
    forms = {(pow_(X1, b) << a) ^ 1: (a, b)
             for a in range(12) for b in range(12) if a + b > 0}
    assert len(forms) == 143
    for p in set(range(1, 1 << 12)) | forms.keys():
        assert special_form(p) == forms.get(p)


def test_lemma1_iv_solution_sets():
    two = [0b111, 0b11111]
    assert verify_lemma1_iv(4) == two
    assert verify_lemma1_iv(2) == [0b111]
    assert verify_lemma1_iv(16) == two
    with pytest.raises(ValueError):
        verify_lemma1_iv(1)


def test_lemma4_solution_sets():
    sols = verify_lemma4(20, 10)
    assert sols == [(4, 1, 0b111, 0b1001001)]
    assert verify_lemma4(3, 3) == []
    assert verify_lemma4(4, 1) == sols


def test_lemma5_no_proper_perfect_powers():
    assert verify_lemma5(6, 4) == []
    assert verify_lemma5(3, 2) == []
    # sigma(x^2) = 1+x+x^2 is irreducible, hence not a proper power
    assert factorize(sigma_prime_power(0b10, 2)) == ((0b111, 1),)


def test_lemma6_degree_inequalities():
    assert verify_lemma6(6, 4) == []
    assert verify_lemma6(4, 3) == []


def test_even_powers_skip_exactly_the_squarefree_sigmas():
    # lemmas 5 and 6 read repeated factors only, so _sigma_even_powers
    # factors sigma(P^(2n)) only where some exponent is >= 2
    want = []
    for p in irreducibles_rabin(8):
        for n in range(1, 7):
            factors = factorize_ddf_edf(sigma_prime_power(p, 2 * n))
            if any(e >= 2 for _, e in factors):
                want.append((p, n, factors))
    got = list(_sigma_even_powers(8, 6))
    assert got == want and got
    # the bounds are checked on the call, before any iteration
    with pytest.raises(ValueError):
        _sigma_even_powers(8, 0)
    with pytest.raises(ValueError, match='bounds too large'):
        _sigma_even_powers(20, 1)


@pytest.mark.parametrize('bounds', [(8, 6), (2, 40)])
def test_lemmas_5_and_6_match_factoring_every_sigma(bounds):
    lemma5, lemma6 = even_power_violations_factoring(*bounds)
    assert verify_lemma5(*bounds) == lemma5
    assert verify_lemma6(*bounds) == lemma6


def test_lemmas_5_and_6_report_a_repeated_factor(monkeypatch):
    # no sigma(P^(2n)) in range violates either lemma, so a stand-in
    # sigma((x^2+x+1)^2) = (x^3+x+1)^2 drives the violation rows
    monkeypatch.setattr(canaday, '_sigma_even_powers',
                        lambda *bounds: [(0b111, 1, ((0b1011, 2),))])
    assert verify_lemma5(6, 4) == [
        {'p': 0b111, 'n': 1, 'root': 0b1011, 'power': 2}]
    assert verify_lemma6(6, 4) == [{'p': 0b111, 'n': 1, 'q': 0b1011, 'm': 2}]


def test_lemma_bounds_at_their_caps_are_accepted():
    # the cheap corners: k stops below h, and few primes have degree <= 2
    assert verify_lemma4(4, MAX_LEMMA4_BOUND) == [(4, 1, 0b111, 0b1001001)]
    # lemmas 5 and 6 cap the combined work, so a small prime degree
    # leaves room for a large n_bound
    assert _even_powers_work(6, 20) <= MAX_EVEN_POWERS_WORK
    assert verify_lemma5(6, 20) == []
    assert verify_lemma6(6, 20) == []


def test_even_powers_work_cap():
    # the model bounds the total degree of the sigma(P^(2n)) built:
    # deg P sums to at most 2^(p_deg_bound+1), and 2n to n(n+1)
    assert _even_powers_work(3, 1) == 16 * 2
    assert _even_powers_work(3, 2) == 3 * _even_powers_work(3, 1)
    for p_deg_bound, n_bound in ((1, 5), (3, 4), (8, 6)):
        total = sum(degree(sigma_prime_power(p, 2 * n))
                    for p in irreducibles_up_to(p_deg_bound)
                    for n in range(1, n_bound + 1))
        assert total <= _even_powers_work(p_deg_bound, n_bound)
    # the corners of the cap, and every corner of the earlier cap on the
    # sum of squared degrees (13/5, 14/4, 15/3, 18/1, 6/43, 2/195)
    for p_deg_bound, n_bound in ((18, 1), (13, 10), (9, 43), (5, 176),
                                 (1, 706), (13, 5), (14, 4), (15, 3),
                                 (6, 43), (2, 195)):
        assert _even_powers_work(p_deg_bound, n_bound) <= MAX_EVEN_POWERS_WORK
    for p_deg_bound, n_bound in ((19, 1), (13, 11), (9, 44), (5, 177),
                                 (1, 707), (20, 1)):
        assert _even_powers_work(p_deg_bound, n_bound) > MAX_EVEN_POWERS_WORK
        for verify in (verify_lemma5, verify_lemma6):
            with pytest.raises(ValueError, match='bounds too large'):
                verify(p_deg_bound, n_bound)
    with pytest.raises(ValueError, match='p_deg_bound must be <= 20'):
        verify_lemma5(21, 1)


def test_theorem8_solution_set():
    assert verify_theorem8(30) == [1, 2, 3]
    # h = 2 qualifies: sigma(x^4) is irreducible with x^4+...+x = x(x+1)^3
    assert special_form(0b11111) == (1, 3)
    # h = 4 fails through its factor 1+x^3+x^6: x^6+x^3 = x^3(x+1)(x^2+x+1)
    assert [q for q, _ in factorize(0b111111111)] == [0b111, 0b1001001]
    assert special_form(0b1001001) is None


def test_minimal_prime_parity():
    assert verify_minimal_prime_parity(C1)
    assert verify_minimal_prime_parity(trivial_perfect(2))
    assert verify_minimal_prime_parity(S1)
    # odd count of minimal primes: x alone
    assert not verify_minimal_prime_parity(0b100)


def test_complete_polynomials_invert_into_themselves():
    for h in range(41):
        ones = (1 << (h + 1)) - 1
        assert reverse(ones) == ones


def test_two_prime_complete_decompositions_pair_under_reversal():
    # wherever 1+...+x^m splits into two distinct primes to exponent 1,
    # the pair is fixed or swapped by coefficient reversal
    checked = 0
    for m in range(2, 41):
        fac = factorize((1 << (m + 1)) - 1)
        if len(fac) == 2 and all(e == 1 for _, e in fac):
            (p, _), (q, _) = fac
            assert (reverse(p) == p and reverse(q) == q) or \
                   (reverse(p) == q and reverse(q) == p)
            checked += 1
    assert checked > 0


def test_corrected_printed_factorization():
    # sigma(P^4) for the degree-4 complete polynomial P; the classical
    # printed form is reproduced exactly once the parenthesis is restored
    q = sigma_prime_power(0b11111, 4)
    fac = factorize(q)
    assert fac == ((0x13, 1), (0x13d7, 1))
    assert q == parse('(1+x+x^4)(1+x+x^2+x^4+x^6+x^7+x^8+x^9+x^12)')
