"""Bounded machine verification of the classical structure lemmas.

These verifiers turn the toolkit behind the classification of even
perfect polynomials (largely Canaday, The sum of the divisors of a
polynomial, Duke Math. J. 8, 1941) into exhaustive scans: facts about
complete polynomials 1 + x + ... + x^h, coefficient-reversal symmetry,
and the factor structure of sigma on prime powers.  Each verifier scans
its full parameter range and returns what it found, so the caller can
compare against the classically claimed solution set; none of them
proves anything beyond the configured bounds.  LEMMAS pairs each
verifier with its default bounds and that classical solution set.
"""

import math
from collections import namedtuple
from functools import reduce

from .factor import (
    MAX_IRREDUCIBLES_DEG, factorize, irreducibles_up_to, is_irreducible,
)
from .gf2poly import (
    X1, degree, derivative, divexact, gcd, is_self_inverse, mul, pow_,
    to_hex, translate,
)
from .sigma import sigma_prime_power


def _ones(n):
    # 1 + x + ... + x^n, the complete polynomial of degree n
    return (1 << (n + 1)) - 1


def special_form(p):
    """(a, b) with p = x^a (x+1)^b + 1, or None if p has no such form."""
    if p == 0:
        raise ValueError('special form of the zero polynomial is undefined')
    v = p ^ 1
    if v == 0:
        return None
    a = (v & -v).bit_length() - 1
    w = v >> a
    b = degree(w)
    if w != pow_(X1, b):
        return None
    return a, b


# The caps below keep each verifier under about 5 s in the CLI on a
# 2-CPU Xeon VM, where repeated runs spread by up to a third.  Lemma
# 1(iv) builds (x+1)^b once per b, then tests the candidates
# x^a (x+1)^b + 1 of degree <= max_deg: 0.4 s at 450, 1.9-2.0 s at 900,
# 2.5 s at 1000 and 2.6-3.3 s at 1100.
MAX_LEMMA1IV_DEG = 1000


def verify_lemma1_iv(max_deg):
    """All irreducible self-inverse special-form polynomials of degree
    2..max_deg; classically exactly 1+x+x^2 and 1+x+x^2+x^3+x^4."""
    if max_deg < 2:
        raise ValueError('max_deg must be >= 2')
    if max_deg > MAX_LEMMA1IV_DEG:
        raise ValueError(f'max_deg must be <= {MAX_LEMMA1IV_DEG}')
    out = []
    for b in range(max_deg + 1):
        t = pow_(X1, b)
        for a in range(max(2 - b, 0), max_deg - b + 1):
            p = (t << a) ^ 1
            if is_self_inverse(p) and is_irreducible(p):
                out.append(p)
    return sorted(out)


def verify_lemma4(h_bound, k_bound):
    """All (h, k, P, Q) with sigma(x^(2h)) = P*Q for irreducible P, Q
    and P = sigma((x+1)^(2k)); classically the single solution
    (4, 1, 1+x+x^2, 1+x^3+x^6).

    sigma(x^(2h)) = (x^(2h+1) + 1) / (x + 1) is squarefree, as
    x^(2h+1) + 1 has the derivative x^(2h), so it is P*Q exactly when
    it has two primes; either may be the translate of 1 + ... + x^(2k),
    with 2k its degree.  Each h costs one factorization, as in theorem
    8, whose cap bounds both bounds.
    """
    if h_bound < 1 or k_bound < 1:
        raise ValueError('bounds must be >= 1')
    if max(h_bound, k_bound) > MAX_THEOREM8_H:
        raise ValueError(f'bounds must be <= {MAX_THEOREM8_H}')
    out = []
    for h in range(1, h_bound + 1):
        fac = factorize(_ones(2 * h))
        if len(fac) == 2:
            for (p, _), (q, _) in (fac, fac[::-1]):
                k = degree(p) // 2
                if 1 <= k <= k_bound and p == translate(_ones(2 * k)):
                    out.append((h, k, p, q))
    return out


def verify_lemma5(p_deg_bound, n_bound):
    """Flag any sigma(P^(2n)) that is a proper perfect power Q^m, m >= 2.

    The exponent is read off the factorization: sigma(P^(2n)) is a
    perfect power exactly when the gcd of its factor multiplicities
    exceeds 1.  Classically there are no violations.
    """
    violations = []
    for p, n, fac in _sigma_even_powers(p_deg_bound, n_bound):
        g = math.gcd(*(e for _, e in fac))
        if g >= 2:
            root = reduce(mul, (pow_(q, e // g) for q, e in fac), 1)
            violations.append({'p': p, 'n': n, 'root': root, 'power': g})
    return violations


def verify_lemma6(p_deg_bound, n_bound):
    """Check the degree inequalities on repeated factors of sigma(P^(2n)).

    For every decomposition sigma(P^(2n)) = Q^m * A with m > 1 the
    classical claim is deg(P) > (m-1) deg(Q) for odd m and
    deg(P) > m deg(Q) for even m; every violation is reported.
    """
    violations = []
    for p, n, fac in _sigma_even_powers(p_deg_bound, n_bound):
        for q, e in fac:
            for m in range(2, e + 1):
                bound = (m - 1 if m % 2 else m) * degree(q)
                if not degree(p) > bound:
                    violations.append({'p': p, 'n': n, 'q': q, 'm': m})
    return violations


def _even_powers_work(p_deg_bound, n_bound):
    """Cost model of lemmas 5 and 6: a bound on the total degree of the
    sigma(P^(2n)) built, over the primes P of degree <= p_deg_bound and
    n <= n_bound.  The degrees of those primes sum to at most
    2^(p_deg_bound+1), and the 2n to n_bound (n_bound + 1)."""
    return (2 << p_deg_bound) * n_bound * (n_bound + 1)


# Lemmas 5 and 6 build sigma(P^(2n)), of degree 2n deg(P), for every
# prime up to the degree bound, take its gcd with its derivative, and
# factor the repeated part of those that are not squarefree.  Building
# and the gcd pass cost about linearly in the total degree, so one cap
# bounds _even_powers_work and the two bounds trade against each other.
# The CLI on a 2-CPU Xeon VM at the corners of the cap (as
# p_deg_bound/n_bound, lemmas 5 and 6, 1-3 runs): 1/1580 to 7/197
# 1.7-2.2 s, 8/139 2.5-2.9 s, 13/24 2.7-3.2 s, 16/8 2.9-3.3 s, 17/5
# 2.1-3.6 s, 20/1 1.7-2.3 s, and 2.1-2.9 s at the others.  In-process,
# twice the cap takes 5.4 s at 13/34 and 5.8 s at 5/558.  The defaults
# 6 and 4 are 2,560; every pair that the cap of 60 million on the sum
# of squared degrees admitted is at most 1,048,576 (18/1).
MAX_EVEN_POWERS_WORK = 10_000_000


def _sigma_even_powers(p_deg_bound, n_bound):
    if p_deg_bound < 1 or n_bound < 1:
        raise ValueError('bounds must be >= 1')
    if p_deg_bound > MAX_IRREDUCIBLES_DEG:
        raise ValueError(f'p_deg_bound must be <= {MAX_IRREDUCIBLES_DEG}')
    if _even_powers_work(p_deg_bound, n_bound) > MAX_EVEN_POWERS_WORK:
        raise ValueError(
            'bounds too large: 2^(p_deg_bound+1) n_bound (n_bound+1) must '
            f'be <= {MAX_EVEN_POWERS_WORK}')
    # g = gcd(s, s') holds each prime of s at e or e - 1, whichever is
    # even, for its multiplicity e, so h = g gcd(s/g, g) holds those of
    # e >= 2 at exactly e and no other.  A squarefree s (g == 1) can
    # violate neither lemma and is skipped; otherwise only h is factored,
    # and the simple primes follow as their product at 1, which makes
    # lemma 5's gcd 1 and gives lemma 6 no row.
    return ((p, n, factorize(h) + ((divexact(s, h), 1),) * (h != s))
            for p in irreducibles_up_to(p_deg_bound)
            for n in range(1, n_bound + 1)
            for s in (sigma_prime_power(p, 2 * n),)
            for g in (gcd(s, derivative(s)),) if g != 1
            for h in (mul(g, gcd(divexact(s, g), g)),))


# Theorem 8 factors 1 + x + ... + x^(2h) for every h, up to degree 1200:
# the CLI takes 0.4-0.6 s at h_bound 300 and 1.5-2.1 s at 600 on a
# 2-CPU Xeon VM, and verify_theorem8(700) takes 3.2-3.5 s in-process,
# so 600 keeps it within the 1-3.5 s that lemmas 1(iv), 5 and 6 cost at
# their caps.  Lemma 4 does the same factorizations and shares the cap:
# 1.4 s at 600/600 and 0.4-0.6 s at 350/1.
MAX_THEOREM8_H = 600


def verify_theorem8(h_bound):
    """All h <= h_bound for which every prime factor of
    1 + x + ... + x^(2h) has a special form; classically {1, 2, 3}."""
    if h_bound < 3:
        raise ValueError('h_bound must be >= 3')
    if h_bound > MAX_THEOREM8_H:
        raise ValueError(f'h_bound must be <= {MAX_THEOREM8_H}')
    out = []
    for h in range(1, h_bound + 1):
        if all(special_form(q) is not None
               for q, _ in factorize(_ones(2 * h))):
            out.append(h)
    return out


def verify_minimal_prime_parity(a):
    """True iff the number of minimal-degree primes dividing a is even.

    "Minimal" is read as minimal degree among the prime factors of a;
    a is expected to be perfect (the caller checks).
    """
    degs = [degree(q) for q, _ in factorize(a)]
    return degs.count(min(degs, default=0)) % 2 == 0


class Lemma(namedtuple('Lemma', 'verify defaults expected encode '
                                'encode_expected', defaults=[None])):
    """A verifier with its default bounds and classically expected result.

    expected maps the bounds to the classical result, or is None for a
    verifier that returns violations (classically none).  encode maps a
    result to JSON; encode_expected, when set, encodes the expected
    result instead.
    """

    __slots__ = ()


LEMMAS = {
    '1iv': Lemma(
        verify_lemma1_iv, {'max_deg': 16},
        lambda max_deg: [0b111] + ([0b11111] if max_deg >= 4 else []),
        lambda polys: [to_hex(p) for p in polys]),
    '4': Lemma(
        verify_lemma4, {'h_bound': 20, 'k_bound': 10},
        lambda h_bound, k_bound:
            [(4, 1, 0b111, 0b1001001)] if h_bound >= 4 else [],
        lambda rows: [{'h': h, 'k': k, 'p_hex': to_hex(p), 'q_hex': to_hex(q)}
                      for h, k, p, q in rows],
        lambda rows: [{'h': h, 'k': k} for h, k, _, _ in rows]),
    '5': Lemma(
        verify_lemma5, {'p_deg_bound': 6, 'n_bound': 4}, None,
        lambda rows: [{'p_hex': to_hex(v['p']), 'n': v['n'],
                       'root_hex': to_hex(v['root']), 'power': v['power']}
                      for v in rows]),
    '6': Lemma(
        verify_lemma6, {'p_deg_bound': 6, 'n_bound': 4}, None,
        lambda rows: [{'p_hex': to_hex(v['p']), 'n': v['n'],
                       'q_hex': to_hex(v['q']), 'm': v['m']} for v in rows]),
    '8': Lemma(
        verify_theorem8, {'h_bound': 30},
        lambda h_bound: [1, 2, 3],
        list),
}
