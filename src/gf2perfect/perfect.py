"""Perfection certificates, the known catalog, and the searches.

A polynomial A is perfect when sigma(A) = A.  Three search strategies:

- exhaustive_search walks every nonconstant polynomial up to a degree
  bound via the bulk sigma table;
- shape_search finds the perfect x^h (x+1)^k P^l Q^m over distinct
  odd irreducibles P, Q with a sigma-closure search: from x^h (x+1)^k
  it decides each prime that some decided sigma(p^e) needs, so only
  primes that can divide a perfect A are ever tried.  It optionally
  skips exponent patterns that the classical structure lemmas exclude;
- odd_square_search runs the same closure engine from each possible
  least prime of an odd perfect polynomial.  A prime P of an odd A has
  P(0) = P(1) = 1, so for odd e, x divides P + 1, which divides
  sigma(P^e); as x cannot divide sigma(A) = A, every exponent is even
  and A = B^2 with x not dividing B.

Every search certifies its finds and reports them as
PerfectCertificate values inside a SearchReport.
"""

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import comb

from .factor import (
    MAX_IRREDUCIBLES_DEG, factorize, factors_json, irreducible_counts,
    irreducibles_up_to,
)
from .gf2poly import (
    X, X1, degree, mul, parse, pow_, to_hex, to_text, translate,
)
from .sigma import (
    fixed_points, parity, sigma_of_factorization, sigma_prime_power,
)


class PerfectCertificate(namedtuple(
        'PerfectCertificate', 'poly factorization is_perfect parity omega')):
    """Verdict sigma(poly) == poly together with the factorization of
    poly, its sorted (prime, exponent) pairs; parity is a sigma.Parity
    and omega the number of distinct primes."""

    __slots__ = ()

    def to_dict(self):
        return {
            'poly_hex': to_hex(self.poly),
            'poly_text': to_text(self.poly),
            'degree': degree(self.poly),
            'factors': factors_json(self.factorization),
            'perfect': self.is_perfect,
            'parity': self.parity.value,
            'omega': self.omega,
        }


class SearchReport(namedtuple(
        'SearchReport', 'kind degree_bound config candidates_examined '
        'perfects_found shapes_pruned found_shapes', defaults=[()])):
    """Outcome of one search run; counts are reproducible per config.

    shapes_pruned maps a rule to its count; found_shapes lists the
    shape records in find order.
    """

    __slots__ = ()

    def found_polys(self):
        return [c.poly for c in self.perfects_found]

    def symmetry_pairs(self):
        """Finds grouped under the x -> x+1 symmetry, as sorted pairs."""
        pairs = {tuple(sorted((a, translate(a)))) for a in self.found_polys()}
        return sorted(pairs)

    def to_dict(self):
        d = {
            'kind': self.kind,
            'degree_bound': self.degree_bound,
            'config': self.config,
            'candidates_examined': self.candidates_examined,
            'shapes_pruned': self.shapes_pruned,
            'perfects_found': len(self.perfects_found),
            'certificates': [c.to_dict() for c in self.perfects_found],
            'symmetry_pairs': [[to_hex(a), to_hex(b)]
                               for a, b in self.symmetry_pairs()],
        }
        if self.found_shapes:
            d['found_shapes'] = self.found_shapes
        return d


def is_perfect(a):
    """Certify whether sigma(a) = a, for nonzero a."""
    fac = factorize(a)
    return PerfectCertificate(
        poly=a,
        factorization=fac,
        is_perfect=sigma_of_factorization(fac) == a,
        parity=parity(a),
        omega=len(fac),
    )


def trivial_perfect(n):
    """The n-th member (x^2+x)^(2^n - 1) of the trivial perfect family."""
    if n < 1:
        raise ValueError('n must be >= 1')
    return pow_(mul(X, X1), (1 << n) - 1)


# the classical sporadic perfect polynomials, by their catalog labels
T1 = parse('x^2(x+1)(x^2+x+1)')                             # degree 5
T2 = parse('x^3(x+1)^4(x^4+x^3+1)')                         # degree 11
C1 = parse('x^2(x+1)(x^2+x+1)^2(x^4+x+1)')                  # degree 11
C2 = translate(C1)
C3 = parse('x^4(x+1)^4(x^4+x^3+x^2+x+1)(x^4+x^3+1)')        # degree 16
C4 = parse('x^6(x+1)^3(x^3+x^2+1)(x^3+x+1)')                # degree 15
C5 = translate(C4)
S1 = parse('x^6(x+1)^4(x^3+x+1)(x^3+x^2+1)(x^4+x^3+1)')     # degree 20


def catalog():
    """Certificates for every known perfect polynomial with omega <= 5.

    The trivial family (x^2+x)^(2^n - 1) is truncated at n = 5; the
    sporadic entries are T1, T2, C1..C5, S1 and their x -> x+1 images.
    Sorted ascending by (degree, bitmask).
    """
    entries = [trivial_perfect(n) for n in range(1, 6)]
    entries += [T1, translate(T1), T2, translate(T2),
                C1, C2, C3, C4, C5, S1, translate(S1)]
    return [is_perfect(a) for a in sorted(entries)]


# The bulk tables are the uint32 sigma table of 2^(max_deg+1) entries and
# the sieve's two odd-only uint32 tables of half that, which are freed
# before the sigma table is built; a degree-24 search peaks at about
# 250 MB, and that doubles per degree.  uint32 entries would also wrap
# past degree 31.
MAX_EXHAUSTIVE_DEG = 24


def exhaustive_search(max_deg):
    """Certify every nonconstant polynomial of degree <= max_deg.

    The fixed points of the bulk sigma table are found in ascending
    bitmask order; sigma(1) = 1 is trivial, so constants are not
    candidates: candidates_examined is 2^(max_deg+1) - 2.
    """
    if max_deg < 1:
        raise ValueError('max_deg must be >= 1')
    if max_deg > MAX_EXHAUSTIVE_DEG:
        raise ValueError(f'max_deg must be <= {MAX_EXHAUSTIVE_DEG}')
    return SearchReport(
        kind='exhaustive',
        degree_bound=max_deg,
        config={'max_deg': max_deg},
        candidates_examined=(2 << max_deg) - 2,
        perfects_found=[is_perfect(a) for a in fixed_points(max_deg)],
        shapes_pruned={},
    )


def _classify_pattern(l, m):
    """The structure lemma that prunes exponent pattern (l, m), or None.

    Patterns with one even and one odd exponent must pair 2^n with
    2^n - 1 (else the even-exponent lemma prunes them); two odd
    exponents need at least one of Mersenne form (else the odd-exponent
    lemma prunes them).
    """
    if l % 2 != m % 2:
        two_pow, other = (l, m) if l % 2 == 0 else (m, l)
        if two_pow & (two_pow - 1) != 0 or other != two_pow - 1:
            return 'lemma11'
    elif l % 2 == 1 and (l + 1) & l != 0 and (m + 1) & m != 0:
        return 'lemma10'
    return None


def _hit_record(h, k, p, l, q, m):
    """The found_shapes record of a hit x^h (x+1)^k P^l Q^m.

    Tag a has l and m even.  Otherwise the Mersenne exponent (m + 1 a
    power of two) takes the m slot, with its prime: tag b then pairs
    l = 2^n with m = 2^n - 1, and two odd exponents take tag c, d or e
    as none, one or both of h and k are odd.  A hit whose (l, m) a
    structure lemma excludes raises ValueError.
    """
    rule = _classify_pattern(l, m)
    if rule is not None:
        raise ValueError(f'exponents ({l}, {m}) violate {rule}')
    if l % 2 == 0 and m % 2 == 0:
        tag = 'a'
    else:
        if (m + 1) & m != 0:
            p, l, q, m = q, m, p, l
        tag = 'b' if l % 2 != m % 2 else 'cde'[h % 2 + k % 2]
    return {'case_tag': tag, 'h': h, 'k': k, 'l': l, 'm': m,
            'p_hex': to_hex(p), 'q_hex': to_hex(q)}


@lru_cache(maxsize=4096)
def _sigma_primes(p, e):
    """factorize(sigma_prime_power(p, e)) for a prime p and e >= 1.

    sigma((x+1)^e) is sigma(x^e) translated, prime by prime.  For odd
    e >= 3, write e + 1 = 2^s u with u odd; the splitting identity
    sigma(p^e) = (p+1)^(2^s - 1) sigma(p^(u-1))^(2^s) combines the
    factors of sigma(p) and of the even power sigma(p^(u-1)).  Only
    e = 1 and even e are factored directly.  The cache is bounded, since
    most odd-search seeds are factored once and then die.
    """
    if p == X1:
        return tuple(sorted((translate(q), m) for q, m in _sigma_primes(X, e)))
    if e == 1 or e % 2 == 0:
        return factorize(sigma_prime_power(p, e))
    t = (e + 1) & -(e + 1)  # 2^s
    fac = {q: m * (t - 1) for q, m in _sigma_primes(p, 1)}
    if e + 1 > t:
        for q, m in _sigma_primes(p, (e + 1) // t - 1):
            fac[q] = fac.get(q, 0) + m * t
    return tuple(sorted(fac.items()))


def _closure(seeds, deg_bound, p_deg_bound, max_omega, prune=False):
    """Depth-first sigma-closure search; returns (states, closed).

    A state holds decided prime powers dec, the multiset need of the
    primes of their sigmas, the set pending of needed, undecided primes,
    and rest, the decided degree plus need[q] deg q over pending q; every
    prime of a perfect A is needed, since sigma(P^e) = 1 mod P.  Each
    seed dict {prime: exp} names the least prime of the A sought,
    min(seed): a seed or child whose sigma has a prime below it is
    skipped.  No prime is below x, so the seed check runs only when the
    least prime is not x.  When it is not, every exponent is even,
    since x | q + 1 | sigma(q^e) for a prime q != x and odd e.  From each
    seed, the lowest pending prime is decided at each exponent from its
    need (rounded up to even when exponents are even) up to the degree
    budget.  A state is pruned when need[q] > dec[q] for a decided q,
    when more than max_omega primes are in play, when a pending prime
    has degree above p_deg_bound, or when rest exceeds deg_bound.  With
    prune, a second odd prime is not decided at e beside one at l when
    _classify_pattern(l, e) names a lemma (sound only if no closure
    holds three odd primes).

    The checks are incremental.  Deciding p at e changes only the need
    of the primes of sigma(p^e), which never holds p, and need only
    grows; so a child checks those primes alone: the decided ones
    against dec, the new pending ones against p_deg_bound, and rest
    moves by (e - need[p]) deg p plus m deg q for each undecided q^m in
    sigma(p^e).  A seed is decided prime by prime from the empty state
    and entered once; a check that fails midway fails on the whole seed
    too.  Each sigma(p^e) comes from _sigma_primes.

    A closed state (nothing pending) is perfect: need <= dec, and
    deg sigma(p^e) = e deg p makes their degrees equal, so need == dec.
    closed lists their dec; states counts the states entered, seeds and
    pruned children included.
    """
    closed = []
    states = 0

    def decide(dec, need, pending, rest, p, e, primes):
        # the state after deciding p at e, sigma(p^e) = primes, or None
        # when a check prunes it; rest only grows and the room for new
        # pending primes only shrinks, so each check exits at once
        n = need.get(p, 0)
        rest += (e - n) * (p.bit_length() - 1)
        room = max_omega - len(dec) - len(pending) - (p not in pending)
        if n > e or rest > deg_bound or room < 0:
            return None
        fresh = []
        for q, m in primes:
            if q in dec:
                if need.get(q, 0) + m > dec[q]:
                    return None
                continue
            d = q.bit_length() - 1
            rest += m * d
            if rest > deg_bound:
                return None
            if q not in pending:
                room -= 1
                if room < 0 or d > p_deg_bound:
                    return None
                fresh.append(q)
        need = need.copy()
        for q, m in primes:
            need[q] = need.get(q, 0) + m
        return ({**dec, p: e}, need, pending.difference((p,)).union(fresh),
                rest)

    def visit(dec, need, pending, rest):
        nonlocal states
        if not pending:
            closed.append(dec)
            return
        low = min(pending)
        d = low.bit_length() - 1
        # the exponents of the decided primes of degree >= 2
        odd = [e for q, e in dec.items() if q > X1] if prune and d >= 2 else ()
        n = need[low]
        for e in range(n + n % step, n + (deg_bound - rest) // d + 1, step):
            if len(odd) == 1 and _classify_pattern(odd[0], e) is not None:
                continue
            primes = _sigma_primes(low, e)
            if primes[0][0] < least:
                continue
            states += 1
            child = decide(dec, need, pending, rest, low, e, primes)
            if child is not None:
                visit(*child)

    @lru_cache(maxsize=1)
    def start(p, e):
        # a seed's first prime decided; consecutive seeds {x: h, x+1: k}
        # of shape_search share it
        return decide({}, {}, frozenset(), 0, p, e, _sigma_primes(p, e))

    for seed in seeds:
        least = min(seed)
        step = 1 if least == X else 2
        if least != X and any(_sigma_primes(p, e)[0][0] < least
                              for p, e in seed.items()):
            continue
        states += 1
        items = iter(seed.items())
        state = start(*next(items))
        for p, e in items:
            if state is None:
                break
            state = decide(*state, p, e, _sigma_primes(p, e))
        if state is not None:
            visit(*state)
    return states, closed


def _folded(closed):
    """Closed states as (polynomial, dec) pairs, ascending."""
    return sorted((reduce(mul, (pow_(p, e) for p, e in dec.items()), 1), dec)
                  for dec in closed)


def _pruned_tally(deg_bound, p_deg_bound):
    """shapes_pruned in closed form: the (P, Q, h, k) each lemma skips.

    For odd primes of degrees a <= b, a rejected pattern (l, m) with
    l a + m b <= deg_bound - 2 covers the h, k >= 1 with h + k <=
    deg_bound - l a - m b, once per pair P < Q of those degrees.
    """
    counts = irreducible_counts(p_deg_bound)
    pruned = {'lemma10': 0, 'lemma11': 0}
    for a, b in combinations_with_replacement(range(2, p_deg_bound + 1), 2):
        pairs = counts[a] * counts[b] if a < b else comb(counts[a], 2)
        for l in range(1, (deg_bound - 2 - b) // a + 1):
            for m in range(1, (deg_bound - 2 - l * a) // b + 1):
                rule = _classify_pattern(l, m)
                if rule is not None:
                    budget = deg_bound - l * a - m * b
                    pruned[rule] += pairs * budget * (budget - 1) // 2
    return pruned


# The time grows about as deg_bound^2.4: on a 2-CPU Xeon VM the CLI with
# --p-deg-bound 20 takes 0.4-0.5 s and 17 MB at deg_bound 300 (87,135
# states), 1.2 s at 500, 3.8 s at 700 and 4.8-5.0 s and 19 MB at 800
# (498,290 states); 900 takes 6.2 s.
MAX_SHAPE_DEG = 800


def shape_search(deg_bound, p_deg_bound, use_pruning=True):
    """Search x^h (x+1)^k P^l Q^m over distinct odd irreducibles P < Q.

    All four exponents are at least 1 (an even perfect polynomial with
    four prime factors has both linear primes present) and the total
    degree is capped by deg_bound; P and Q range over irreducibles of
    degree 2..p_deg_bound.

    The search is _closure seeded with {x: h, x+1: k}, h, k >= 1 and
    h + k <= deg_bound - 4, at most four primes; the finds are its closed
    states with two odd primes.  That misses nothing: in a perfect A,
    the closure R of {x, x+1} holds its sigmas' primes, so by degree the
    R-part of A is perfect and so is the rest U, which is 1 or P^l Q^m,
    as no prime divides its own sigma.  An odd U has l, m even, since
    x | sigma(r^f), r(0) = r(1) = 1, exactly when f is odd; then
    sigma(P^l) = Q^m is a square, yet its derivative
    P' sigma(P^(l/2-1))^2 is not zero.  So U = 1.

    With pruning on, no odd prime is decided at an exponent forming a
    pattern (l, m) the structure lemmas exclude, and shapes_pruned
    tallies, per rule and in closed form, the (P, Q, h, k) those
    patterns cover.  candidates_examined counts the closure states
    entered.  Every find is certified.

    p_deg_bound <= MAX_IRREDUCIBLES_DEG (20) is a contract on the
    accepted range, not a cost cap: the search lists no primes, and with
    the check lifted it ran in 0.5-0.6 s at 300/40 and at 300/60
    in-process (0.4 s at 300/20), finding C1..C5 each time.
    """
    if deg_bound < 1 or p_deg_bound < 1:
        raise ValueError('bounds must be >= 1')
    if deg_bound > MAX_SHAPE_DEG:
        raise ValueError(f'deg_bound must be <= {MAX_SHAPE_DEG}')
    if p_deg_bound > MAX_IRREDUCIBLES_DEG:
        raise ValueError(f'degree bound must be <= {MAX_IRREDUCIBLES_DEG}')
    top = deg_bound - 4
    examined, closed = _closure(
        ({X: h, X1: k} for h in range(1, top) for k in range(1, top - h + 1)),
        deg_bound, p_deg_bound, 4, use_pruning)
    # x and x+1 are always decided, so four primes means two odd ones
    hits = _folded(dec for dec in closed if len(dec) == 4)
    certs = []
    found_shapes = []
    for poly, dec in hits:
        (_, h), (_, k), (p, l), (q, m) = sorted(dec.items())
        certs.append(is_perfect(poly))
        found_shapes.append(_hit_record(h, k, p, l, q, m))
    return SearchReport(
        kind='shape',
        degree_bound=deg_bound,
        config={'deg_bound': deg_bound, 'p_deg_bound': p_deg_bound,
                'use_pruning': use_pruning},
        candidates_examined=examined,
        shapes_pruned=(_pruned_tally(deg_bound, p_deg_bound)
                       if use_pruning else {}),
        perfects_found=certs,
        found_shapes=found_shapes,
    )


# The cost is factoring the seeds' sigma(P^e), and about 8 in 9 seeds
# die at that first factorization, on a prime below P.  On a 2-CPU Xeon
# VM the CLI takes 0.1 s and 16 MB at 48, 1.0-1.2 s at 84, 4.0 s at 96
# and 3.6-4.9 s and 32 MB at 100; at 102 the primes of degree 17 enter
# as seeds, and with the cap lifted it takes 6.7 s and 31 MB in-process.
MAX_ODD_SQUARE_DEG = 100


def odd_square_search(max_deg):
    """Look for odd perfect A of degree <= max_deg by closures from P.

    Let A be odd and perfect, so every exponent is even (see the module
    docstring) and A = B^2 with x not dividing B, and let P be its least
    prime.  The closure R of P in A, its prime powers reached from P
    through the primes of their sigmas, is perfect: sigma(R) divides
    sigma(A) = A and has only primes of R, so it divides R, and the
    degrees agree.  Its primes are all >= P, at even exponents >= 2,
    and omega(R) >= 3: one prime fails as sigma(P^e) = 1 mod P, two by
    the derivative argument of shape_search.  So 6 deg P <= deg A.  The
    search runs _closure from {P: e} for every odd prime P of degree
    <= max_deg / 6 and every even e with e deg P <= max_deg; following
    R's exponents, it closes on R.  No closed state means no odd
    perfect polynomial in range, and every closed state is certified
    and reported.

    candidates_examined counts the B != 1 coprime to x of degree
    <= max_deg / 2, squarefree or not, and divisible by x+1 or not:
    2^(max_deg/2) - 1.  The argument settles each of them, since B^2
    is perfect only if odd: its exponents are even, so sigma(B^2) takes
    the value 1 at 1 and x+1 does not divide it.
    """
    if max_deg % 2 != 0:
        raise ValueError('max_deg must be even (candidates are squares)')
    if not 2 <= max_deg <= MAX_ODD_SQUARE_DEG:
        raise ValueError(f'max_deg must be in 2..{MAX_ODD_SQUARE_DEG}')
    seeds = ({p: e} for p in irreducibles_up_to(max(max_deg // 6, 1))[2:]
             for e in range(2, max_deg // degree(p) + 1, 2))
    _, closed = _closure(seeds, max_deg, max_deg, max_deg)
    return SearchReport(
        kind='odd-square',
        degree_bound=max_deg,
        config={'max_deg': max_deg},
        candidates_examined=(1 << max_deg // 2) - 1,
        perfects_found=[is_perfect(a) for a, _ in _folded(closed)],
        shapes_pruned={},
    )
