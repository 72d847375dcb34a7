"""Perfection certificates, the known catalog, and the searches.

A polynomial A is perfect when sigma(A) = A.  Three search strategies:

- exhaustive_search walks every nonconstant polynomial up to a degree
  bound via the bulk sigma table;
- shape_search enumerates candidates x^h (x+1)^k P^l Q^m over distinct
  odd irreducibles P, Q, with h and k pinned by the valuations of
  sigma(A) = A, optionally pruning exponent patterns that the classical
  structure lemmas exclude;
- odd_square_search targets odd candidates whose exponents all equal 2.

Every search certifies its finds and reports them as
PerfectCertificate values inside a SearchReport.
"""

import time
from dataclasses import dataclass, field

from .factor import Factorization, factorize, irreducibles_up_to
from .gf2poly import (
    X, X1, degree, derivative, gcd, mul, pow_, square, to_hex, to_text,
    translate,
)
from .sigma import (
    _BLOCK, Parity, parity, sigma_of_factorization, sigma_prime_power,
    sigma_table,
)


@dataclass(frozen=True)
class PerfectCertificate:
    """Verdict sigma(poly) == poly together with the factorization of poly."""

    poly: int
    factorization: Factorization
    is_perfect: bool
    parity: Parity
    omega: int

    def to_dict(self):
        return {
            'poly_hex': to_hex(self.poly),
            'poly_text': to_text(self.poly),
            'degree': degree(self.poly),
            'factors': [{'prime_hex': to_hex(p), 'exp': e}
                        for p, e in self.factorization],
            'perfect': self.is_perfect,
            'parity': self.parity.value,
            'omega': self.omega,
        }


@dataclass(frozen=True)
class Shape:
    """Exponent pattern (h, k, l, m) for x^h (x+1)^k P^l Q^m candidates.

    The case tag names which structural family the pattern belongs to;
    l and m are oriented so the tag's constraint reads off directly
    (tag b: l = 2^n, m = 2^n - 1; tags c/d/e: m + 1 a power of two).
    """

    case_tag: str
    h: int
    k: int
    l: int
    m: int

    def __post_init__(self):
        if self.case_tag not in 'abcde':
            raise ValueError(f'unknown case tag {self.case_tag!r}')
        if min(self.h, self.k) < 0 or min(self.l, self.m) < 1:
            raise ValueError('exponents out of range')
        h, k, l, m = self.h, self.k, self.l, self.m
        mersenne = (m + 1) & m == 0
        ok = {
            'a': l % 2 == 0 and m % 2 == 0,
            'b': l >= 2 and l & (l - 1) == 0 and m == l - 1,
            'c': h % 2 == 0 and k % 2 == 0 and l % 2 == 1 and mersenne,
            'd': (h + k) % 2 == 1 and l % 2 == 1 and mersenne,
            'e': h % 2 == 1 and k % 2 == 1 and l % 2 == 1 and m % 2 == 1
                 and mersenne,
        }[self.case_tag]
        if not ok:
            raise ValueError(
                f'exponents ({h},{k},{l},{m}) violate case {self.case_tag!r}')


@dataclass
class SearchReport:
    """Outcome of one search run; counts are reproducible per config."""

    kind: str
    degree_bound: int
    config: dict
    candidates_examined: int
    shapes_pruned: dict
    perfects_found: list
    wall_time: float
    found_shapes: dict = field(default_factory=dict)  # poly -> record

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
            d['found_shapes'] = [self.found_shapes[c.poly]
                                 for c in self.perfects_found]
        return d


def is_perfect(a, seed=None):
    """Certify whether sigma(a) = a, for nonzero a."""
    if a == 0:
        raise ValueError('perfection of the zero polynomial is undefined')
    fac = factorize(a, seed=seed)
    return PerfectCertificate(
        poly=a,
        factorization=fac,
        is_perfect=sigma_of_factorization(fac) == a,
        parity=parity(a),
        omega=fac.omega,
    )


def trivial_perfect(n):
    """The n-th member (x^2+x)^(2^n - 1) of the trivial perfect family."""
    if n < 1:
        raise ValueError('n must be >= 1')
    return pow_(mul(X, X1), (1 << n) - 1)


def _product(*factors):
    r = 1
    for f in factors:
        r = mul(r, f)
    return r


# the classical sporadic perfect polynomials, by their catalog labels
T1 = _product(pow_(X, 2), X1, 0b111)                          # degree 5
T2 = _product(pow_(X, 3), pow_(X1, 4), 0b11001)               # degree 11
C1 = _product(pow_(X, 2), X1, square(0b111), 0b10011)         # degree 11
C2 = translate(C1)
C3 = _product(pow_(X, 4), pow_(X1, 4), 0b11111, 0b11001)      # degree 16
C4 = _product(pow_(X, 6), pow_(X1, 3), 0b1101, 0b1011)        # degree 15
C5 = translate(C4)
S1 = _product(pow_(X, 6), pow_(X1, 4), 0b1011, 0b1101, 0b11001)  # degree 20


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
# the sieve's two odd-only uint32 tables of half that; with block-sized
# temporaries a degree-24 search peaks at about 310 MB, and that doubles
# per degree.  uint32 entries would also wrap past degree 31.
MAX_EXHAUSTIVE_DEG = 24


def exhaustive_search(max_deg):
    """Certify every nonconstant polynomial of degree <= max_deg.

    The fixed points of the bulk sigma table are found in ascending
    bitmask order; sigma(1) = 1 is trivial, so constants are not
    candidates.
    """
    import numpy as np

    if max_deg < 1:
        raise ValueError('max_deg must be >= 1')
    if max_deg > MAX_EXHAUSTIVE_DEG:
        raise ValueError(f'max_deg must be <= {MAX_EXHAUSTIVE_DEG}')
    t0 = time.perf_counter()
    table = sigma_table(max_deg)
    size = len(table)
    # block by block, so no table-sized index or mask is built
    ramp = np.arange(_BLOCK, dtype=table.dtype)
    found = []
    for lo in range(0, size, _BLOCK):
        part = table[lo:lo + _BLOCK]
        hits = np.flatnonzero(part == ramp[:len(part)] + lo)
        found.extend((hits + lo).tolist())
    certs = [is_perfect(a) for a in found if a >= 2]
    return SearchReport(
        kind='exhaustive',
        degree_bound=max_deg,
        config={'max_deg': max_deg},
        candidates_examined=size - 2,
        shapes_pruned={},
        perfects_found=certs,
        wall_time=time.perf_counter() - t0,
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


def _hit_shape(h, k, l, m):
    """The Shape of a certified hit, with (l, m) oriented to its tag."""
    if l % 2 == 0 and m % 2 == 0:
        tag = 'a'
    elif l % 2 != m % 2:
        tag = 'b'
        if l % 2 == 1:  # put the power of two in the l slot
            l, m = m, l
    else:
        tag = 'c' if h % 2 == 0 and k % 2 == 0 else \
              'e' if h % 2 == 1 and k % 2 == 1 else 'd'
        if (m + 1) & m != 0:  # put the Mersenne exponent in the m slot
            l, m = m, l
    return Shape(tag, h, k, l, m)


def _hk_grid_size(budget):
    # pairs h, k >= 1 with h + k <= budget
    return budget * (budget - 1) // 2 if budget >= 2 else 0


def _prime_power_tables(p, max_exp):
    """p^l, sigma(p^l) and (v_x, v_{x+1}) of sigma(p^l), for l <= max_exp."""
    pows, sigs = [1, p], [1, p ^ 1]
    for _ in range(2, max_exp + 1):
        pows.append(mul(pows[-1], p))
        sigs.append(sigs[-1] ^ pows[-1])
    vals = []
    for s in sigs:
        t = translate(s)
        vals.append(((s & -s).bit_length() - 1, (t & -t).bit_length() - 1))
    return pows, sigs, vals


def _shape_hits(deg_bound, p_deg_bound, use_pruning):
    """Enumerate the perfect x^h (x+1)^k P^l Q^m for shape_search.

    The valuations of sigma(A) = A pin h to k.  sigma(x^h) is coprime
    to x and v_{x+1}(sigma(x^h)) = 2^{v_2(h+1)} - 1, and symmetrically
    under x -> x+1, so with S = sigma(P^l) sigma(Q^m) a perfect A has

        h = v_x(S) + 2^{v_2(k+1)} - 1,  k = v_{x+1}(S) + 2^{v_2(h+1)} - 1.

    So each value of v_2(k+1) yields at most one (h, k) pair, and only
    pairs meeting both equations get the full sigma(A) = A check.
    Returns (examined, pruned, hits).
    """
    odd_primes = [p for p in irreducibles_up_to(p_deg_bound) if degree(p) >= 2]
    # P's partner has degree >= 2 and h, k >= 1, so l * deg(P) <= deg_bound - 4
    tables = [_prime_power_tables(p, (deg_bound - 4) // degree(p))
              for p in odd_primes]

    ones = [(1 << (h + 1)) - 1 for h in range(deg_bound + 1)]  # sigma(x^h)
    sig_x1 = [translate(v) for v in ones]                      # sigma((x+1)^k)
    x1_pow = [1]
    for _ in range(deg_bound):
        x1_pow.append(mul(x1_pow[-1], X1))

    examined = 0
    pruned = {'lemma10': 0, 'lemma11': 0}
    hits = []  # (poly, h, k, l, m, P, Q)
    for i, p in enumerate(odd_primes):
        dp = degree(p)
        p_pow, p_sig, p_val = tables[i]
        for j in range(i + 1, len(odd_primes)):
            q = odd_primes[j]
            dq = degree(q)
            if dp + dq + 2 > deg_bound:
                continue
            q_pow, q_sig, q_val = tables[j]
            for l in range(1, (deg_bound - dq - 2) // dp + 1):
                for m in range(1, (deg_bound - l * dp - 2) // dq + 1):
                    budget = deg_bound - l * dp - m * dq
                    if use_pruning:
                        rule = _classify_pattern(l, m)
                        if rule is not None:
                            pruned[rule] += _hk_grid_size(budget)
                            continue
                    vx = p_val[l][0] + q_val[m][0]
                    vx1 = p_val[l][1] + q_val[m][1]
                    spq = None
                    # v_2(k+1) = e fixes h, and h fixes k; 2^{v_2(n)} is
                    # the lowest set bit n & -n
                    for e in range(budget.bit_length()):
                        h = vx + (1 << e) - 1
                        k = vx1 + ((h + 1) & -(h + 1)) - 1
                        if h < 1 or k < 1 or h + k > budget or \
                                (k + 1) & -(k + 1) != 1 << e:
                            continue
                        examined += 1
                        if spq is None:
                            spq = mul(p_sig[l], q_sig[m])
                            apq = mul(p_pow[l], q_pow[m])
                        a = mul(x1_pow[k], apq) << h
                        if mul(ones[h], mul(sig_x1[k], spq)) == a:
                            hits.append((a, h, k, l, m, p, q))
    return examined, pruned, hits


def shape_search(deg_bound, p_deg_bound, use_pruning=True):
    """Search x^h (x+1)^k P^l Q^m over distinct odd irreducibles P < Q.

    All four exponents are at least 1 (an even perfect polynomial with
    four prime factors has both linear primes present) and the total
    degree is capped by deg_bound; P and Q range over irreducibles of
    degree 2..p_deg_bound.  With pruning on, exponent patterns excluded
    by the structure lemmas are skipped and tallied per rule (as the
    number of (h, k) pairs they cover) instead of certified.
    candidates_examined counts the (P, Q, l, m, h, k) tuples that pass
    the valuation pin of _shape_hits and get the full sigma(A) = A
    check.
    """
    if deg_bound < 1 or p_deg_bound < 1:
        raise ValueError('bounds must be >= 1')
    t0 = time.perf_counter()
    examined, pruned, hits = _shape_hits(deg_bound, p_deg_bound, use_pruning)

    certs = []
    found_shapes = {}
    for poly, h, k, l, m, p, q in sorted(hits):
        certs.append(is_perfect(poly))
        shape = _hit_shape(h, k, l, m)
        if shape.l != l:
            p, q = q, p
        found_shapes[poly] = {
            'case_tag': shape.case_tag, 'h': h, 'k': k, 'l': shape.l,
            'm': shape.m, 'p_hex': to_hex(p), 'q_hex': to_hex(q),
        }
    return SearchReport(
        kind='shape',
        degree_bound=deg_bound,
        config={'deg_bound': deg_bound, 'p_deg_bound': p_deg_bound,
                'use_pruning': use_pruning},
        candidates_examined=examined,
        shapes_pruned=pruned if use_pruning else {},
        perfects_found=certs,
        wall_time=time.perf_counter() - t0,
        found_shapes=found_shapes,
    )


# one factorization per squarefree B of degree <= max_deg/2, so the cost
# doubles every 2 degrees: about 2 minutes at 40
MAX_ODD_SQUARE_DEG = 40


def odd_square_search(max_deg):
    """Look for odd perfect A = B^2 with B squarefree, deg(A) <= max_deg.

    B runs over squarefree polynomials coprime to x^2+x; the test is
    sigma(B^2) = B^2 assembled from the factorization of B.
    """
    if max_deg % 2 != 0:
        raise ValueError('max_deg must be even (candidates are squares)')
    if not 2 <= max_deg <= MAX_ODD_SQUARE_DEG:
        raise ValueError(f'max_deg must be in 2..{MAX_ODD_SQUARE_DEG}')
    t0 = time.perf_counter()
    examined = 0
    certs = []
    for b in range(2, 1 << (max_deg // 2 + 1)):
        # odd means unit constant term and a root-free value at 1
        if b & 1 == 0 or b.bit_count() % 2 == 0:
            continue
        if gcd(b, derivative(b)) != 1:
            continue  # not squarefree
        examined += 1
        s = 1
        for prime, _ in factorize(b):
            s = mul(s, sigma_prime_power(prime, 2))
        if s == square(b):
            certs.append(is_perfect(square(b)))
    return SearchReport(
        kind='odd-square',
        degree_bound=max_deg,
        config={'max_deg': max_deg},
        candidates_examined=examined,
        shapes_pruned={},
        perfects_found=certs,
        wall_time=time.perf_counter() - t0,
    )
