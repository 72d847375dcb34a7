"""Reference implementations for cross-checking.

Everything here except sqrt_bitloop, the Rabin and trial-division
oracles, factorize_ddf_edf, sigma_naive, sigma_table_list,
smallest_factor_tables_marking, the two shape searches and
odd_square_search_factoring works on
coefficient lists (index i = coefficient of x^i) with schoolbook
algorithms, deliberately sharing no code with the bit-packed production
path.  sqrt_bitloop is the bit-at-a-time loop that production sqrt's
string slice replaced; it defines sqrt on non-squares too (the
odd-index bits are dropped).  sigma_naive walks the divisor lattice with
the production factorize, mul and pow_, so it checks sigma's assembly
from the factorization, not the factorization.  sigma_table_list is the
one-entry-at-a-time loop over the marking sieve that multiplies the
leading prime power's sigma by its cofactor's, so it checks both the
blocked degree-slice rounds and the three-term recurrence they use,
without sharing the production sieve.  smallest_factor_tables_marking
is the full-size sieve that marks every product p*m of each irreducible
p, first-set-wins, so its odd entries check the production odd-only
linear sieve, which marks each composite once.  shape_search_grid and
shape_search_pinned walk every (P, Q, l, m) over the irreducibles up
to the prime degree bound and test sigma(A) = A directly, on the whole
(h, k) grid or on the (h, k) pairs the valuations pin, so they check
the production sigma-closure search, which never enumerates P and Q
and instead decides the primes that the decided sigma(p^e) need.  They
return (examined, pruned, hits) with hits as (A, h, k, l, m, P, Q);
the pruned tallies check shape_search's closed-form count.
odd_square_search_factoring is the per-B loop that a sigma(B^2) table
and then the least-prime closure replaced: it factors each squarefree B
coprime to x^2+x and assembles sigma(B^2) from that factorization, so
it checks the closure's seeds and prunes on the squarefree B, sharing
only the production factorize and sigma assembly.  factorize_ddf_edf
is the distinct-degree and trace-based equal-degree splitting (with a
seeded random split) that Berlekamp's algorithm replaced on the general
factoring path; it shares only the gf2poly kernels with it, so it
checks the kernel elimination and the splitting.  is_irreducible_rabin (Rabin's
criterion), irreducibles_rabin (the candidates it accepts) and
factor_trial (trial division against those of degree <= 10) are the
irreducibility test and the small-degree factoring path that the
Berlekamp kernel replaced; they too share only the gf2poly kernels
with it.  product_of_powers rebuilds a polynomial from (prime,
exponent) pairs.  even_power_violations_factoring is lemmas 5 and 6
without the squarefree prefilter: it builds every sigma(P^(2n)) by
Horner's rule and factors it with factorize_ddf_edf, so it checks that
the prefilter drops only sigmas that cannot violate either lemma.
lemma4_scan is the k-by-k trial division that reading the two primes
of one factorization replaced in verify_lemma4; it shares only the
gf2poly kernels with it.
"""

import math
import random
from functools import lru_cache, reduce

from gf2perfect.factor import (
    _irreducibles_up_to, factorize, irreducibles_up_to,
)
from gf2perfect.gf2poly import (
    X, X1, degree, derivative, divexact, divrem, gcd, mul, pow_, rem, sqrt,
    square, translate,
)
from gf2perfect.perfect import (
    MAX_ODD_SQUARE_DEG, SearchReport, _classify_pattern, is_perfect,
)
from gf2perfect.sigma import Parity, parity, sigma_of_factorization


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


def list_gcd(a, b):
    """Euclid on coefficient lists, remainders from list_divmod."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, list_divmod(a, b)[1]
    return a


def sqrt_bitloop(p):
    """Compact the even-index bits of p, one bit per pass."""
    r = 0
    i = 0
    while p:
        if p & 1:
            r |= 1 << i
        p >>= 2
        i += 1
    return r


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


def factorize_ddf_edf(p, seed=0x5EED):
    """Factor tuple of a nonzero p: squarefree layers, then DDF and EDF."""
    counts = {}
    rng = random.Random(seed)
    mult = 1
    while degree(p) >= 1:
        d = derivative(p)
        if d == 0:
            p = sqrt(p)
            mult *= 2
            continue
        g = gcd(p, d)
        for q in _factor_squarefree(divexact(p, g), rng):
            counts[q] = counts.get(q, 0) + mult
        p = g
    return tuple(sorted(counts.items()))


def _factor_squarefree(w, rng):
    """Split a squarefree w into irreducibles (distinct-degree first)."""
    out = []
    h = X
    d = 1
    while 2 * d <= degree(w):
        h = rem(square(h), w)  # h = x^(2^d) mod w
        g = gcd(h ^ X, w)
        if g != 1:
            out.extend(_split_equal_degree(g, d, rng))
            w = divexact(w, g)
            h = rem(h, w)
        d += 1
    if degree(w) >= 1:
        out.append(w)
    return out


def _split_equal_degree(g, d, rng):
    """Split a product of distinct degree-d irreducibles via the trace map."""
    if degree(g) == d:
        return [g]
    while True:
        u = rng.randrange(1, 1 << degree(g))
        # trace u + u^2 + u^4 + ... + u^(2^(d-1)) lands in GF(2) on each factor
        t = u
        v = u
        for _ in range(d - 1):
            v = rem(square(v), g)
            t ^= v
        s = gcd(t, g)
        if 0 < degree(s) < degree(g):
            return (_split_equal_degree(s, d, rng)
                    + _split_equal_degree(divexact(g, s), d, rng))


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_rabin(p):
    """Rabin's criterion: x^(2^d) == x mod p, plus gcd checks at the
    maximal proper divisors d/r of d for each prime r dividing d."""
    d = degree(p)
    if d < 1:
        raise ValueError('irreducibility is undefined for constants')
    if d == 1:
        return True
    if p & 1 == 0:  # divisible by x
        return False
    checkpoints = {d // r for r in _prime_divisors(d)}
    h = X
    for i in range(1, d + 1):
        h = rem(square(h), p)
        if i in checkpoints and gcd(h ^ X, p) != 1:
            return False
    return h == X


@lru_cache(maxsize=None)
def irreducibles_rabin(d):
    """Irreducibles of degree <= d, ascending, by Rabin's criterion."""
    out = [X, X1]
    for n in range(2, d + 1):
        for c in range((1 << n) | 1, 1 << (n + 1), 2):
            # skip multiples of x+1 (even weight) before the full test
            if (c.bit_count() & 1) and is_irreducible_rabin(c):
                out.append(c)
    return tuple(out)


def factor_trial(p):
    """{prime: exponent} of a p of degree <= 20, by trial division
    against the Rabin-tested irreducibles of degree <= 10."""
    counts = {}
    for q in irreducibles_rabin(10):
        if 2 * degree(q) > degree(p):
            break
        while True:
            quo, r = divrem(p, q)
            if r:
                break
            p = quo
            counts[q] = counts.get(q, 0) + 1
    if degree(p) >= 1:
        # no factor of degree <= deg(p)/2 remains, so p is irreducible
        counts[p] = counts.get(p, 0) + 1
    return counts


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


def smallest_factor_tables_marking(max_deg):
    """Tables (spf, quot) over all ints below 2^(max_deg+1).

    spf[a] is an irreducible factor of a (the least one, as an int) and
    quot[a] = a // spf[a]; entries 0 and 1 are left as zero.  Built by
    marking products p*m for every irreducible p of degree <= max_deg/2,
    first-set-wins; anything unmarked afterwards has no factor of degree
    <= max_deg/2 and is therefore itself irreducible.
    """
    import numpy as np

    size = 1 << (max_deg + 1)
    spf = np.zeros(size, dtype=np.uint32)
    quot = np.zeros(size, dtype=np.uint32)
    for p in _irreducibles_up_to(max_deg // 2):
        m = np.arange(1, 1 << (max_deg + 1 - degree(p)), dtype=np.uint32)
        prod = np.zeros_like(m)
        bits = p
        shift = 0
        while bits:
            if bits & 1:
                prod ^= m << shift
            bits >>= 1
            shift += 1
        unmarked = spf[prod] == 0
        prod = prod[unmarked]
        spf[prod] = p
        quot[prod] = m[unmarked]
    leftovers = np.nonzero(spf[2:] == 0)[0].astype(np.uint32) + 2
    spf[leftovers] = leftovers
    quot[leftovers] = 1
    return spf, quot


def sigma_table_list(max_deg):
    """sigma(a) for every nonzero a of degree <= max_deg, as a list.

    Entry a holds sigma(a); entry 0 is unused.  Built multiplicatively
    in one pass over ascending a: the quotient b = a // spf(a) is always
    a smaller int, so sigma(spf-power) and the coprime cofactor are
    already available.
    """
    spf, quot = smallest_factor_tables_marking(max_deg)
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


def shape_search_grid(deg_bound, p_deg_bound, use_pruning):
    """The full (h, k) grid shape enumeration, with no valuation pin.

    Checks sigma(A) = A for every x^h (x+1)^k P^l Q^m with h, k >= 1 in
    the degree budget.  Returns (examined, pruned, hits) like
    shape_search_pinned; examined counts every grid point.  Uses the
    production mul, translate and pattern classifier.
    """
    odd_primes = [p for p in irreducibles_up_to(p_deg_bound) if degree(p) >= 2]

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
        for q in odd_primes[i + 1:]:
            dq = degree(q)
            if dp + dq + 2 > deg_bound:
                continue
            # incremental powers and sigma values for both primes
            p_pow, p_sig = [1, p], [1, p ^ 1]
            for l in range(2, (deg_bound - dq - 2) // dp + 1):
                p_pow.append(mul(p_pow[-1], p))
                p_sig.append(p_sig[-1] ^ p_pow[-1])
            q_pow, q_sig = [1, q], [1, q ^ 1]
            for m in range(2, (deg_bound - dp - 2) // dq + 1):
                q_pow.append(mul(q_pow[-1], q))
                q_sig.append(q_sig[-1] ^ q_pow[-1])

            for l in range(1, len(p_pow)):
                for m in range(1, (deg_bound - l * dp - 2) // dq + 1):
                    budget = deg_bound - l * dp - m * dq
                    if use_pruning:
                        rule = _classify_pattern(l, m)
                        if rule is not None:
                            pruned[rule] += _hk_grid_size(budget)
                            continue
                    spq = mul(p_sig[l], q_sig[m])
                    apq = mul(p_pow[l], q_pow[m])
                    for k in range(1, budget):
                        sk = mul(sig_x1[k], spq)
                        ak = mul(x1_pow[k], apq)
                        for h in range(1, budget - k + 1):
                            examined += 1
                            if mul(ones[h], sk) == ak << h:
                                hits.append((ak << h, h, k, l, m, p, q))
    return examined, pruned, hits


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


def shape_search_pinned(deg_bound, p_deg_bound, use_pruning):
    """The valuation-pinned shape enumeration: perfect x^h (x+1)^k P^l Q^m.

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


def odd_square_search_factoring(max_deg):
    """Look for odd perfect A = B^2 with B squarefree, deg(A) <= max_deg.

    B runs over squarefree polynomials coprime to x^2+x; the test is
    sigma(B^2) = B^2 assembled from the factorization of B.
    """
    if max_deg % 2 != 0:
        raise ValueError('max_deg must be even (candidates are squares)')
    if not 2 <= max_deg <= MAX_ODD_SQUARE_DEG:
        raise ValueError(f'max_deg must be in 2..{MAX_ODD_SQUARE_DEG}')
    examined = 0
    certs = []
    for b in range(3, 1 << (max_deg // 2 + 1), 2):
        if parity(b) is Parity.EVEN or gcd(b, derivative(b)) != 1:
            continue  # not odd, or not squarefree
        examined += 1
        a = square(b)
        if sigma_of_factorization((p, 2) for p, _ in factorize(b)) == a:
            certs.append(is_perfect(a))
    return SearchReport(
        kind='odd-square',
        degree_bound=max_deg,
        config={'max_deg': max_deg},
        candidates_examined=examined,
        shapes_pruned={},
        perfects_found=certs,
    )


def product_of_powers(pairs):
    """The product of p^e over (p, e) pairs, such as factorize returns."""
    return reduce(mul, (pow_(p, e) for p, e in pairs), 1)


def even_power_violations_factoring(p_deg_bound, n_bound):
    """(verify_lemma5, verify_lemma6) results from factoring every
    sigma(P^(2n)) for the Rabin-tested primes P of degree <= p_deg_bound
    and 1 <= n <= n_bound, squarefree or not."""
    lemma5, lemma6 = [], []
    for p in irreducibles_rabin(p_deg_bound):
        s = 1
        for n in range(1, n_bound + 1):
            s = mul(p, mul(p, s) ^ 1) ^ 1  # sigma(P^(2n)) by Horner's rule
            factors = factorize_ddf_edf(s)
            g = math.gcd(*(e for _, e in factors))
            if g >= 2:
                root = product_of_powers((q, e // g) for q, e in factors)
                lemma5.append({'p': p, 'n': n, 'root': root, 'power': g})
            for q, e in factors:
                for m in range(2, e + 1):
                    if degree(p) <= (m - 1 if m % 2 else m) * degree(q):
                        lemma6.append({'p': p, 'n': n, 'q': q, 'm': m})
    return lemma5, lemma6


def lemma4_scan(h_bound, k_bound):
    """verify_lemma4 by trial division: for each h and each k with
    deg sigma((x+1)^(2k)) < 2h, divide sigma(x^(2h)) by sigma((x+1)^(2k))
    and keep the exact quotients where both P and Q pass Rabin's test.
    No bound is capped."""
    out = []
    for h in range(1, h_bound + 1):
        a = (1 << (2 * h + 1)) - 1
        for k in range(1, min(k_bound, h - 1) + 1):
            p = translate((1 << (2 * k + 1)) - 1)
            q, r = divrem(a, p)
            if r == 0 and is_irreducible_rabin(p) and is_irreducible_rabin(q):
                out.append((h, k, p, q))
    return out
