import random

import pytest

import gf2perfect.perfect as perfect_module
from gf2perfect.canaday import (
    verify_lemma4, verify_minimal_prime_parity, verify_theorem8,
)
from gf2perfect.factor import factorize, irreducibles_up_to
from gf2perfect.gf2poly import (
    X, X1, degree, derivative, divexact, mul, parse, pow_, square, translate,
)
from gf2perfect.perfect import (
    C1, C2, C3, C4, C5, S1, T1, T2, _closure, _hit_record, _sigma_primes,
    exhaustive_search, is_perfect, odd_square_search, shape_search,
    trivial_perfect,
)
from gf2perfect.sigma import Parity, sigma, sigma_prime_power
from oracles import (
    odd_square_search_factoring, product_of_powers, shape_search_grid,
    shape_search_pinned,
)


@pytest.mark.parametrize('call, args, message', [
    (verify_lemma4, (0, 1), 'bounds must be >= 1'),
    (verify_lemma4, (1, 0), 'bounds must be >= 1'),
    (verify_theorem8, (2,), 'h_bound must be >= 3'),
    (irreducibles_up_to, (0,), 'degree bound must be >= 1'),
    (trivial_perfect, (0,), 'n must be >= 1'),
    (divexact, (0b100, 0b11), 'division is not exact'),
    (pow_, (X, -1), 'negative exponent'),
])
def test_input_checks_raise_value_error(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_named_catalog_entries():
    assert C1 == parse('x^2(x+1)(x^2+x+1)^2(x^4+x+1)')
    assert C3 == parse('x^4(x+1)^4(x^4+x^3+x^2+x+1)(x^4+x^3+1)')
    assert C4 == parse('x^6(x+1)^3(x^3+x^2+1)(x^3+x+1)')
    assert T2 == parse('x^3(x+1)^4(x^4+x^3+1)')
    assert S1 == parse('x^6(x+1)^4(x^3+x+1)(x^3+x^2+1)(x^4+x^3+1)')
    assert translate(C3) == C3
    assert (degree(C1), degree(C3), degree(C4), degree(S1)) == (11, 16, 15, 20)


def test_is_perfect_examples():
    assert is_perfect(C2).is_perfect
    assert is_perfect(C3).is_perfect
    cert = is_perfect(0b1000)
    assert not cert.is_perfect
    assert sigma(0b1000) == pow_(0b11, 3)
    for a in (0, -1, -3):
        with pytest.raises(ValueError):
            is_perfect(a)


def test_certificate_fields():
    cert = is_perfect(C1)
    assert cert.poly == C1
    assert cert.omega == 4
    assert cert.parity is Parity.EVEN
    assert product_of_powers(cert.factorization) == C1
    d = cert.to_dict()
    assert d['perfect'] and d['omega'] == 4 and d['degree'] == 11
    assert d['poly_hex'] == hex(C1)


def test_catalog_contents(catalog_certs):
    assert len(catalog_certs) == 16
    assert all(c.is_perfect for c in catalog_certs)
    assert all(c.parity is Parity.EVEN for c in catalog_certs)
    polys = [c.poly for c in catalog_certs]
    assert polys == sorted(polys)
    assert trivial_perfect(3) in polys                      # (x^2+x)^7, deg 14
    assert T2 in polys and translate(T2) in polys
    assert S1 in polys and degree(S1) == 20
    assert {C1, C2, C3, C4, C5} <= set(polys)
    assert [c.omega for c in catalog_certs].count(5) == 2   # the S1 pair


def test_catalog_minimal_prime_parity(catalog_certs):
    for c in catalog_certs:
        assert verify_minimal_prime_parity(c.poly)


def test_exhaustive_search_small_bounds():
    assert exhaustive_search(1).found_polys() == []
    r = exhaustive_search(7)
    assert r.found_polys() == sorted(
        [trivial_perfect(1), T1, translate(T1), trivial_perfect(2)])
    assert r.candidates_examined == (1 << 8) - 2
    with pytest.raises(ValueError):
        exhaustive_search(0)
    with pytest.raises(ValueError):
        exhaustive_search(25)  # rejected before any allocation


def test_exhaustive_search_monotone():
    small = set(exhaustive_search(8).found_polys())
    large = set(exhaustive_search(11).found_polys())
    assert small <= large


def test_exhaustive_search_matches_catalog(exhaustive20, catalog_certs):
    found = exhaustive20.found_polys()
    expected = sorted(c.poly for c in catalog_certs if degree(c.poly) <= 20)
    assert found == expected
    assert len(found) == 14
    assert all(c.is_perfect for c in exhaustive20.perfects_found)


def test_no_perfects_of_degree_21_to_22(exhaustive20):
    r = exhaustive_search(22)
    assert r.found_polys() == exhaustive20.found_polys()
    assert len(r.found_polys()) == 14
    assert r.candidates_examined == (1 << 23) - 2


def test_found_perfects_closed_under_translation(exhaustive20):
    found = set(exhaustive20.found_polys())
    for a in found:
        assert translate(a) in found
    for a in found:
        assert verify_minimal_prime_parity(a)


def test_shape_search_finds_the_five(shape40):
    assert shape40.found_polys() == sorted([C1, C2, C3, C4, C5])
    assert all(c.omega == 4 for c in shape40.perfects_found)
    assert all(c.parity is Parity.EVEN for c in shape40.perfects_found)
    assert all(verify_minimal_prime_parity(a) for a in shape40.found_polys())
    tags = {record['case_tag'] for record in shape40.found_shapes}
    assert tags == {'b', 'c', 'd'}


def test_shape_search_small_config_contains_c1_c2():
    r = shape_search(11, 4)
    assert set(r.found_polys()) == {C1, C2}


def test_shape_search_agrees_with_exhaustive_omega4(exhaustive20, shape40):
    # the two strategies must agree on four-prime even perfects in range
    from_exhaustive = [c.poly for c in exhaustive20.perfects_found
                       if c.omega == 4]
    assert from_exhaustive == [c.poly for c in shape40.perfects_found]


def test_pruning_is_sound(shape24_pruned, shape24_unpruned):
    assert shape24_pruned.found_polys() == shape24_unpruned.found_polys()
    assert shape24_pruned.candidates_examined < \
        shape24_unpruned.candidates_examined
    assert shape24_unpruned.shapes_pruned == {}
    assert sum(shape24_pruned.shapes_pruned.values()) > 0
    for bound, pbound in ((12, 4), (16, 4)):
        a = shape_search(bound, pbound, use_pruning=True)
        b = shape_search(bound, pbound, use_pruning=False)
        assert a.found_polys() == b.found_polys()


def test_shape_search_beyond_benchmark_bounds():
    r = shape_search(56, 10)
    assert r.found_polys() == sorted([C1, C2, C3, C4, C5])
    assert all(c.is_perfect and c.omega == 4 for c in r.perfects_found)


def test_shape_search_to_degree_120():
    r = shape_search(120, 10)
    assert r.found_polys() == sorted([C1, C2, C3, C4, C5])
    assert all(c.is_perfect and c.omega == 4 for c in r.perfects_found)


@pytest.mark.parametrize('bound, pbound, pruned, examined', [
    (60, 20, {'lemma10': 33408, 'lemma11': 1398205436}, 3868),
    (120, 12, {'lemma10': 50204733, 'lemma11': 4692183998}, 15005),
    (300, 20, {'lemma10': 49464548337563, 'lemma11': 1701259872432121},
     87135),
    (400, 20, {'lemma10': 362332835226625, 'lemma11': 6392610030440236},
     145437),
])
def test_shape_search_counts_at_large_prime_bounds(bound, pbound, pruned,
                                                   examined):
    # at 60/20 and 120/12, the figures the tally gave when it counted a
    # list of the primes; it now takes the counts from
    # sum_{e | d} e N(e) = 2^d.  300/20 was the CLI cap, and its state
    # count is the one the engine gave before its checks were incremental;
    # 400/20 is the first bound above that old cap
    r = shape_search(bound, pbound)
    assert r.shapes_pruned == pruned
    assert r.candidates_examined == examined
    assert r.found_polys() == sorted([C1, C2, C3, C4, C5])


def _trailing_zeros(p):
    return (p & -p).bit_length() - 1


def test_valuation_pin_identities():
    # v_{x+1}(sigma(x^n)) = v_x(sigma((x+1)^n)) = 2^{v_2(n+1)} - 1
    for n in range(128):
        expected = (1 << _trailing_zeros(n + 1)) - 1
        assert _trailing_zeros(translate(sigma_prime_power(X, n))) == expected
        assert _trailing_zeros(sigma_prime_power(X1, n)) == expected


def _oracle_report(oracle, bound, pbound, use_pruning):
    """found_polys, found_shapes and shapes_pruned from an oracle's hits."""
    _, pruned, hits = oracle(bound, pbound, use_pruning)
    hits = sorted(hits)
    return ([poly for poly, *_ in hits],
            [_hit_record(h, k, p, l, q, m) for _, h, k, l, m, p, q in hits],
            pruned if use_pruning else {})


@pytest.mark.parametrize('bound, pbound, oracle', [
    (24, 6, shape_search_grid), (16, 4, shape_search_grid),
    (12, 4, shape_search_grid), (24, 6, shape_search_pinned),
    (16, 4, shape_search_pinned), (12, 4, shape_search_pinned),
    (16, 3, shape_search_pinned), (40, 8, shape_search_pinned),
])
@pytest.mark.parametrize('use_pruning', [True, False])
def test_shape_search_matches_oracles(bound, pbound, oracle, use_pruning):
    r = shape_search(bound, pbound, use_pruning)
    got = r.found_polys(), r.found_shapes, r.shapes_pruned
    assert got == _oracle_report(oracle, bound, pbound, use_pruning)


def test_closure_from_x_finds_every_perfect_to_degree_20(exhaustive20):
    # the engine alone, with no cap on the primes: the closed states
    # seeded from x^h are exactly the perfect polynomials of degree <= 20
    states, closed = _closure(({X: h} for h in range(1, 21)), 20, 20, 20)
    polys = sorted(product_of_powers(dec.items()) for dec in closed)
    assert polys == exhaustive20.found_polys()
    assert all(sigma(a) == a for a in polys)
    assert states > len(closed)


def test_closure_from_x_state_count_to_degree_60(catalog_certs):
    # no cap on the primes or omega: the state count the engine gave
    # before its checks were incremental, and the catalog entries of
    # degree <= 60
    states, closed = _closure(({X: h} for h in range(1, 61)), 60, 60, 60)
    assert states == 20199
    polys = sorted(product_of_powers(dec.items()) for dec in closed)
    assert polys == [c.poly for c in catalog_certs if degree(c.poly) <= 60]


def test_sigma_primes_matches_factoring_whole():
    # the translation and splitting identities against factoring each
    # sigma(p^e) directly, for x, x+1 and the 21 odd primes of degree
    # <= 6; from an empty cache, so every identity runs
    _sigma_primes.cache_clear()
    pairs = [(p, e) for p in irreducibles_up_to(6) for e in range(1, 41)]
    assert len(pairs) == 920
    for p, e in pairs:
        assert _sigma_primes(p, e) == factorize(sigma_prime_power(p, e))


@pytest.mark.parametrize('n', [12, 16])
def test_closure_from_every_least_prime_finds_every_perfect(n):
    # every prime of degree <= n as the least prime, at every exponent,
    # with no cap on the primes: only the seeds at x close, so the
    # least-prime prune and the even steps from odd primes run too
    seeds = ({p: e} for p in irreducibles_up_to(n)
             for e in range(1, n // degree(p) + 1))
    _, closed = _closure(seeds, n, n, n)
    assert all(min(dec) == X for dec in closed)
    polys = sorted(product_of_powers(dec.items()) for dec in closed)
    assert polys == exhaustive_search(n).found_polys()


def test_even_power_sigma_is_never_a_square():
    # the lemma that lets shape_search seed from x and x+1 alone:
    # (sigma(P^l))' = P' sigma(P^(l/2-1))^2 is nonzero for even l
    for p in irreducibles_up_to(8)[2:]:
        for l in range(2, 31, 2):
            s = sigma_prime_power(p, l)
            assert derivative(s) == mul(
                derivative(p), square(sigma_prime_power(p, l // 2 - 1)))
            assert derivative(s) != 0  # so s is not a square


def test_shape_search_bad_bounds():
    with pytest.raises(ValueError):
        shape_search(0, 4)
    with pytest.raises(ValueError):
        shape_search(10, 0)


def test_hit_record_tags_and_orientation():
    p, q = 0b111, 0b1011

    def tag_and_slots(*hit):
        r = _hit_record(*hit)
        return r['case_tag'], r['l'], r['m'], r['p_hex'], r['q_hex']

    assert tag_and_slots(3, 5, p, 2, q, 4) == ('a', 2, 4, '0x7', '0xb')
    assert tag_and_slots(3, 5, p, 4, q, 2) == ('a', 4, 2, '0x7', '0xb')
    # tag b: the power of two takes the l slot, swapping when needed
    assert tag_and_slots(1, 2, p, 2, q, 1) == ('b', 2, 1, '0x7', '0xb')
    assert tag_and_slots(1, 2, p, 1, q, 2) == ('b', 2, 1, '0xb', '0x7')
    # tags c, d, e: the Mersenne exponent takes the m slot
    assert tag_and_slots(4, 4, p, 1, q, 1) == ('c', 1, 1, '0x7', '0xb')
    assert tag_and_slots(6, 3, p, 5, q, 3) == ('d', 5, 3, '0x7', '0xb')
    assert tag_and_slots(1, 1, p, 7, q, 5) == ('e', 5, 7, '0xb', '0x7')
    assert _hit_record(1, 1, p, 3, q, 7) == {
        'case_tag': 'e', 'h': 1, 'k': 1, 'l': 3, 'm': 7,
        'p_hex': '0x7', 'q_hex': '0xb'}
    with pytest.raises(ValueError, match='lemma11'):
        _hit_record(1, 1, p, 6, q, 5)   # 6 is not a power of two
    with pytest.raises(ValueError, match='lemma10'):
        _hit_record(1, 1, p, 5, q, 5)   # neither 5 is Mersenne


def test_odd_square_search_empty_and_rejections():
    assert odd_square_search(4).found_polys() == []
    r = odd_square_search(12)
    assert r.found_polys() == []
    assert r.candidates_examined > 0
    # sigma((x^2+x+1)^2) = x^4+x+1 differs from the square itself
    assert sigma(square(0b111)) == 0b10011
    with pytest.raises(ValueError):
        odd_square_search(7)


def test_odd_square_search_matches_factoring_oracle():
    for max_deg in range(2, 29, 2):
        report = odd_square_search(max_deg)
        oracle = odd_square_search_factoring(max_deg)
        assert report.found_polys() == oracle.found_polys()
        # the table examines every B != 1 coprime to x, the oracle only
        # the squarefree ones coprime to x^2+x
        assert report.candidates_examined == (1 << max_deg // 2) - 1
        assert oracle.candidates_examined <= report.candidates_examined


def test_odd_square_search_reports_each_closed_state(monkeypatch):
    # no odd perfect polynomial is in range, so plant two closed states;
    # each is folded to its polynomial, certified and reported ascending
    p, q = 0b111, 0b1011
    planted = [{p: 2, q: 2}, {q: 2}]
    monkeypatch.setattr(perfect_module, '_closure', lambda *a: (1, planted))
    report = odd_square_search(8)
    assert report.found_polys() == [square(q), square(mul(p, q))]
    assert not any(c.is_perfect for c in report.perfects_found)
    assert report.candidates_examined == 15


def test_odd_square_search_prunes_below_the_least_prime(monkeypatch):
    # at 48 the closure tries 98 moves: the 53 seeds and 45 children;
    # the least-prime rule kills 47 of them, 33 seeds and 14 children
    runs = []

    def spy(*args):
        runs.append(_closure(*args))
        return runs[-1]

    monkeypatch.setattr(perfect_module, '_closure', spy)
    odd_square_search(48)
    assert runs == [(98, [])]


@pytest.mark.parametrize('max_deg', range(2, 73, 2))
def test_odd_square_search_drops_only_dead_seeds(max_deg):
    # the seeds of deg P <= N/6 and e deg P <= N, less those of
    # deg P <= N/8 and 2e deg P <= N that the search keeps, close on
    # nothing when run alone; those with 2e deg P > N (cut E) are
    # skipped by least prime or pruned at entry, while a P^2 of
    # N/8 < deg P <= N/6 (cut 8) may enter a few children first
    def seeds(p_div, e_div):
        primes = irreducibles_up_to(max(max_deg // p_div, 1))[2:]
        return {(p, e) for p in primes
                for e in range(2, max_deg // (e_div * degree(p)) + 1, 2)}

    for p, e in seeds(6, 1) - seeds(8, 2):
        states, closed = _closure([{p: e}], max_deg, max_deg, max_deg)
        assert closed == []
        if 2 * e * degree(p) > max_deg:
            assert states <= 1


def test_sigma_of_a_prime_squared_is_squarefree_over_high_primes():
    # the squarefree step of odd_square_search's cut to deg P <= N/8:
    # sigma(P^2) of an odd prime P is squarefree when all of its primes
    # have degree >= deg P, and only then is it sure to be
    kept = repeated = 0
    for p in irreducibles_up_to(12)[2:]:
        fac = factorize(sigma_prime_power(p, 2))
        if all(degree(q) >= degree(p) for q, _ in fac):
            assert all(e == 1 for _, e in fac)
            kept += 1
        repeated += any(e >= 2 for _, e in fac)
    assert kept and repeated


def test_odd_square_search_degree_40():
    report = odd_square_search(40)
    assert report.found_polys() == []
    assert report.candidates_examined == (1 << 20) - 1


def test_report_serialization(shape24_pruned):
    d = shape24_pruned.to_dict()
    assert d['kind'] == 'shape'
    assert d['config'] == {'deg_bound': 24, 'p_deg_bound': 6,
                           'use_pruning': True}
    assert d['perfects_found'] == len(d['certificates'])
    for entry in d['certificates']:
        assert {'poly_hex', 'poly_text', 'factors', 'perfect'} <= entry.keys()
    assert [c['poly_hex'] for c in d['certificates']] == \
        [hex(a) for a in shape24_pruned.found_polys()]


def test_symmetry_pairs(shape40):
    pairs = shape40.symmetry_pairs()
    assert (min(C1, C2), max(C1, C2)) in pairs
    assert (C3, C3) in pairs
    assert (min(C4, C5), max(C4, C5)) in pairs


def test_random_nonperfects_certify_false():
    rng = random.Random(19)
    known = set(a for a in exhaustive_search(10).found_polys())
    for _ in range(200):
        a = rng.randrange(2, 1 << 11)
        assert is_perfect(a).is_perfect == (a in known)
