import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gf2perfect.gf2poly import (
    MAX_PARSE_DEGREE, MAX_PARSE_NESTING, PolyParseError, degree, derivative,
    divexact, divrem, gcd, is_self_inverse, mul, parse, pow_, rem, reverse,
    sqrt, square, to_hex, to_text, translate,
)
from oracles import (
    from_coeffs, list_divmod, list_gcd, list_mul, sqrt_bitloop, to_coeffs,
)

X = 0b10
X1 = 0b11


def random_poly(rng, max_deg):
    return rng.randrange(1 << (max_deg + 1))


def test_zero_polynomial_conventions():
    assert degree(0) == -1
    assert degree(1) == 0
    assert mul(0, 7) == 0
    assert pow_(0, 0) == 1
    assert pow_(0, 3) == 0


def test_add_characteristic_two():
    # addition is xor; the parser's '+' must agree
    assert parse('(x+1)+(x+1)') == 0
    assert parse('x^2+(x^2+x+1)') == X1
    assert parse('(x^3+x+1)+(x^3+x^2+1)') == 0b110  # by hand: x^2+x


def test_mul_examples():
    assert mul(X1, X1) == 0b101                      # Frobenius square
    assert mul(0b111, 0b1001001) == 0b111111111      # full nine-term product
    # frozen from the list-multiplication oracle
    assert mul(mul(X, X1), square(0b111)) == 0x7e
    assert mul(mul(X, X1), square(0b111)) == from_coeffs(
        list_mul(list_mul(to_coeffs(X), to_coeffs(X1)),
                 list_mul(to_coeffs(0b111), to_coeffs(0b111))))


def test_divrem_examples():
    assert divrem((1 << 9) | 1, X1) == (0b111111111, 0)
    assert divrem(0b100, 0b100) == (1, 0)
    assert divrem(0b1011, 0b111) == (X1, X)          # frozen from long division
    assert rem(0b1011, 0b111) == X
    for view in (divrem, rem, divexact):
        with pytest.raises(ZeroDivisionError):
            view(5, 0)


def test_gcd_examples():
    assert gcd(0b110, 0b1000) == X
    assert gcd(0b111, 0b10011) == 1                  # Euclid by hand
    big = mul(pow_(X, 6), pow_(X1, 3))
    assert gcd(big, 0b110) == 0b110
    with pytest.raises(ValueError):
        gcd(0, 0)
    assert gcd(0, 6) == 6


NEGATIVE_PROBE = '''
import sys
sys.path.insert(0, sys.argv[1])
from gf2perfect.gf2poly import divexact, divrem, gcd, mul, pow_, rem, translate
from gf2perfect.factor import is_irreducible
from gf2perfect.sigma import parity
try:
    r = eval(sys.argv[2])
except ValueError:
    pass
else:
    sys.exit(f'{sys.argv[2]} returned {r!r}')
'''


@pytest.mark.parametrize('call', [
    'mul(-3, 1)', 'mul(5, -3)', 'gcd(-3, 1)', 'gcd(7, -3)', 'divrem(-3, 1)',
    'divrem(7, -3)', 'rem(-3, 1)', 'rem(7, -3)', 'divexact(-3, 1)',
    'translate(-3)', 'pow_(-3, 2)', 'pow_(-3, 0)', 'parity(-3)',
    'is_irreducible(-3)', 'is_irreducible(-2)',
])
def test_negative_operands_raise(call):
    # a fresh interpreter with a timeout, so a kernel that loops forever
    # on a negative int fails here instead of hanging the suite
    src = Path(__file__).resolve().parents[1] / 'src'
    subprocess.run([sys.executable, '-c', NEGATIVE_PROBE, str(src), call],
                   capture_output=True, check=True, timeout=10)


def test_pow_examples():
    assert pow_(X1, 4) == 0b10001
    assert pow_(0b111, 2) == 0b10101
    assert pow_(0b110, 3) == 0x78                    # frozen from the oracle
    # the base is checked once at entry, so the message names the
    # caller's operand, not a square of it
    with pytest.raises(ValueError, match=r': -3$'):
        pow_(-3, 2)


def test_translate_examples():
    assert translate(X) == X1
    c4 = mul(mul(pow_(X, 6), pow_(X1, 3)), mul(0b1101, 0b1011))
    c5 = mul(mul(pow_(X, 3), pow_(X1, 6)),
             mul(translate(0b1101), translate(0b1011)))
    assert translate(c4) == c5


def test_reverse_examples():
    assert reverse(0b111) == 0b111
    assert reverse(0b1011) == 0b1101
    with pytest.raises(ValueError):
        reverse(0)


def test_is_self_inverse():
    assert is_self_inverse(0b111)
    assert is_self_inverse(0b11111)
    assert not is_self_inverse(0b1011)
    assert not is_self_inverse(X)


def test_parse_sum_and_hex_forms():
    assert parse('x^2+x+1') == 0b111
    assert parse(' x ^ 4 + x + 1 ') == 0b10011
    assert parse('0x13') == 0b10011
    assert parse('1') == 1
    assert parse('0') == 0
    assert to_text(0) == '0'
    assert to_text(0b10011) == 'x^4+x+1'
    assert to_hex(0b10011) == '0x13'


def test_parse_product_forms():
    assert parse('x^2*(x+1)*(x^2+x+1)^2*(x^4+x+1)') == \
        parse('x^2(x+1)(x^2+x+1)^2(x^4+x+1)')
    assert parse('x^6(x+1)^3(x^3+x^2+1)(x^3+x+1)') == \
        mul(mul(pow_(X, 6), pow_(X1, 3)), mul(0b1101, 0b1011))
    assert parse('(x+1)^2') == 0b101
    assert parse('0x7^2') == square(0b111)
    # a constant base takes any exponent without converting it
    assert parse('1^' + '9' * 5000 + 'x') == X
    assert parse('0^' + '9' * 5000 + '+x') == X
    assert parse('0^000') == 1
    # degree MAX_PARSE_DEGREE itself is in range, in every form
    assert parse('x^4096') == parse('x^4000*x^96') == \
        parse('0x1' + '0' * 1024) == parse('0x0' + '1' + '0' * 1024) == \
        1 << MAX_PARSE_DEGREE


@pytest.mark.parametrize('text,pos', [
    ('', 0),
    ('x^', 2),
    ('x+%', 2),
    ('(x+1', 4),
    ('x^2+', 4),
    ('0x', 2),
    ('x^99999999999', 2),
    ('(x^2)^2049', 6),
    ('x^4096x^4097', 8),
    ('x^4096x', 6),                   # a product, each factor in range
    ('x^4000*x^97', 7),
    ('(x^4000+1)(x^4000+1)', 10),
    pytest.param('0x2' + '0' * 1024, 2, id='hex-of-degree-4097'),
    pytest.param('0x' + 'f' * 5000, 2, id='hex-of-5000-digits'),
    ('x^\u00b2', 2),                  # superscript two
    ('x^\u0661\u0662', 2),            # Arabic-Indic 12
])
def test_parse_errors_report_position(text, pos):
    with pytest.raises(PolyParseError) as exc:
        parse(text)
    assert exc.value.pos == pos


def test_parse_nesting_limit():
    n = MAX_PARSE_NESTING
    assert parse('(' * n + 'x' + ')' * n) == X
    assert parse('(x)' * (10 * n)) == pow_(X, 10 * n)  # depth, not count
    with pytest.raises(PolyParseError) as exc:
        parse('x(' + '(' * n + 'x' + ')' * (n + 1))
    assert exc.value.pos == n + 1


# short texts over the grammar's own symbols, hex literals and a space
PARSE_TOKENS = list('x01()^+* 23456789abcdefABCDEF') + ['0x']


@given(st.lists(st.sampled_from(PARSE_TOKENS), max_size=16).map(''.join))
def test_parse_returns_int_or_reports_position(text):
    try:
        p = parse(text)
    except PolyParseError as exc:
        assert 0 <= exc.pos <= len(''.join(text.split()))
    else:
        assert isinstance(p, int)


def test_print_parse_round_trip():
    rng = random.Random(1)
    for _ in range(1000):
        p = random_poly(rng, 64)
        assert parse(to_text(p)) == p
        assert parse(to_hex(p)) == p


@given(st.integers(min_value=1, max_value=(1 << 200) - 1))
def test_parse_inverts_to_text_and_to_hex(p):
    assert parse(to_text(p)) == p
    assert parse(to_hex(p)) == p


def test_degree_is_additive():
    rng = random.Random(2)
    for _ in range(1000):
        p = random_poly(rng, 30) | 1 << 30
        q = random_poly(rng, 20) | 1 << 20
        assert degree(mul(p, q)) == degree(p) + degree(q)


def test_divrem_round_trip():
    rng = random.Random(3)
    for _ in range(1000):
        p = random_poly(rng, 40)
        d = 0
        while d == 0:
            d = random_poly(rng, 12)
        q, r = divrem(p, d)
        assert mul(q, d) ^ r == p
        assert degree(r) < degree(d)


def test_divrem_matches_long_division_oracle():
    rng = random.Random(4)
    for _ in range(300):
        p = random_poly(rng, 24)
        d = rng.randrange(1, 1 << 10)
        q, r = divrem(p, d)
        oq, orr = list_divmod(to_coeffs(p), to_coeffs(d))
        assert (q, r) == (from_coeffs(oq), from_coeffs(orr))


def test_reduction_matches_oracles_at_ddf_degrees():
    # dividends to degree 256 and divisors to 128: squares reduced
    # modulo the inputs of degree <= 128 that the certify path factors
    rng = random.Random(11)
    for _ in range(150):
        p = random_poly(rng, rng.randrange(257))
        d = rng.randrange(1, 1 << (rng.randrange(129) + 1))
        oq, orr = list_divmod(to_coeffs(p), to_coeffs(d))
        assert divrem(p, d) == (from_coeffs(oq), from_coeffs(orr))
        assert rem(p, d) == from_coeffs(orr)


def test_gcd_matches_list_euclid():
    rng = random.Random(12)
    for _ in range(100):
        c = random_poly(rng, rng.randrange(64))  # a common factor, often
        p = mul(c, random_poly(rng, rng.randrange(65)))
        q = mul(c, random_poly(rng, rng.randrange(65)))
        if p == 0 and q == 0:
            continue
        assert gcd(p, q) == from_coeffs(list_gcd(to_coeffs(p), to_coeffs(q)))


def test_square_and_sqrt_match_oracles():
    rng = random.Random(13)
    for _ in range(300):
        q = random_poly(rng, rng.randrange(129))
        sq = square(q)
        assert sq == from_coeffs(list_mul(to_coeffs(q), to_coeffs(q)))
        assert sqrt(sq) == q
        p = random_poly(rng, rng.randrange(257))  # a square only by chance
        assert sqrt(p) == sqrt_bitloop(p)
    for p in range(64):
        assert sqrt(p) == sqrt_bitloop(p)
        assert square(p) == from_coeffs(list_mul(to_coeffs(p), to_coeffs(p)))


def test_mul_matches_schoolbook_oracle():
    rng = random.Random(5)
    for _ in range(300):
        p = random_poly(rng, 24)
        q = random_poly(rng, 24)
        assert mul(p, q) == from_coeffs(list_mul(to_coeffs(p), to_coeffs(q)))


def test_frobenius_square_spreads_bits():
    rng = random.Random(6)
    for _ in range(1000):
        p = random_poly(rng, 32)
        sq = pow_(p, 2)
        assert sq == square(p)
        for i in range(p.bit_length()):
            assert (sq >> (2 * i)) & 1 == (p >> i) & 1
        for i in range(1, sq.bit_length(), 2):
            assert (sq >> i) & 1 == 0


def test_translate_is_involution():
    rng = random.Random(7)
    for _ in range(1000):
        p = random_poly(rng, 48)
        assert translate(translate(p)) == p


def test_translate_distributes_over_products():
    rng = random.Random(21)
    for _ in range(1000):
        p = random_poly(rng, 24)
        q = random_poly(rng, 24)
        assert translate(mul(p, q)) == mul(translate(p), translate(q))


def test_reverse_involution_and_multiplicativity():
    rng = random.Random(8)
    for _ in range(1000):
        p = random_poly(rng, 32) | 1  # nonzero constant term
        assert reverse(reverse(p)) == p
    for _ in range(300):
        p = random_poly(rng, 20) | 1
        q = random_poly(rng, 20) | 1
        assert reverse(mul(p, q)) == mul(reverse(p), reverse(q))


def test_gcd_divides_both_inputs():
    rng = random.Random(9)
    for _ in range(1000):
        p = random_poly(rng, 24)
        q = random_poly(rng, 24)
        if p == 0 and q == 0:
            continue
        g = gcd(p, q)
        for v in (p, q):
            if v:
                assert divrem(v, g)[1] == 0


def test_square_detection_and_sqrt():
    rng = random.Random(10)
    for _ in range(500):
        q = random_poly(rng, 16)
        # a square iff p' = 0, since (p^2)' = 2 p p' = 0 in characteristic 2
        assert derivative(square(q)) == 0
        assert sqrt(square(q)) == q
    assert derivative(0b110) != 0
    assert derivative(square(random_poly(rng, 16))) == 0


def test_derivative_drops_even_terms():
    assert derivative(0b110) == 1          # (x^2+x)' = 1
    assert derivative(0b1011) == 0b101     # (x^3+x+1)' = x^2+1
    assert derivative(1) == 0
