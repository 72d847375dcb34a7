"""Exact arithmetic on univariate polynomials over GF(2).

A polynomial is represented as a plain nonnegative int: bit i is the
coefficient of x^i.  The polynomial b_n x^n + ... + b_1 x + b_0 is the
integer b_n 2^n + ... + b_1 2 + b_0.  There are no wrapper objects; the
zero polynomial is 0 and the constant 1 is 1.  Ints are immutable, so
every operation here is a pure function and safe to share across threads.

Addition is xor.  degree(0) is the sentinel -1 (distinct from the
degree-0 constant 1).  All nonzero polynomials over GF(2) are monic.

mul, divrem, gcd, translate and pow_ raise ValueError for a negative
int, with one check per call outside their loops; rem and divexact
raise through divrem.  square, degree, derivative, sqrt, reverse,
to_text and to_hex assume ints >= 0 and do not check.

Two textual forms round-trip bit-exactly:

- sum form, descending: "x^4+x+1"
- hex form, the coefficient bitmask: "0x13"

The parser also accepts products with '^', '*' and parentheses
(adjacency multiplies), so factored shapes such as
"x^6(x+1)^3(x^3+x^2+1)(x^3+x+1)" paste in directly.
"""

X = 2  # the polynomial x
X1 = 3  # the polynomial x+1


def degree(p):
    """Degree of p; -1 for the zero polynomial."""
    return p.bit_length() - 1


def mul(p, q):
    """Carryless (GF(2)) product of p and q."""
    if p < q:
        p, q = q, p
    if q < 0:
        raise ValueError(f'expected a polynomial, an int >= 0: {q}')
    # shift-and-xor over the bits of the smaller operand
    r = 0
    while q:
        if q & 1:
            r ^= p
        p <<= 1
        q >>= 1
    return r


def square(p):
    """p**2 via the Frobenius map: spread the bits apart."""
    return int('0'.join(format(p, 'b')), 2)


def divrem(p, d):
    """Quotient and remainder of p by d, with degree(r) < degree(d)."""
    if d == 0:
        raise ZeroDivisionError('division by zero polynomial')
    if p < 0 or d < 0:
        raise ValueError(f'expected polynomials, ints >= 0: {p}, {d}')
    n = d.bit_length()
    q = 0
    s = p.bit_length() - n
    while s >= 0:  # each pass clears the leading term of p
        p ^= d << s
        q |= 1 << s
        s = p.bit_length() - n
    return q, p


def divexact(p, d):
    """Quotient p // d, requiring the division to be exact."""
    q, r = divrem(p, d)
    if r:
        raise ValueError('division is not exact')
    return q


def rem(p, d):
    """Remainder of p modulo d."""
    return divrem(p, d)[1]


def gcd(p, q):
    """Greatest common divisor; monic like every nonzero GF(2) poly."""
    if p < 0 or q < 0:
        raise ValueError(f'expected polynomials, ints >= 0: {p}, {q}')
    if p == 0 and q == 0:
        raise ValueError('gcd(0, 0) is undefined')
    # Euclid with rem inlined: the per-step call dominates at these degrees
    while q:
        n = q.bit_length()
        s = p.bit_length() - n
        while s >= 0:
            p ^= q << s
            s = p.bit_length() - n
        p, q = q, p
    return p


def pow_(p, e):
    """p**e by repeated squaring; squarings use the Frobenius shortcut."""
    if p < 0:
        raise ValueError(f'expected a polynomial, an int >= 0: {p}')
    if e < 0:
        raise ValueError('negative exponent')
    r = 1
    while e:
        if e & 1:
            r = mul(r, p)
        p = square(p)
        e >>= 1
    return r


def translate(p):
    """Compose with x+1: return p(x+1).  An involution."""
    if p < 0:
        raise ValueError(f'expected a polynomial, an int >= 0: {p}')
    # p(x+1) = xor of (x+1)^i over the set bits i of p
    r = 0
    t = 1
    while p:
        if p & 1:
            r ^= t
        t ^= t << 1
        p >>= 1
    return r


def reverse(p):
    """Coefficient reversal x^deg(p) * p(1/x) of a nonzero p.

    An involution exactly on polynomials with nonzero constant term.
    """
    if p == 0:
        raise ValueError('reverse of the zero polynomial is undefined')
    return int(format(p, 'b')[::-1], 2)


def is_self_inverse(p):
    """True iff p equals its own coefficient reversal."""
    return p == reverse(p)


def _even_positions_mask(n):
    # 0b...0101 with bit 0 set; (4^k - 1)/3 needs an even bit width
    return ((1 << (n + (n & 1))) - 1) // 3


def derivative(p):
    """Formal derivative: in characteristic 2 only odd-degree terms survive."""
    return (p >> 1) & _even_positions_mask(p.bit_length())


def sqrt(p):
    """Square root of a perfect square: compact the even-index bits."""
    s = format(p, 'b')
    # bit 0 is the last character, so even bits share its index parity
    return int(s[(len(s) - 1) % 2::2], 2)


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f'{message} (at position {pos})')
        self.pos = pos


def to_text(p):
    """Render p as a descending sum of terms, e.g. "x^4+x+1"."""
    if p == 0:
        return '0'
    terms = []
    for i in range(degree(p), -1, -1):
        if (p >> i) & 1:
            terms.append('1' if i == 0 else 'x' if i == 1 else f'x^{i}')
    return '+'.join(terms)


def to_hex(p):
    """Render p as the hex coefficient bitmask, e.g. "0x13"."""
    return format(p, '#x')


# no parsed power, product or hex literal may exceed this degree: x^e
# builds an int of e bits, and factoring grows fast with the degree
MAX_PARSE_DEGREE = 4096
# the parser recurses four frames per '(', well inside Python's stack limit
MAX_PARSE_NESTING = 100


def parse(text):
    """Parse sum/product polynomial text, or a hex bitmask, into an int.

    Grammar: sums of products; a product is factors joined by '*' or by
    adjacency; a factor is '0', '1', 'x', a parenthesized sum, or a hex
    literal, optionally raised with '^' to a decimal exponent of ASCII
    digits.  Parentheses nest at most MAX_PARSE_NESTING deep, and no
    power, product or hex literal exceeds degree MAX_PARSE_DEGREE.
    """
    s = ''.join(text.split())
    if not s:
        raise PolyParseError('empty polynomial', 0)
    p, pos = _parse_sum(s, 0, 0)
    if pos != len(s):
        raise PolyParseError(f'unexpected {s[pos]!r}', pos)
    return p


def _parse_sum(s, pos, depth):
    p, pos = _parse_product(s, pos, depth)
    while pos < len(s) and s[pos] == '+':
        q, pos = _parse_product(s, pos + 1, depth)
        p ^= q
    return p, pos


def _parse_product(s, pos, depth):
    p, pos = _parse_power(s, pos, depth)
    while pos < len(s) and s[pos] in '*(x01':  # '*' or adjacency multiplies
        start = pos + (s[pos] == '*')
        q, pos = _parse_power(s, start, depth)
        p = mul(p, q)
        if degree(p) > MAX_PARSE_DEGREE:
            raise PolyParseError(
                f'product exceeds degree {MAX_PARSE_DEGREE}', start)
    return p, pos


def _parse_power(s, pos, depth):
    p, pos = _parse_atom(s, pos, depth)
    if pos < len(s) and s[pos] == '^':
        pos += 1
        start = pos
        # ASCII only: str.isdigit() also accepts '²' and Arabic-Indic digits
        while pos < len(s) and s[pos] in '0123456789':
            pos += 1
        if pos == start:
            raise PolyParseError('missing exponent after "^"', start)
        digits = s[start:pos].lstrip('0') or '0'
        # a constant base (0 or 1) needs no int(); otherwise the digit
        # count bounds the exponent before int() converts it
        if degree(p) <= 0:
            p = 1 if digits == '0' else p
        elif (len(digits) > len(str(MAX_PARSE_DEGREE)) or
              degree(p) * int(digits) > MAX_PARSE_DEGREE):
            raise PolyParseError(
                f'power exceeds degree {MAX_PARSE_DEGREE}', start)
        else:
            p = pow_(p, int(digits))
    return p, pos


def _parse_atom(s, pos, depth):
    if pos >= len(s):
        raise PolyParseError('unexpected end of input', pos)
    c = s[pos]
    if c == '(':
        if depth == MAX_PARSE_NESTING:
            raise PolyParseError(
                f'parentheses nested deeper than {MAX_PARSE_NESTING}', pos)
        p, pos = _parse_sum(s, pos + 1, depth + 1)
        if pos >= len(s) or s[pos] != ')':
            raise PolyParseError('unbalanced parenthesis', pos)
        return p, pos + 1
    if s.startswith('0x', pos) or s.startswith('0X', pos):
        start = pos + 2
        pos = start
        while pos < len(s) and s[pos] in '0123456789abcdefABCDEF':
            pos += 1
        if pos == start:
            raise PolyParseError('missing digits in hex literal', start)
        # the degree follows from the digits, before int() converts them
        digits = s[start:pos].lstrip('0') or '0'
        top = int(digits[0], 16).bit_length()
        if 4 * (len(digits) - 1) + top - 1 > MAX_PARSE_DEGREE:
            raise PolyParseError(
                f'hex literal exceeds degree {MAX_PARSE_DEGREE}', start)
        return int(digits, 16), pos
    if c == 'x':
        return X, pos + 1
    if c in '01':
        return int(c), pos + 1
    raise PolyParseError(f'unexpected {c!r}', pos)
