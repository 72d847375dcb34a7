"""Command-line front end.

Subcommands cover arithmetic (factor, sigma), certification (certify,
catalog), the searches (search, shape-search, odd-square-search) and
the lemma verifiers (verify-lemma).  Output is either human-readable
text or a JSON document; identical arguments produce byte-identical
JSON.  Searches always print one deterministic summary line first.

Exit codes: 0 on success, 1 when a verifier found a violation, 2 on
usage errors (bad bounds, malformed polynomials).
"""

import argparse
import json
import sys

from . import canaday, perfect
from .factor import factorize, irreducible_counts, irreducibles_up_to
from .gf2poly import PolyParseError, degree, parse, to_hex, to_text
from .sigma import sigma


def _emit(payload, ns):
    if ns.format == 'json':
        print(json.dumps(payload, sort_keys=True))


def _cmd_factor(ns):
    fac = factorize(ns.poly)
    if ns.format == 'text':
        parts = [f'({to_text(q)})' + (f'^{e}' if e > 1 else '')
                 for q, e in fac]
        print(f'{to_text(ns.poly)} = ' + ' '.join(parts))
    _emit(fac.to_dict(), ns)
    return 0


def _cmd_sigma(ns):
    s = sigma(ns.poly)
    if ns.format == 'text':
        print(to_text(s))
    _emit({'input_hex': to_hex(ns.poly), 'input_text': to_text(ns.poly),
           'sigma_hex': to_hex(s), 'sigma_text': to_text(s)}, ns)
    return 0


def _cmd_certify(ns):
    cert = perfect.is_perfect(ns.poly)
    if ns.format == 'text':
        verdict = 'perfect' if cert.is_perfect else 'not perfect'
        print(f'{to_text(ns.poly)}: {verdict} '
              f'(omega={cert.omega}, parity={cert.parity.value})')
    _emit(cert.to_dict(), ns)
    return 0


def _cmd_catalog(ns):
    certs = perfect.catalog()
    if ns.format == 'text':
        for c in certs:
            print(f'deg {degree(c.poly):3d}  omega {c.omega}  '
                  f'{to_text(c.poly)}')
    _emit({'count': len(certs), 'certificates': [c.to_dict() for c in certs]},
          ns)
    return 0


def _emit_report(report, ns):
    found = ','.join(to_hex(a) for a in report.found_polys()) or '-'
    pruned = sum(report.shapes_pruned.values())
    print(f'# {report.kind} degree_bound={report.degree_bound} '
          f'examined={report.candidates_examined} pruned={pruned} '
          f'found={len(report.perfects_found)} polys={found}')
    if ns.format == 'json':
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        for c in report.perfects_found:
            print(f'deg {degree(c.poly):3d}  omega {c.omega}  '
                  f'{to_text(c.poly)}')
    return 0


def _cmd_irreducibles(ns):
    polys = irreducibles_up_to(ns.max_deg)
    # every degree has a prime, so the keys are 1..max_deg
    counts = irreducible_counts(ns.max_deg)
    if ns.format == 'text':
        for p in polys:
            print(to_text(p))
    _emit({'max_deg': ns.max_deg, 'count': len(polys),
           'counts_by_degree': {str(d): n for d, n in counts.items()},
           'polys_hex': [to_hex(p) for p in polys]}, ns)
    return 0


def _cmd_verify_lemma(ns):
    if ns.lemma == 'parity':
        if ns.poly is None:
            print('error: verify-lemma parity requires a polynomial argument',
                  file=sys.stderr)
            return 2
        cert = perfect.is_perfect(ns.poly)
        even = canaday.verify_minimal_prime_parity(ns.poly)
        ok = cert.is_perfect and even
        record = {'lemma': 'parity', 'poly_hex': to_hex(ns.poly),
                  'perfect': cert.is_perfect,
                  'minimal_prime_count_even': even, 'ok': ok}
    else:
        lemma = canaday.LEMMAS[ns.lemma]
        bounds = {name: default if getattr(ns, name) is None
                  else getattr(ns, name)
                  for name, default in lemma.defaults.items()}
        result = lemma.verify(**bounds)
        record = {'lemma': ns.lemma, 'bounds': bounds}
        if lemma.expected is None:
            ok = not result
            record['violations'] = lemma.encode(result)
        else:
            expected = lemma.expected(**bounds)
            ok = result == expected
            record['result'] = lemma.encode(result)
            record['expected'] = (lemma.encode_expected
                                  or lemma.encode)(expected)
        record['ok'] = ok
    if ns.format == 'text':
        print(f'lemma {ns.lemma}: ' + ('ok' if ok else 'VIOLATION'))
    _emit(record, ns)
    return 0 if ok else 1


def _add_global_options(p, top_level):
    # real defaults at the top level; SUPPRESS on subparsers so a flag
    # given before the subcommand is not clobbered afterwards
    def default(value):
        return value if top_level else argparse.SUPPRESS

    p.add_argument('--format', choices=('text', 'json'),
                   default=default('text'),
                   help='output format (default: text)')
    p.add_argument('--seed', type=int, default=default(None),
                   help='accepted for compatibility; has no effect, since '
                        'factorization is deterministic')


def build_parser():
    ap = argparse.ArgumentParser(
        prog='gf2perfect',
        description='Sum-of-divisors arithmetic and perfect-polynomial '
                    'searches over GF(2)[x].')
    _add_global_options(ap, top_level=True)
    sub = ap.add_subparsers(dest='subcommand', required=True)

    def add_parser(name, handler):
        p = sub.add_parser(name)
        _add_global_options(p, top_level=False)
        p.set_defaults(handler=handler)
        return p

    for name, handler in (('factor', _cmd_factor), ('sigma', _cmd_sigma),
                          ('certify', _cmd_certify)):
        p = add_parser(name, handler)
        p.add_argument('poly', help='polynomial, e.g. "x^2(x+1)" or "0x13"')

    add_parser('catalog', _cmd_catalog)

    p = add_parser('search', lambda ns: _emit_report(
        perfect.exhaustive_search(ns.max_deg), ns))
    p.add_argument('--max-deg', type=int, required=True)

    p = add_parser('shape-search', lambda ns: _emit_report(
        perfect.shape_search(ns.deg_bound, ns.p_deg_bound,
                             use_pruning=not ns.no_prune), ns))
    p.add_argument('--deg-bound', type=int, required=True)
    p.add_argument('--p-deg-bound', type=int, required=True)
    p.add_argument('--no-prune', action='store_true')

    p = add_parser('odd-square-search', lambda ns: _emit_report(
        perfect.odd_square_search(ns.max_deg), ns))
    p.add_argument('--max-deg', type=int, required=True)

    p = add_parser('irreducibles', _cmd_irreducibles)
    p.add_argument('--max-deg', type=int, required=True)

    p = add_parser('verify-lemma', _cmd_verify_lemma)
    p.add_argument('lemma', choices=(*canaday.LEMMAS, 'parity'))
    p.add_argument('poly', nargs='?',
                   help='perfect polynomial to check (parity only)')
    bounds = dict.fromkeys(name for lemma in canaday.LEMMAS.values()
                           for name in lemma.defaults)
    for name in bounds:
        p.add_argument('--' + name.replace('_', '-'), type=int)
    return ap


def run(argv):
    """Execute one invocation; returns the process exit code."""
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage error
        return exc.code
    try:
        if getattr(ns, 'poly', None) is not None:
            ns.poly = parse(ns.poly)
            if ns.poly == 0:
                raise PolyParseError('polynomial argument must be nonzero', 0)
        return ns.handler(ns)
    except ValueError as exc:  # malformed polynomials, out-of-range bounds
        print(f'error: {exc}', file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == '__main__':
    main()
