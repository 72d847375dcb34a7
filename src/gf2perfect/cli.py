"""Command-line front end.

Subcommands cover arithmetic (factor, sigma), certification (certify,
catalog), the searches (search, shape-search, odd-square-search) and
the lemma verifiers (verify-lemma).  verify-lemma has one subcommand
per entry of canaday.LEMMAS, each taking only its own bound flags with
that lemma's defaults, plus `parity`, which takes a polynomial.  Output
is either human-readable text or a JSON document; identical arguments
produce byte-identical JSON.  Searches always print one deterministic
summary line first.

argparse picks the subcommand, and only then is its parser built
(under verify-lemma, only the named lemma's); help and usage text still
list every choice.  Nothing is built at import.

Exit codes: 0 on success, 1 when a verifier found a violation, 2 on
usage errors (bad bounds, malformed polynomials, a flag or argument the
chosen subcommand does not take).
"""

import argparse
import json
import signal
import sys

from . import canaday, perfect
from .factor import (
    factorize, factors_json, irreducible_counts, irreducibles_up_to,
)
from .gf2poly import PolyParseError, degree, parse, to_hex, to_text
from .sigma import sigma


def _emit(payload, ns, lines):
    """Print payload as one JSON document, or the text lines."""
    if ns.format == 'json':
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _cert_line(c):
    return f'deg {degree(c.poly):3d}  omega {c.omega}  {to_text(c.poly)}'


def _cmd_factor(ns):
    fac = factorize(ns.poly)
    parts = (f'({to_text(q)})' + (f'^{e}' if e > 1 else '') for q, e in fac)
    return _emit({'poly_hex': to_hex(ns.poly), 'factors': factors_json(fac)},
                 ns, [f'{to_text(ns.poly)} = ' + (' '.join(parts) or '1')])


def _cmd_sigma(ns):
    s = sigma(ns.poly)
    return _emit({'input_hex': to_hex(ns.poly), 'input_text': to_text(ns.poly),
                  'sigma_hex': to_hex(s), 'sigma_text': to_text(s)}, ns,
                 [to_text(s)])


def _cmd_certify(ns):
    cert = perfect.is_perfect(ns.poly)
    verdict = 'perfect' if cert.is_perfect else 'not perfect'
    return _emit(cert.to_dict(), ns,
                 [f'{to_text(ns.poly)}: {verdict} '
                  f'(omega={cert.omega}, parity={cert.parity.value})'])


def _cmd_catalog(ns):
    certs = perfect.catalog()
    return _emit({'count': len(certs),
                  'certificates': [c.to_dict() for c in certs]}, ns,
                 map(_cert_line, certs))


def _emit_report(report, ns):
    found = ','.join(to_hex(a) for a in report.found_polys()) or '-'
    pruned = sum(report.shapes_pruned.values())
    print(f'# {report.kind} degree_bound={report.degree_bound} '
          f'examined={report.candidates_examined} pruned={pruned} '
          f'found={len(report.perfects_found)} polys={found}')
    return _emit(report.to_dict(), ns, map(_cert_line, report.perfects_found))


def _cmd_irreducibles(ns):
    polys = irreducibles_up_to(ns.max_deg)
    # every degree has a prime, so the keys are 1..max_deg
    counts = irreducible_counts(ns.max_deg)
    return _emit({'max_deg': ns.max_deg, 'count': len(polys),
                  'counts_by_degree': {str(d): n for d, n in counts.items()},
                  'polys_hex': [to_hex(p) for p in polys]}, ns,
                 map(to_text, polys))


def _verdict(record, ns):
    ok = record['ok']
    _emit(record, ns,
          [f"lemma {record['lemma']}: " + ('ok' if ok else 'VIOLATION')])
    return 0 if ok else 1


def _cmd_parity(ns):
    cert = perfect.is_perfect(ns.poly)
    even = canaday.verify_minimal_prime_parity(ns.poly)
    return _verdict({'lemma': 'parity', 'poly_hex': to_hex(ns.poly),
                     'perfect': cert.is_perfect,
                     'minimal_prime_count_even': even,
                     'ok': cert.is_perfect and even}, ns)


def _cmd_lemma(ns):
    lemma = canaday.LEMMAS[ns.lemma]
    bounds = {name: getattr(ns, name) for name in lemma.defaults}
    result = lemma.verify(**bounds)
    record = {'lemma': ns.lemma, 'bounds': bounds}
    if lemma.expected is None:
        record['ok'] = not result
        record['violations'] = lemma.encode(result)
    else:
        expected = lemma.expected(**bounds)
        record['ok'] = result == expected
        record['result'] = lemma.encode(result)
        record['expected'] = (lemma.encode_expected or lemma.encode)(expected)
    return _verdict(record, ns)


def _cmd_search(ns):
    return _emit_report(perfect.exhaustive_search(ns.max_deg), ns)


def _cmd_shape_search(ns):
    return _emit_report(perfect.shape_search(
        ns.deg_bound, ns.p_deg_bound, use_pruning=not ns.no_prune), ns)


def _cmd_odd_square_search(ns):
    return _emit_report(perfect.odd_square_search(ns.max_deg), ns)


def _required(flag):
    return (flag,), {'type': int, 'required': True}


_POLY = ('poly',), {'help': 'polynomial, e.g. "x^2(x+1)" or "0x13"'}

# name -> (handler, arguments), in the order help lists them; the
# arguments are add_argument calls, or a table of nested subcommands
_COMMANDS = {
    'factor': (_cmd_factor, [_POLY]),
    'sigma': (_cmd_sigma, [_POLY]),
    'certify': (_cmd_certify, [_POLY]),
    'catalog': (_cmd_catalog, []),
    'search': (_cmd_search, [_required('--max-deg')]),
    'shape-search': (_cmd_shape_search, [
        _required('--deg-bound'), _required('--p-deg-bound'),
        (('--no-prune',), {'action': 'store_true'})]),
    'odd-square-search': (_cmd_odd_square_search, [_required('--max-deg')]),
    'irreducibles': (_cmd_irreducibles, [_required('--max-deg')]),
    'verify-lemma': (None, {
        **{name: (_cmd_lemma, [
            (('--' + bound.replace('_', '-'),),
             {'type': int, 'default': default,
              'help': 'default: %(default)s'})
            for bound, default in lemma.defaults.items()])
           for name, lemma in canaday.LEMMAS.items()},
        'parity': (_cmd_parity, [
            (('poly',), {'help': 'perfect polynomial to check'})]),
    }),
}


class _OnDemand:
    """A subcommand's parser, built only once argparse picks it.

    add_subparsers(parser_class=_OnDemand) makes one per name; argparse
    calls nothing on it but the chosen one's parse_known_args, so a run
    builds only the parsers on its path.
    """

    def __init__(self, spec, common, **kwargs):
        self.spec, self.common, self.kwargs = spec, common, kwargs

    def parse_known_args(self, args, namespace):
        handler, arguments = self.spec
        parser = argparse.ArgumentParser(parents=[self.common],
                                         add_help=False, **self.kwargs)
        parser.set_defaults(handler=handler)
        if isinstance(arguments, dict):
            _add_commands(parser, 'lemma', arguments, self.common)
        else:
            for flags, kwargs in arguments:
                parser.add_argument(*flags, **kwargs)
        return parser.parse_known_args(args, namespace)


def _add_commands(parser, dest, commands, common):
    sub = parser.add_subparsers(dest=dest, required=True,
                                parser_class=_OnDemand)
    for name, spec in commands.items():
        sub.add_parser(name, spec=spec, common=common)


def build_parser():
    """The top-level parser; a subcommand's is built when picked.

    Building all 17 parsers takes about 3 ms in a fresh process, as
    long as a small search.  A run builds 2 (-h alone, a typo), 3 (a
    subcommand) or 4 (a lemma).  Help and errors still list every
    choice, since argparse takes them from the names alone.
    """
    # every parser takes -h, --format and --seed from this one parent,
    # which costs less than adding them to each.  SUPPRESS keeps a flag
    # given before the subcommand from being clobbered by a subparser's
    # default; run() supplies the real defaults
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument('-h', '--help', action='help',
                        help='show this help message and exit')
    common.add_argument('--format', choices=('text', 'json'),
                        help='output format (default: text)')
    common.add_argument('--seed', type=int,
                        help='accepted for compatibility; has no effect, '
                             'since factorization is deterministic')
    ap = argparse.ArgumentParser(
        prog='gf2perfect', parents=[common], add_help=False,
        description='Sum-of-divisors arithmetic and perfect-polynomial '
                    'searches over GF(2)[x].')
    _add_commands(ap, 'subcommand', _COMMANDS, common)
    return ap


def run(argv):
    """Execute one invocation; returns the process exit code."""
    ap = build_parser()
    try:
        ns = ap.parse_args(argv, argparse.Namespace(format='text', seed=None))
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
    # a reader that closes the pipe early (gf2perfect ... | head) ends the
    # process as it ends any Unix filter, not with a BrokenPipeError
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == '__main__':
    main()
