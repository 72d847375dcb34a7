"""Timing and counting wrappers installed on gf2perfect from outside.

The package modules bind each other's functions with ``from .x import y``,
so a wrapper only sees a call if it replaces the name the caller looks
up.  ``Tracer.install`` therefore rebinds every module-level name in the
package modules that refers to a traced function.  No package source is
changed; the untraced benchmark child never imports this file.

Two kinds of target:

- kernels (the gf2poly arithmetic) are called millions of times, so each
  call only adds to a per-kernel (calls, seconds) total and to the child
  time of the enclosing span.  gf2poly's own namespace is left alone, so
  kernel-to-kernel calls (gcd -> rem, pow_ -> mul) stay inside the
  calling kernel and are not counted twice;
- everything else records a span (id, name, start, end, parent id, time
  covered by children) in memory.  Self time is a span's duration minus
  the part its child spans and kernel calls cover.
"""

import importlib
import itertools
import json
import time
from collections import defaultdict

MODULES = ('gf2poly', 'factor', 'sigma', 'perfect', 'canaday', 'cli')

KERNELS = ('mul', 'square', 'rem', 'divrem', 'divexact', 'gcd')

# (module, attribute); private helpers are traced for their counts
SPANS = (
    ('factor', 'factorize'),
    ('factor', '_factor_trial'),
    ('factor', '_factor_general'),
    ('factor', '_irreducibles_up_to'),
    ('factor', 'smallest_factor_tables'),
    ('sigma', 'sigma_table'),
    ('sigma', 'sigma_of_factorization'),
    ('perfect', 'is_perfect'),
    ('perfect', 'exhaustive_search'),
    ('perfect', 'shape_search'),
    ('perfect', 'odd_square_search'),
    ('canaday', 'verify_minimal_prime_parity'),
    ('cli', 'run'),
    ('cli', '_emit_report'),
    ('cli', '_emit'),
)

SEARCHES = ('perfect.exhaustive_search', 'perfect.shape_search',
            'perfect.odd_square_search')


class Tracer:
    """Span and kernel-call records for one process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, covered)
        self.kernels = {}  # name -> [calls, seconds]
        self.counts = defaultdict(int)
        self.missing = []  # targets absent from the package
        self._stack = []  # open spans: [id, covered]
        self._ids = itertools.count()

    def install(self):
        """Wrap every target at each package-module name bound to it."""
        mods = {m: importlib.import_module(f'gf2perfect.{m}')
                for m in MODULES}
        callers = [mods[m] for m in MODULES if m != 'gf2poly']
        for attr in KERNELS:
            fn = getattr(mods['gf2poly'], attr, None)
            if fn is None:
                self.missing.append(f'gf2poly.{attr}')
                continue
            _rebind(callers, fn, self._kernel(f'gf2poly.{attr}', fn))
        for mod, attr in SPANS:
            fn = getattr(mods[mod], attr, None)
            if fn is None:
                self.missing.append(f'{mod}.{attr}')
                continue
            _rebind(callers, fn, self._span(f'{mod}.{attr}', fn))

    def _kernel(self, name, fn):
        acc = self.kernels.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            dt = clock() - start
            acc[0] += 1
            acc[1] += dt
            if stack:
                stack[-1][1] += dt
            return result
        return wrapper

    def _span(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], name, start, end, parent, frame[1]))
            if observe:
                observe(self.counts, result)
            return result
        return wrapper

    def write_spans(self, path):
        """One JSON object per span, in the order the spans ended."""
        with open(path, 'w') as fh:
            for sid, name, start, end, parent, covered in self.spans:
                fh.write(json.dumps({
                    'id': sid, 'name': name, 'start': start, 'end': end,
                    'parent': parent, 'self': end - start - covered}) + '\n')

    def layer_metrics(self):
        """Per-layer counts and seconds derived from spans and kernels."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = {m: 0.0 for m in MODULES}
        names = {sid: name for sid, name, *_ in self.spans}
        sieve_in_table = certify_in_search = 0.0
        for sid, name, start, end, parent, covered in self.spans:
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name.split('.')[0]] += dur - covered
            if name == 'factor.smallest_factor_tables' \
                    and names.get(parent) == 'sigma.sigma_table':
                sieve_in_table += dur
            if name == 'perfect.is_perfect' and names.get(parent) in SEARCHES:
                certify_in_search += dur
        self_s['gf2poly'] += sum(secs for _, secs in self.kernels.values())

        def kernel(*attrs):
            rows = [self.kernels.get(f'gf2poly.{a}', (0, 0.0)) for a in attrs]
            return sum(r[0] for r in rows), sum(r[1] for r in rows)

        mul_n, mul_s = kernel('mul')
        rem_n, rem_s = kernel('rem', 'divrem', 'divexact')
        gcd_n, gcd_s = kernel('gcd')
        sq_n, sq_s = kernel('square')
        search_s = sum(total[s] for s in SEARCHES)
        examined = self.counts['candidates_examined']
        out = {
            'gf2poly.mul_calls': mul_n, 'gf2poly.mul_s': mul_s,
            'gf2poly.rem_calls': rem_n, 'gf2poly.rem_s': rem_s,
            'gf2poly.gcd_calls': gcd_n, 'gf2poly.gcd_s': gcd_s,
            'gf2poly.square_calls': sq_n, 'gf2poly.square_s': sq_s,
            'factor.sieve_s': total['factor.smallest_factor_tables'],
            'factor.irreducibles_s': total['factor._irreducibles_up_to'],
            'factor.factorize_calls': calls['factor.factorize'],
            'factor.factorize_s': total['factor.factorize'],
            'factor.trial_calls': calls['factor._factor_trial'],
            'factor.general_calls': calls['factor._factor_general'],
            'sigma.table_s': total['sigma.sigma_table'] - sieve_in_table,
            'sigma.table_entries': self.counts['table_entries'],
            'sigma.of_factorization_calls':
                calls['sigma.sigma_of_factorization'],
            'sigma.of_factorization_s': total['sigma.sigma_of_factorization'],
            'perfect.search_s': search_s,
            'perfect.enumerate_s': search_s - certify_in_search,
            'perfect.candidates_examined': examined,
            'perfect.shapes_pruned': self.counts['shapes_pruned'],
            'perfect.find_ratio':
                self.counts['finds'] / examined if examined else 0.0,
            'perfect.certify_calls': calls['perfect.is_perfect'],
            'perfect.certify_s': total['perfect.is_perfect'],
            'canaday.parity_calls':
                calls['canaday.verify_minimal_prime_parity'],
            'canaday.parity_s': total['canaday.verify_minimal_prime_parity'],
            'cli.emit_s': total['cli._emit_report'] + total['cli._emit'],
        }
        out.update({f'{m}.self_s': s for m, s in self_s.items()})
        return out


def _rebind(modules, fn, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def _observe_search(counts, report):
    counts['candidates_examined'] += report.candidates_examined
    counts['shapes_pruned'] += sum(report.shapes_pruned.values())
    counts['finds'] += len(report.perfects_found)


def _observe_table(counts, table):
    counts['table_entries'] += len(table)


_OBSERVERS = {name: _observe_search for name in SEARCHES}
_OBSERVERS['sigma.sigma_table'] = _observe_table
