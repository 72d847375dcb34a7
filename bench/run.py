"""gf2perfect benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload exhaustive-d20 --seed 1 --seconds 30 \
        --trace 0

Every batch runs in a fresh child process (bench/child.py) and the
batches repeat until --seconds have passed.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The line before it holds the provenance of the run.  Unless
--smoke is given, the full record (provenance, metrics and per-batch
figures) goes to bench/out/.  --smoke runs the same workloads at small
bounds for bench/selftest.py; its numbers are not results.

Workloads (see bench/README.md for why each was chosen):

- exhaustive-d20: one CLI job, ``search --max-deg 20``;
- shape-d40: one CLI job, ``shape-search --deg-bound 40 --p-deg-bound 8``;
- certify-mix: a closed loop, one client, 1500 seeded ``is_perfect``
  certifications with degrees uniform over 4..128; every 100th request
  is a catalog entry and also gets ``verify_minimal_prime_parity``.

An operation is one job or one request.  It fails on a nonzero exit, an
exception or a failed output check.  Only the standard library is used.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / 'src'
OUT = BENCH / 'out'

# every known perfect polynomial with at most five distinct prime
# factors, as coefficient bitmasks; the trivial family stops at n = 5
CATALOG = (0x6, 0x24, 0x36, 0x78, 0x9a6, 0xa50, 0xc48, 0xec4, 0x7f80,
           0xa140, 0xcd98, 0x10670, 0x10c1c0, 0x11ab10, 0x7fff8000,
           0x7fffffff80000000)
# C1..C5, the even perfect polynomials with exactly four prime factors
FOUR_PRIME = {0x9a6, 0xec4, 0xa140, 0xcd98, 0x10670}
# the trial-division path factors degree <= 20 against irreducibles of
# degree <= 10, which the package builds lazily on first use
TRIAL_DEG = 10
RUN_LIMIT_S = 170  # children are stopped so that a run ends within 180 s


def _search(max_deg):
    return {'kind': 'cli', 'report': 'exhaustive', 'numpy': True,
            'argv': ['--format', 'json', 'search', '--max-deg', str(max_deg)],
            'warm_degrees': sorted({max_deg // 2, TRIAL_DEG}),
            'expected': {a for a in CATALOG if a.bit_length() - 1 <= max_deg}}


def _shape(deg_bound, p_deg_bound):
    return {'kind': 'cli', 'report': 'shape', 'numpy': False,
            'argv': ['--format', 'json', 'shape-search',
                     '--deg-bound', str(deg_bound),
                     '--p-deg-bound', str(p_deg_bound)],
            'warm_degrees': sorted({p_deg_bound, TRIAL_DEG}),
            'expected': FOUR_PRIME}


def _certify(requests, inject_every):
    return {'kind': 'certify', 'numpy': False, 'requests': requests,
            'inject_every': inject_every, 'warm_degrees': [TRIAL_DEG]}


WORKLOADS = {
    'exhaustive-d20': (_search(20), _search(12)),
    'shape-d40': (_shape(40, 8), _shape(16, 4)),
    'certify-mix': (_certify(1500, 100), _certify(50, 10)),
}

SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())
END_TO_END = {m['name']: m['unit'] for m in SPEC['end_to_end']}
LAYER_UNITS = {m['name']: m['unit'] for m in SPEC['per_layer']}


def certify_stream(seed, n, inject_every):
    """(poly, is_catalog_entry) pairs: degrees cycle through 4..128 in a
    seeded shuffle; every inject_every-th request is a catalog entry."""
    rng = random.Random(seed)
    degrees = [4 + i % 125 for i in range(n)]
    rng.shuffle(degrees)
    catalog = set(CATALOG)
    stream = []
    for i, d in enumerate(degrees):
        if i % inject_every == inject_every - 1:
            stream.append((rng.choice(CATALOG), True))
            continue
        a = (1 << d) | rng.getrandbits(d)
        while a in catalog:  # only injected requests may be perfect
            a = (1 << d) | rng.getrandbits(d)
        stream.append((a, False))
    return stream


def clmul(a, b):
    """Carryless product, independent of the package under test."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _factors_rebuild(poly, factors):
    if any(p < 2 or e < 1 for p, e in factors):
        return False
    r = 1
    for p, e in factors:
        for _ in range(e):
            r = clmul(r, p)
    return r == poly


def check_cli(wl, rec):
    """Problems with one CLI job's output; empty when it is correct."""
    if rec.get('exit') != 0:
        return [f'exit code {rec.get("exit")}']
    try:
        _summary, doc = rec['stdout'].splitlines()[:2]
        report = json.loads(doc)
        certs = report['certificates']
        found = {int(c['poly_hex'], 16) for c in certs}
    except (ValueError, KeyError, TypeError) as exc:
        return [f'unreadable output: {exc!r}']
    problems = []
    if report.get('kind') != wl['report']:
        problems.append(f'report kind {report.get("kind")!r}')
    if found != wl['expected'] or len(certs) != len(found):
        problems.append(f'finds {sorted(map(hex, found))}')
    for c in certs:
        fac = [(int(f['prime_hex'], 16), f['exp']) for f in c['factors']]
        if c['perfect'] is not True \
                or not _factors_rebuild(int(c['poly_hex'], 16), fac):
            problems.append(f'certificate {c["poly_hex"]}')
    return problems


def check_response(request, resp):
    """True when one certify-mix response is correct."""
    poly, injected = request
    return ('error' not in resp
            and resp['perfect'] is injected
            and _factors_rebuild(poly, resp['factors'])
            and resp['parity'] is (True if injected else None))


def run_child(spec, deadline):
    """Run one batch; returns (record or None, setup_s, wait4 maxrss MB).

    The child reports its own peak RSS.  ru_maxrss from wait4 also
    counts this process's resident size at the spawn, so it is kept only
    as a cross-check in the batch rows."""
    spec = dict(spec, time_limit=max(5, int(deadline - time.monotonic())))
    env = {k: v for k, v in os.environ.items() if k != 'GF2PERFECT_JOBS'}
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / 'child.py')],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    # the child reads all of stdin before it writes anything
    with proc.stdin:
        proc.stdin.write(json.dumps(spec).encode())
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wait4_mb = usage.ru_maxrss / 1024
    if proc.returncode != 0:
        print(f'child exited with {proc.returncode}', file=sys.stderr)
        return None, None, wait4_mb
    record = json.loads(out.decode().splitlines()[-1])
    return record, record['ready'] - t0, wait4_mb


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method='inclusive')[q - 1]


def measure(name, seed, seconds, trace, smoke):
    wl = WORKLOADS[name][1 if smoke else 0]
    spec = {'src': str(SRC), 'kind': wl['kind'], 'numpy': wl['numpy'],
            'warm_degrees': wl['warm_degrees'], 'spans_path': None}
    if wl['kind'] == 'cli':
        spec['argv'] = wl['argv']
        stream = None
    else:
        stream = certify_stream(seed, wl['requests'], wl['inject_every'])
        spec['requests'] = stream
    if trace and not smoke:
        spec['spans_path'] = str(OUT / f'{name}-seed{seed}-spans.jsonl')

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # with tracing on, untraced and traced batches alternate, so the
    # overhead is measured under the same machine load
    modes = [False, True] if trace else [False]
    batches = []
    rounds = []
    attempted = failed = 0
    # stop before a round that would end after --seconds
    while not rounds or (time.monotonic() - start
                         + statistics.median(rounds) <= seconds):
        round_start = time.monotonic()
        for traced in modes:
            record, setup_s, wait4_mb = run_child(dict(spec, trace=traced),
                                                  deadline)
            if wl['kind'] == 'cli':
                attempted += 1
                problems = (check_cli(wl, record) if record
                            else ['child failed'])
                bad = 1 if problems else 0
            else:
                attempted += len(stream)
                if record:
                    problems = [i for i, (req, resp) in
                                enumerate(zip(stream, record['responses']))
                                if not check_response(req, resp)]
                else:
                    problems = ['child failed']
                bad = len(stream) if record is None else len(problems)
            failed += bad
            if problems:
                print(f'{name}: {problems[:5]}', file=sys.stderr)
            if record:
                # drop the checked outputs, so that this process stays
                # small next to the children it measures
                record.pop('responses', None)
                record['stdout_bytes'] = len(record.pop('stdout', '').encode())
            batches.append({'traced': traced, 'failed': bad,
                            'setup_s': setup_s, 'wait4_maxrss_mb': wait4_mb,
                            'record': record})
        rounds.append(time.monotonic() - round_start)
    good = [b for b in batches if b['record'] and not b['failed']]
    plain = [b for b in good if not b['traced']]
    traced = [b for b in good if b['traced']]
    if trace:
        metrics, units, counts_repeat = layer_metrics(plain, traced)
    else:
        metrics, units, counts_repeat = end_to_end(plain), END_TO_END, True
    summary = {
        # a batch that produced no record counts as failed
        'correct': failed == 0 and counts_repeat,
        'attempted': attempted,
        'failed': failed,
        'metrics': {k: {'value': v, 'unit': units[k]}
                    for k, v in metrics.items()},
    }
    batch_rows = [{'traced': b['traced'], 'failed': b['failed'],
                   'setup_s': b['setup_s'],
                   'wait4_maxrss_mb': b['wait4_maxrss_mb'],
                   'peak_rss_mb': b['record'] and _peak_rss_mb(b),
                   'wall_s': b['record'] and b['record']['wall']}
                  for b in batches]
    argv = wl.get('argv') or [f'{wl["requests"]} certify requests']
    return summary, argv, batch_rows, failed / attempted


def end_to_end(batches):
    if not batches:
        return {k: 0.0 for k in END_TO_END}
    med = statistics.median
    latencies = [x for b in batches for x in b['record']['latencies']]
    return {
        'wall_s': med(b['record']['wall'] for b in batches),
        'setup_s': med(b['setup_s'] for b in batches),
        'peak_rss_mb': med(_peak_rss_mb(b) for b in batches),
        'req_per_s': med(len(b['record']['latencies']) / b['record']['wall']
                         for b in batches),
        'req_p50_ms': _quantile(latencies, 50) * 1e3,
        'req_p99_ms': _quantile(latencies, 99) * 1e3,
    }


def _peak_rss_mb(batch):
    kb = batch['record']['peak_rss_kb']
    return batch['wait4_maxrss_mb'] if kb is None else kb / 1024


def layer_metrics(plain, traced):
    """Medians over the traced batches; counts must agree exactly."""
    if not plain or not traced:
        return {k: 0.0 for k in LAYER_UNITS}, LAYER_UNITS, False
    rows = []
    for b in traced:
        rec = b['record']
        row = dict(rec['layers'])
        row['cli.import_s'] = rec['import_s']
        row['cli.stdout_bytes'] = rec['stdout_bytes']
        rows.append(row)
    metrics = {}
    counts_repeat = True
    for k, unit in LAYER_UNITS.items():
        if k.startswith('trace.'):
            continue
        values = [row[k] for row in rows]
        if unit in ('count', 'bytes') or k == 'perfect.find_ratio':
            counts_repeat &= len(set(values)) == 1
            metrics[k] = values[0]
        else:
            metrics[k] = statistics.median(values)
    plain_wall = statistics.median(b['record']['wall'] for b in plain)
    traced_wall = statistics.median(b['record']['wall'] for b in traced)
    metrics['trace.overhead_s'] = traced_wall - plain_wall
    metrics['trace.overhead_share'] = (traced_wall - plain_wall) / plain_wall
    if not counts_repeat:
        print('per-layer counts differ between traced batches',
              file=sys.stderr)
    return metrics, LAYER_UNITS, counts_repeat


def provenance(name, seed, seconds, trace, smoke, argv):
    cpu = None
    try:
        with open('/proc/cpuinfo') as fh:
            cpu = next((line.split(':', 1)[1].strip() for line in fh
                        if line.startswith('model name')), None)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version('numpy')
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {'workload': name, 'seed': seed, 'seconds': seconds,
            'trace': trace, 'smoke': smoke, 'argv': argv,
            'nproc': os.cpu_count(), 'cpu_model': cpu or platform.processor(),
            'python': platform.python_version(), 'numpy': numpy_version,
            'commit': _git_commit()}


def _git_commit():
    head = ROOT / '.git' / 'HEAD'
    try:
        ref = head.read_text().strip()
        if not ref.startswith('ref: '):
            return ref
        ref = ref[5:]
        path = ROOT / '.git' / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / '.git' / 'packed-refs').read_text().splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--seconds', type=float, default=25)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--smoke', action='store_true',
                    help='small bounds; numbers are not results')
    args = ap.parse_args(argv)
    if not (SRC / 'gf2perfect' / 'cli.py').is_file():
        sys.exit(f'error: no gf2perfect sources under {SRC}')
    if not args.smoke:
        OUT.mkdir(exist_ok=True)
    summary, job_argv, batch_rows, failed_ratio = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    prov = provenance(args.workload, args.seed, args.seconds,
                      args.trace, args.smoke, job_argv)
    if not args.smoke:
        path = OUT / f'{args.workload}-seed{args.seed}-trace{args.trace}.json'
        path.write_text(json.dumps(
            {'provenance': prov, 'failed_ratio': failed_ratio,
             'batches': batch_rows, **summary}, indent=1) + '\n')
    print(json.dumps({'provenance': prov, 'failed_ratio': failed_ratio}))
    print(json.dumps(summary))


if __name__ == '__main__':
    main()
