"""Self-test of the benchmark: every workload at small bounds, both modes.

    python3 bench/selftest.py

Runs run.py --smoke for each workload untraced, then twice traced with
the same seed, and checks that the result line has the contract's
shape, that every output check passed, that every metric is present
with its unit, and that every per-layer count repeats exactly across
the two traced runs.  Exits 1 and names the problem otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / 'BENCHMARK.json').read_text())


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / 'run.py'), '--workload', workload,
         '--seed', '7', '--seconds', '1', '--trace', str(trace), '--smoke'],
        capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def check(workload, trace, result):
    metrics = SPEC['per_layer' if trace else 'end_to_end']
    problems = []
    if set(result) != {'correct', 'attempted', 'failed', 'metrics'}:
        problems.append(f'keys {sorted(result)}')
    if not (result['correct'] and result['failed'] == 0
            and result['attempted'] >= 1):
        problems.append('outputs failed their checks')
    expected = {m['name']: m['unit'] for m in metrics}
    got = {k: v['unit'] for k, v in result['metrics'].items()}
    if got != expected:
        problems.append(f'metrics differ from BENCHMARK.json: '
                        f'{sorted(set(got) ^ set(expected))}')
    return [f'{workload} trace={trace}: {p}' for p in problems]


def main():
    problems = []
    for w in SPEC['workloads']:
        name = w['name']
        problems += check(name, 0, smoke(name, 0))
        first, second = smoke(name, 1), smoke(name, 1)
        problems += check(name, 1, first) + check(name, 1, second)
        for m in SPEC['per_layer']:
            k = m['name']
            if m['unit'] in ('count', 'bytes') and \
                    first['metrics'].get(k) != second['metrics'].get(k):
                problems.append(f'{name}: {k} differs between traced runs')
        print(f'{name}: checked', file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == '__main__':
    main()
