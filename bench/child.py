"""One benchmark batch in a fresh interpreter: set up, run, report.

run.py starts this script once per batch and sends a JSON spec on stdin:

    {"src": path of the package sources, "time_limit": seconds,
     "numpy": import numpy during set-up, "warm_degrees": [d, ...],
     "trace": bool, "spans_path": file for the spans or null,
     "kind": "cli", "argv": [...]                    # one CLI job, or
     "kind": "certify", "requests": [[poly, parity_check], ...]}

It writes one JSON record on stdout.  "ready" is time.monotonic() when
set-up ended; on Linux that clock is shared by all processes, so the
parent subtracts its own reading taken before the start.  "peak_rss_kb"
is this process's own high-water mark (VmHWM).  The ru_maxrss that
wait4 returns would not do: the kernel carries the spawning parent's
resident size across exec into it.  The record carries raw outputs
only; run.py checks them, so the check code never runs under the tracer.
"""

import contextlib
import io
import json
import os
import signal
import sys
import time
import traceback


def main():
    spec = json.load(sys.stdin)
    signal.alarm(spec['time_limit'])  # the default action ends the process
    sys.path.insert(0, spec['src'])
    start = time.perf_counter()
    from gf2perfect import canaday, cli, factor, perfect
    import_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(spec['src'] + os.sep):
        sys.exit(f'imported gf2perfect from {cli.__file__}, '
                 f'not from {spec["src"]}')
    if spec['numpy']:
        import numpy  # noqa: F401  (used lazily by the sieve)
    tracer = None
    if spec['trace']:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for d in spec['warm_degrees']:
        factor.irreducibles_up_to(d)
    record = {'ready': time.monotonic(), 'import_s': import_s}

    if spec['kind'] == 'cli':
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                record['exit'] = cli.run(spec['argv'])
        except Exception:
            traceback.print_exc()
            record['exit'] = None
        wall = time.perf_counter() - t0
        record['latencies'] = [wall]
        record['stdout'] = out.getvalue()
    else:
        # the module attributes are looked up per call, so traced runs
        # go through the wrappers
        latencies = []
        responses = []
        t0 = time.perf_counter()
        for poly, parity_check in spec['requests']:
            t = time.perf_counter()
            try:
                cert = perfect.is_perfect(poly)
                parity = (canaday.verify_minimal_prime_parity(poly)
                          if parity_check else None)
                responses.append({
                    'perfect': cert.is_perfect,
                    'factors': [list(f) for f in cert.factorization],
                    'parity': parity})
            except Exception as exc:
                responses.append({'error': repr(exc)})
            latencies.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        record['latencies'] = latencies
        record['responses'] = responses
    record['wall'] = wall
    record['peak_rss_kb'] = _vm_hwm_kb()

    if tracer is not None:
        record['layers'] = tracer.layer_metrics()
        record['untraced_targets'] = tracer.missing
        if spec['spans_path']:
            tracer.write_spans(spec['spans_path'])
    sys.stdout.write(json.dumps(record) + '\n')


def _vm_hwm_kb():
    try:
        with open('/proc/self/status') as fh:
            for line in fh:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


if __name__ == '__main__':
    main()
