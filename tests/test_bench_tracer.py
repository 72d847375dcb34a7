"""The benchmark's per-layer tracer still finds every function it wraps.

bench/tracer.py rebinds package names such as sigma_table and
_factor_general; a renamed or deleted target would zero its metric
without an error, so a missing one fails here instead.  The one
expected miss is _factor_trial: every input now takes the general
path, so its trial_calls metric reads 0.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = '''
import json, sys
sys.path[:0] = sys.argv[1:]
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
'''


def test_tracer_install_finds_every_target():
    # a subprocess, so the rebound names cannot leak into other tests
    out = subprocess.run(
        [sys.executable, '-c', INSTALL, str(ROOT / 'src'), str(ROOT / 'bench')],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert json.loads(out) == ['factor._factor_trial']
