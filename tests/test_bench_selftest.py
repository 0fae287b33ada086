"""The benchmark's own self-test, run as part of the suite.

benchmarks/layertrace.py wraps named bindings of the package from outside;
a refactor that removes or renames one of them fails here, not only when
the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
