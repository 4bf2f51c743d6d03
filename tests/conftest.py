import json
import os
import subprocess
import sys
import textwrap

import pytest

import sheafkit

SRC = os.path.dirname(os.path.dirname(sheafkit.__file__))

# Appended to the child's code: its own peak resident set, then its result.
# The child reads VmHWM itself, as ru_maxrss keeps the high-water mark of
# the test process across fork and exec.
_REPORT = """
with open("/proc/self/status") as fh:
    result["rss_mb"] = next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:")) / 1024
print(json.dumps(result))
"""


def _run_child(code, *argv, timeout=120):
    """Run code (dedented) in a fresh interpreter that imports this
    sheafkit, with sys.argv[1:] = argv, and return the dict it leaves in
    ``result``, with the child's peak resident set in MB under "rss_mb"."""
    script = "import json\nresult = {}\n" + textwrap.dedent(code) + _REPORT
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                         capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(out.stdout)


@pytest.fixture
def run_child():
    """``_run_child``, in a process measured alone; skipped where there is
    no /proc/self/status to read the peak resident set from."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the child's peak resident set is read from /proc/self/status")
    return _run_child
