"""Set-up time in a fresh interpreter: import the package and its CLI, then
parse every instance document named on the command line.

    python3 perfbench/probe.py SRC_DIR FILE...

prints the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import robust_vdp  # noqa: E402
import robust_vdp.cli  # noqa: E402,F401
from robust_vdp.instance import parse_document  # noqa: E402

for name in sys.argv[2:]:
    with open(name, encoding="utf-8") as f:
        parse_document(f.read())
print(time.perf_counter() - t0)
