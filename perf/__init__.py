"""The repo's benchmark: five workloads on two clocks (see ``perf/README.md``).

Run with ``python3 -m perf`` from the repository root. The package drives
the engine only through its public surface. The engine is not installed,
so importing the package puts the ``src/`` directory next to it on the
import path; the command needs no environment.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
