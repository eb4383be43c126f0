"""Times one fresh ``import ordtop`` between reference slices and prints JSON.

Usage: ``python3 perfbench/probe.py`` with ``src`` on ``PYTHONPATH``.
"""

import json
from time import perf_counter

from reference import time_reference

before = [time_reference() for _ in range(3)]
start = perf_counter()
import ordtop  # noqa: E402,F401
import ordtop.cli  # noqa: E402,F401
import_s = perf_counter() - start
after = [time_reference() for _ in range(3)]
print(json.dumps({"import_s": import_s, "refs": before + after}))
