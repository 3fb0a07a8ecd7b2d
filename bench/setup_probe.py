"""Time one fresh interpreter's import of otfsim and load of scenario files.

Usage: python3 bench/setup_probe.py SRC_DIR SCENARIO.json [SCENARIO.json ...]
Prints the seconds from before ``import otfsim`` to after the last load.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from otfsim.runner import load_scenario  # noqa: E402

for path in sys.argv[2:]:
    load_scenario(path)
print(repr(time.perf_counter() - start))
