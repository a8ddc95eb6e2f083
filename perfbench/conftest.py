"""Put the program's sources on the path for the benchmark's own tests.

Run them from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
