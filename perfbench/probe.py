"""Cold-start probe: import tiara and run one CLI operation in a fresh
interpreter, printing the exit code and the seconds both took as JSON.

Usage: python3 probe.py '<argv as a JSON list>'  (with tiara's src on
PYTHONPATH).  Only the standard library is imported before the clock
starts, so NumPy's import is counted, as a user pays it.
"""

import json
import sys
import time

start = time.perf_counter()
from tiara.cli import main  # noqa: E402

code = main(json.loads(sys.argv[1]))
print(json.dumps({"exit": code, "seconds": time.perf_counter() - start}))
