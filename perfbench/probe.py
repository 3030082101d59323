"""Set-up probe started by run.py in a fresh interpreter:

    python3 perfbench/probe.py CONFIG

imports bwlab.cli and parses CONFIG; run.py times the whole process.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

if __name__ == "__main__":
    import bwlab.cli  # noqa: F401 - the import is the measured cost
    from bwlab.config import parse_config

    parse_config(sys.argv[1])
