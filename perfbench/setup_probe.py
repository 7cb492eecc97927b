"""Set-up probe: a fresh interpreter imports struveint and runs one op.

    python3 perfbench/setup_probe.py '<op as JSON>'

run.py times the whole process, start to exit, as one set-up sample.
"""

import json
import sys

from ops import execute, integral_case

if __name__ == "__main__":
    op = json.loads(sys.argv[1])
    execute(op, integral_case(op["case"]))
