"""The struveint CLI with its parse and serialize steps timed.

    python3 perfbench/cli_traced.py <totals.json> <struveint arguments...>

Wraps ``case_from_dict``, ``report_to_dict`` and ``json.dumps`` as the
CLI module calls them, runs ``struveint.cli.main`` and writes the summed
seconds spent in each to ``totals.json``.  All three run on the main
thread, also under ``--jobs``.
"""

import json
import sys
import time

import struveint.cli as cli


def main() -> int:
    totals = {}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] = totals.get(name, 0.0) + time.perf_counter() - t0

        return wrapper

    cli.case_from_dict = timed("case_from_dict", cli.case_from_dict)
    cli.report_to_dict = timed("report_to_dict", cli.report_to_dict)
    cli.json.dumps = timed("json.dumps", cli.json.dumps)
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(totals, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
