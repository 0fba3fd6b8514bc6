"""Set-up cost of one CLI call, in the fresh interpreter that runs this file.

Times the import of ``locstat.cli`` and the parse and validation of a config
with the CLI's own parser, and prints them as one JSON object.

Run:  PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG SEED WORKERS
"""

import json
import sys
import time


def main() -> int:
    config_path, seed, workers = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    t0 = time.perf_counter()
    import locstat.cli as cli

    t1 = time.perf_counter()
    with open(config_path) as fh:
        cli._parse_config(fh.read(), seed, workers)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
