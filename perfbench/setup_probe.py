"""Time one CLI set-up in this process: ``import scstates`` plus one ``cli.build_parser()``.

    python3 perfbench/setup_probe.py SRC_DIR

Prints the seconds. Run it in a fresh process with BLAS already pinned,
so the import of numpy that ``import scstates`` triggers is counted.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    t0 = perf_counter()
    import scstates.cli

    scstates.cli.build_parser()
    print(repr(perf_counter() - t0))
