"""One set-up, as a user of the CLI pays it: start Python, import, write data.

    python3 stepbench/setup_data.py <rank|path> <out-path>

run.py starts this several times in fresh processes and takes the median
wall time as setup_s.  Run it from the repository root.
"""

import os
import sys


def main(argv):
    kind, out = argv
    sys.path.insert(0, os.path.abspath("src"))
    import newtonbench.bench.cli  # noqa: F401  the import every CLI run pays
    import workloads

    workloads.generate(kind, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
