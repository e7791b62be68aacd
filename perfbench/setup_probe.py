"""Time start-up in a fresh interpreter: import plus model set-up.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SRC_DIR

Imports the package, builds the workload's config, ModelParams, EigenBasis
and NoiseSpec, then prints the wall-clock time (time.time()) at which the
first workload call would start.  The parent subtracts its own time.time()
taken just before starting this process, so interpreter start is included.
"""

import sys
import time


def main() -> None:
    name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    import workloads

    workloads.build_setup(name, seed)
    print(repr(time.time()))


if __name__ == "__main__":
    main()
