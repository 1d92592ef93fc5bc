"""Build one workload in a fresh interpreter.

``run.py`` times this script from process start to the ``built`` line it
prints, several times per run, and reports the median as ``setup_s``:
interpreter start-up, imports, topology, LLPD, traffic matrices and
scenario specs.  With ``--out`` the built workload is then pickled there,
so the measuring process evaluates exactly what was timed.

    python3 perfbench/setup_probe.py --workload zoo-schemes --seed 0
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    built = WORKLOADS[args.workload].build(args.seed)
    print("built", flush=True)
    if args.out:
        with open(args.out, "wb") as handle:
            pickle.dump(built, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
