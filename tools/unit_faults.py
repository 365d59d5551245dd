"""Minor page faults and CPU seconds per benchmark unit, in one process.

    python3 tools/unit_faults.py --checkout ../parent --workload long128 \
        --seed 2501 --units 4

Imports the package and perfbench's workloads from the checkout, sets the
workload up once, then runs its units one after another untraced, reading
``getrusage`` of this process around each. Prints one JSON line: per unit,
the minor faults and the user and system seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path("."))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, default=4)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as work:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(work) / "work")
        workload.setup()
        units = []
        for _ in range(args.units):
            before = resource.getrusage(resource.RUSAGE_SELF)
            unit, outputs = workload.run(None)
            after = resource.getrusage(resource.RUSAGE_SELF)
            workload.check(unit, outputs)
            units.append({"minor_faults": after.ru_minflt - before.ru_minflt,
                          "user_s": round(after.ru_utime - before.ru_utime, 3),
                          "sys_s": round(after.ru_stime - before.ru_stime, 3),
                          "correct": not unit.failures})
    print(json.dumps({"checkout": str(checkout), "workload": args.workload,
                      "seed": args.seed, "units": units}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
