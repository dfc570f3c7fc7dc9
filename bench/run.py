"""xbarbnn benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload infer-mlpl --seed 1 --seconds 25 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` the per-layer ones from a traced run.
The full report (provenance, simulated statistics, spans) goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``. See bench/README.md.
"""

import os
import sys

# One BLAS thread (never more than nproc). On a 2-core box two threads
# doubled the run-to-run spread of lenet-5 throughput. This must run before
# numpy is imported, which is why the harness lives in its own module.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import harness  # noqa: E402

if __name__ == "__main__":
    sys.exit(harness.main())
