"""Measure the peak memory of one domain and its two Dirichlet solves.

For each ``n:resolution`` argument a fresh interpreter builds the domain of
``ExperimentConfig(n=n, resolution=resolution)`` and solves for u and v0 as
``run_pipeline``'s solve stage does.  It prints one JSON object per lattice:

    python tools/solver_memory.py 2:17 2:25 2:33

- ``peak_rss_mb``: the interpreter's peak resident set (``ru_maxrss``), in
  MiB (2**20 bytes);
- ``import_rss_mb``: the peak after the imports (``cmalab.cli``,
  ``cmalab.grid``, ``cmalab.solver``, and with them numpy and scipy), in
  MiB: the footprint every run of the package starts from;
- ``net_rss_mb``: ``peak_rss_mb`` less ``import_rss_mb``;
- ``bytes_per_node``: the net peak in bytes per lattice node of the box,
  resolution ** (2 n).  ``grid._BYTES_PER_NODE`` is read from this column;
- ``levels``: at n = 2, the unknowns of each V-cycle level, finest first,
  the last one factored directly; null at n = 1, which solves directly;
- ``setup_seconds``: the wall time of the per-domain setup, timed apart
  from the solves: the domain build, its boundary-constraint table and,
  at n = 2, the multigrid hierarchy;
- ``seconds``: the wall time of the setup and the two solves.

The package is imported from the ``src`` directory next to this script, so
each checkout measures its own code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from cmalab.cli import ExperimentConfig
from cmalab.grid import build_domain
from cmalab.solver import _multigrid, solve_dirichlet

def peak_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

n, res = int(sys.argv[2]), int(sys.argv[3])
imports = peak_kib()
start = time.perf_counter()
cfg = ExperimentConfig(n=n, resolution=res)
dom = build_domain(cfg.n, cfg.shape_spec(), cfg.resolution)
dom.bc_table
if n == 2:
    dom._cache["multigrid"] = _multigrid(dom)
setup = time.perf_counter() - start
solve_dirichlet(dom, cfg.f_function(), 0.0)
solve_dirichlet(dom, 1.0, 0.0)
seconds = time.perf_counter() - start
peak = peak_kib()
multigrid = dom._cache.get("multigrid")
levels = None if multigrid is None else (
    [A.shape[0] for A, *_ in multigrid.args[0]] + [multigrid.args[1].shape[0]])
print(json.dumps({"n": n, "resolution": res, "levels": levels,
                  "peak_rss_mb": round(peak / 1024, 1),
                  "import_rss_mb": round(imports / 1024, 1),
                  "net_rss_mb": round((peak - imports) / 1024, 1),
                  "bytes_per_node": round((peak - imports) * 1024 / res ** (2 * n)),
                  "setup_seconds": round(setup, 3), "seconds": round(seconds, 2)}))
"""


def measure(n: int, resolution: int) -> dict:
    """The memory record of one lattice, from a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", CHILD, SRC, str(n), str(resolution)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for arg in sys.argv[1:]:
        n, res = (int(v) for v in arg.split(":"))
        print(json.dumps(measure(n, res)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
