"""Print the manifest hashes of five reference pipeline runs as JSON.

The behaviour contract says a refactor leaves every artifact byte-identical.
Run this script on two source trees and diff the output:

    python tools/manifest_hashes.py > before.json    # in one checkout
    python tools/manifest_hashes.py > after.json     # in the other
    diff before.json after.json

The package is imported from the ``src`` directory next to this script, so
each checkout measures its own code.  For each config the output holds the
manifest's ``config_hash`` and its ``files`` map (artifact name to SHA-256).
The five runs take about 6 s on a 2-core host.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cmalab.cli import ExperimentConfig, run_pipeline  # noqa: E402

CONFIGS = {
    # the config of tests/test_acceptance.py::test_acceptance_determinism
    "determinism": ExperimentConfig(
        n=1, resolution=49, gamma=0.05, eps=0.01, sigma=0.2, k_max=2,
        stride=4, seed=3, chain_points=4, chain_levels=2,
        chain_resolution=33, engulf_pairs=10, cover_families=2),
    "n1_default": ExperimentConfig(n=1, resolution=65, seed=0),
    "n2_res17": ExperimentConfig(n=2, resolution=17),
    # five of its twelve chains.json chains break at level 2
    "n1_res17": ExperimentConfig(resolution=17, seed=0),
    # the chain settings that the stage subcommands' chain flags reach
    "n1_chain_settings": ExperimentConfig(
        n=1, resolution=33, sigma=0.3, mu0=0.2, chain_levels=3,
        chain_resolution=35, chain_points=4, engulf_pairs=10, cover_families=2),
}


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in CONFIGS.items():
            manifest = run_pipeline(cfg, Path(tmp) / name)
            out[name] = {"config_hash": manifest["config_hash"],
                         "files": manifest["files"]}
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
