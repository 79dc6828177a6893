"""Compare the artifacts of two pipeline runs value by value.

When a change moves results by rounding only, the manifest hashes of
``tools/manifest_hashes.py`` can show only that they differ.  This script
shows by how much:

    python tools/compare_artifacts.py RUN_A RUN_B

RUN_A and RUN_B are ``run_pipeline`` output directories.  For each artifact
it prints one line: ``identical`` for equal bytes; otherwise the largest
absolute difference of the floats (JSON numbers that are floats, CSV cells
that parse as numbers, and the grid values read back with
``cli.load_instance``, with whether their NaN masks agree), followed by every
other difference (strings, integers, booleans, keys, lengths) on its own
line.  ``timings.json``, the stage wall times, is ignored.

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cmalab.cli import load_instance  # noqa: E402

IGNORED_FILES = {"timings.json"}


def _walk(a, b, path: str, out: dict) -> None:
    """Accumulate the max float difference and the other differences."""
    if isinstance(a, float) and isinstance(b, float):
        out["max"] = max(out["max"], abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out["other"].append(f"{path}.{key}: only in {'B' if key not in a else 'A'}")
            else:
                _walk(a[key], b[key], f"{path}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out["other"].append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", out)
    elif type(a) is not type(b) or a != b:
        out["other"].append(f"{path}: {a!r} != {b!r}")


def _csv_cells(path: Path) -> list:
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with path.open(newline="") as fh:
        return [[cell(c) for c in row] for row in csv.reader(fh)]


def compare(path_a: Path, path_b: Path) -> list[str]:
    """Report lines for one artifact present in both runs."""
    if path_a.read_bytes() == path_b.read_bytes():
        return ["identical"]
    out = {"max": 0.0, "other": []}
    head = []
    if path_a.suffix == ".bin":
        ua = load_instance(path_a.with_suffix("")).values
        ub = load_instance(path_b.with_suffix("")).values
        if ua.shape != ub.shape:
            return [f"grid shape {ua.shape} != {ub.shape}"]
        both = np.isfinite(ua) & np.isfinite(ub)
        out["max"] = float(np.max(np.abs(ua[both] - ub[both]), initial=0.0))
        masks = np.array_equal(np.isnan(ua), np.isnan(ub))
        head.append(f"NaN masks {'equal' if masks else 'DIFFER'}")
    elif path_a.suffix == ".json":
        _walk(json.loads(path_a.read_text()), json.loads(path_b.read_text()), "$", out)
    elif path_a.suffix == ".csv":
        _walk(_csv_cells(path_a), _csv_cells(path_b), "$", out)
    else:
        return ["bytes differ"]
    return [f"max|d| {out['max']:.3g}" + "".join(f", {h}" for h in head)
            + f", {len(out['other'])} other differences"] + out["other"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_artifacts.py RUN_A RUN_B", file=sys.stderr)
        return 2
    dir_a, dir_b = Path(args[0]), Path(args[1])
    names = sorted(({p.name for p in dir_a.iterdir() if p.is_file()}
                    | {p.name for p in dir_b.iterdir() if p.is_file()}) - IGNORED_FILES)
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            lines = [f"only in {'A' if a.exists() else 'B'}"]
        else:
            lines = compare(a, b)
        print(f"{name:20s} {lines[0]}")
        for line in lines[1:]:
            print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
