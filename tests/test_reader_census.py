"""Every public function, class and method of the package has a reader.

A reader is a use of the name anywhere in the library, the benchmark, the
tools or the acceptance tests, other than its own definition: a name, an
attribute, or a component of a dotted ``cmalab.`` string (the benchmark
wraps functions by such paths).  An import is not a reader: a name that is
only imported or re-exported is computed for nobody.  Methods are matched by
attribute only (``.name``).  Unit tests do not count: a helper that only
its own unit test calls computes something nothing reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cmalab"
READERS = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    *sorted((ROOT / "tools").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
ALLOWED = {
    "grid.GridFunction.from_callable":
        "fixture constructor: unit tests build grid functions from formulas",
    "grid.GridFunction.constant":
        "fixture constructor: unit tests build constant grid functions",
}


def _public_definitions():
    """(qualified name, name, is_method) of every public top-level function
    and class of the package, and of every public method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub.name, True


def _read_names():
    """(bare names, attribute names) used across the reader files."""
    names, attrs = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"cmalab(\.\w+)+", node.value)):
                attrs.update(node.value.split(".")[1:])
    return names, attrs


def test_every_public_definition_has_a_reader():
    names, attrs = _read_names()
    unread = [
        qual for qual, name, is_method in _public_definitions()
        if not (name in attrs or (not is_method and name in names))
    ]
    assert sorted(unread) == sorted(ALLOWED), (
        f"no reader outside the unit tests: {sorted(set(unread) - set(ALLOWED))}; "
        f"allowed but now read: {sorted(set(ALLOWED) - set(unread))}")
