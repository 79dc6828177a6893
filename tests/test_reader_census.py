"""Every public function, class and method of the package has a reader.

A reader is a use of the name anywhere in the library, the benchmark, the
tools or the acceptance tests, other than its own definition: a name, an
attribute, or a component of a dotted ``cmalab.`` string (the benchmark
wraps functions by such paths).  An import is not a reader: a name that is
only imported or re-exported is computed for nobody.  Methods are matched by
attribute only (``.name``).  Unit tests do not count: a helper that only
its own unit test calls computes something nothing reads.

Defaults are read the same way: each parameter with a default of a public
top-level function must be passed, by keyword or by position, by some call
in those files, as an expression other than the default's own.  One that no
reader sets is a constant, not an option; passing the default is not
setting it.  And some call in those files must leave it unset: a default
that every reader overrides is a second, dead home of the setting.

Config fields are read like defaults: each defaulted ``ExperimentConfig``
field must be set, to an expression other than its default's, by a keyword
of some ``ExperimentConfig(...)`` call in those files, or be a key of
``cli._CONFIG_FLAGS``, the fields that the subcommands set from their flags;
each key's flag must be listed by some subcommand's ``--help``, and the
README's flag table must name the subcommands that list it.

Failures are read too: every ``except`` handler of the package ends in
``raise``.  A handler that does not turns a typed failure into an outcome
(a skipped pair, a fallback value, a count) that nothing can tell apart
from a result.  The one allowed handler keeps the failure as data: a
section chain that breaks records the level and its cause's type and
message, and every reader of the chain gets them from there.
"""

import ast
import contextlib
import io
import re
from collections import defaultdict
from pathlib import Path

import pytest

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


# Defaults nothing in the reader files overrides, with the reason they stay.
KNOBS_ALLOWED = {
    "cli.main.argv": "entry point: the console script passes no argv, tests do",
}


def _defaulted_parameters():
    """(qualified name, function name, parameter, position or None, default
    source) of every parameter with a default of every public top-level
    function."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for pos, (arg, default) in enumerate(zip(positional[first:], args.defaults), first):
                yield (f"{path.stem}.{node.name}.{arg.arg}", node.name, arg.arg, pos,
                       ast.unparse(default))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield (f"{path.stem}.{node.name}.{arg.arg}", node.name, arg.arg, None,
                           ast.unparse(default))


def _reader_calls():
    """(function name, call node) of every call in the reader files; calls
    are matched to definitions by function name."""
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                yield getattr(func, "id", None) or getattr(func, "attr", None), node


def test_every_default_is_set_by_a_reader():
    # A parameter that every reader leaves at its default is a constant with
    # the cost of an option.  A parameter counts as set when some call
    # passes it, by keyword or by position, an expression other than its
    # default's.
    passed = defaultdict(set)
    for name, node in _reader_calls():
        for kw in node.keywords:
            passed[name, kw.arg].add(ast.unparse(kw.value))
        for pos, arg in enumerate(node.args):
            passed[name, pos].add(ast.unparse(arg))
    unset = [qual for qual, name, param, pos, default in _defaulted_parameters()
             if not (passed[name, param] | passed[name, pos]) - {default}]
    assert sorted(unset) == sorted(KNOBS_ALLOWED), (
        f"defaults no reader sets: {sorted(set(unset) - set(KNOBS_ALLOWED))}; "
        f"allowed but now set: {sorted(set(KNOBS_ALLOWED) - set(unset))}")


def test_every_default_is_left_unset_by_a_reader():
    # A default that every reader call overrides is never used: the setting
    # lives in the callers, and the default is a dead second value.  A call
    # leaves a parameter unset when it passes it neither by keyword nor by
    # position; a call with *args or **kwargs counts neither way.
    params = list(_defaulted_parameters())
    left_unset = set()
    for name, node in _reader_calls():
        if (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue
        keywords = {kw.arg for kw in node.keywords}
        left_unset.update(
            qual for qual, fname, param, pos, _ in params
            if fname == name and param not in keywords
            and (pos is None or pos >= len(node.args)))
    always_set = [qual for qual, *_ in params if qual not in left_unset]
    assert not always_set, f"defaults every reader overrides: {sorted(always_set)}"


# Config fields nothing in the reader files sets, with the reason they stay.
FIELDS_ALLOWED: dict[str, str] = {}


def _config_fields():
    """(name, default source) of every defaulted field of ExperimentConfig,
    and the keys of cli._CONFIG_FLAGS."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    fields = [(sub.target.id, ast.unparse(sub.value)) for sub in cls.body
              if isinstance(sub, ast.AnnAssign) and sub.value is not None]
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "_CONFIG_FLAGS")
    return fields, {ast.literal_eval(key) for key in table.keys}


def test_every_config_flag_is_a_subcommand_flag():
    # The census counts a key of cli._CONFIG_FLAGS as set; that holds only
    # if some subcommand's parser adds its flag.  The README's flag table,
    # edited by hand, names each key and exactly the subcommands whose
    # --help lists its flag.
    from cmalab import cli

    def flags_shown(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.main([*argv, "--help"])
        return out.getvalue()

    commands = re.search(r"\{([\w,]+)\}", flags_shown([])).group(1).split(",")
    shown = {cmd: set(re.findall(r"--[\w-]+", flags_shown([cmd]))) for cmd in commands}
    adders = {flag: {cmd for cmd in commands if flag in shown[cmd]}
              for flag, _ in cli._CONFIG_FLAGS.values()}
    unshown = {field for field, (flag, _) in cli._CONFIG_FLAGS.items() if not adders[flag]}
    assert not unshown, f"config flags no subcommand adds: {sorted(unshown)}"

    readme = (ROOT / "README.md").read_text()
    rows = readme[readme.index("| flag | field | subcommands |"):].splitlines()[2:]
    table = {}
    for row in rows:
        if not row.startswith("|"):
            break
        flag, field, cmds = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        table[flag] = (field, set(cmds.split(", ")))
    assert table == {flag: (field, adders[flag])
                     for field, (flag, _) in cli._CONFIG_FLAGS.items()}


def test_every_config_field_is_set_by_a_reader():
    # A config field no reader sets is a constant with the cost of a
    # setting, as a parameter is.  A field counts as set when some
    # ExperimentConfig(...) call passes it by keyword an expression other
    # than its default's, or when a subcommand sets it from a flag of
    # cli._CONFIG_FLAGS.
    fields, flags = _config_fields()
    passed = defaultdict(set)
    for name, node in _reader_calls():
        if name == "ExperimentConfig":
            for kw in node.keywords:
                passed[kw.arg].add(ast.unparse(kw.value))
    unset = [field for field, default in fields
             if field not in flags and not passed[field] - {default}]
    assert sorted(unset) == sorted(FIELDS_ALLOWED), (
        f"config fields no reader sets: {sorted(set(unset) - set(FIELDS_ALLOWED))}; "
        f"allowed but now set: {sorted(set(FIELDS_ALLOWED) - set(unset))}")


# Handlers that do not end in raise, by top-level definition, with the
# reason they stay.
SWALLOWED_ALLOWED = {
    "sections.construct_section_chain":
        "a package failure inside a level ends the chain: it is returned with "
        "the levels built before and records the level, the cause's type and "
        "its message in SectionChain.broken, which chains.json and every "
        "NodeSections carry",
}


def test_every_handler_reraises():
    swallowed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            swallowed += [
                f"{path.stem}.{getattr(node, 'name', node.lineno)}"
                for sub in ast.walk(node)
                if isinstance(sub, ast.ExceptHandler) and not isinstance(sub.body[-1], ast.Raise)
            ]
    assert sorted(swallowed) == sorted(SWALLOWED_ALLOWED), (
        f"handlers that do not re-raise: {sorted(set(swallowed) - set(SWALLOWED_ALLOWED))}; "
        f"allowed but now re-raise: {sorted(set(SWALLOWED_ALLOWED) - set(swallowed))}")
