"""Every public name in ``platoon_lab`` has a caller in the program itself,
the program imports nothing beyond the standard library and numpy, and only
``output`` opens files for writing.

A public top-level function or class, or a public method, must be referenced
somewhere in ``src/platoon_lab`` outside its own definition; re-exports in
``__init__.py`` do not count.  Code that only tests call belongs in
``tests/`` (as an oracle or a helper), not in the library.  References are
matched by identifier, so a name shared with an unrelated attribute counts
as used; the check catches API that nothing mentions, not every dead path.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import platoon_lab

SRC = Path(platoon_lab.__file__).parent

# Public names the program never calls, each with its reason to stay.
ALLOWED = {
    # a lookup site of the benchmark's span tracer (perfbench/tracing.py);
    # maps.actuate clamps to the map's edge rows and calls no kernel behind
    # it (its np.interp counts as a caller of maps.interp, matched by name)
    "invert",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _identifiers(tree) -> Counter:
    """Occurrences of names, attributes and imported names in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _public_definitions(tree):
    """(qualified name, node) of public top-level defs and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def test_every_public_name_has_a_caller_in_src():
    modules = _modules()
    total = sum((_identifiers(tree) for tree in modules.values()), Counter())
    unused = {}
    for module, tree in modules.items():
        for qualname, node in _public_definitions(tree):
            # a definition's own body (recursion) is not a caller
            if total[node.name] == _identifiers(node)[node.name]:
                unused[node.name] = f"{module}.{qualname}"
    called_only_by_tests = sorted(v for k, v in unused.items() if k not in ALLOWED)
    assert not called_only_by_tests, (
        f"no caller in src/: {called_only_by_tests}; wire each into the program, "
        "move it into tests/, or delete it")
    # an entry that gained a caller, or was deleted, leaves the list
    assert set(unused) == ALLOWED


def test_program_imports_only_stdlib_and_numpy():
    # scipy is the tests' oracle, not a dependency: every import in src/,
    # at module level or inside a function (a lazy import on a branch no
    # command test reaches), must come from the standard library, numpy or
    # the package itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "platoon_lab"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


def _file_writes(tree):
    """(line, call) of every call that opens a file for writing: an open() or
    Path.open() whose mode is not a literal without "w", "a", "x" or "+", and
    every write_text / write_bytes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            yield node.lineno, node
        elif name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), p.open(mode)
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and not set("wax+") & set(mode.value)):
                yield node.lineno, node


def test_only_output_writes_files():
    # one writer fixes every artifact's encoding and line endings: text mode
    # without newline="" would translate each "\n" to the platform's ending
    modules = _modules()
    elsewhere = [f"{module}.py:{line}" for module, tree in modules.items()
                 if module != "output" for line, _ in _file_writes(tree)]
    assert not elsewhere, f"files written outside output.py: {elsewhere}"
    writes = list(_file_writes(modules["output"]))
    assert len(writes) == 1, f"output.py opens files for writing at {[w[0] for w in writes]}"
    newline = [k.value for k in writes[0][1].keywords if k.arg == "newline"]
    assert len(newline) == 1 and isinstance(newline[0], ast.Constant) and newline[0].value == ""


# Defaulted parameters no call in src/ sets, each with its reason to stay.
ALLOWED_DEFAULTS = {
    # the console-script entry point: the installed `platoon-lab` script calls
    # main() with no argument, and tests pass their own argv
    "cli.main(argv)",
}


def _defaulted(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of ``node`` that has a default;
    the position among positional parameters, None for keyword-only ones."""
    positional = [a.arg for a in node.args.posonlyargs + node.args.args]
    first = len(positional) - len(node.args.defaults)
    return ([(name, first + i) for i, name in enumerate(positional[first:])]
            + [(a.arg, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
               if d is not None])


def test_every_defaulted_parameter_is_set_in_src():
    # a default that no call in the program overrides is a constant in
    # disguise.  Calls match definitions by name, as above; a call through
    # an attribute (obj.method(...)) writes its positions after self, and a
    # call that spreads *args or **kwargs counts as setting every parameter.
    modules = _modules()
    calls = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = set()
    for module, tree in modules.items():
        methods = {id(member) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for member in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            shift = 1 if id(node) in methods else 0
            for param, position in _defaulted(node):
                if not any(any(k.arg in (param, None) for k in call.keywords)
                           or any(isinstance(a, ast.Starred) for a in call.args)
                           or (position is not None and len(call.args) > position - shift)
                           for call in calls.get(node.name, [])):
                    unset.add(f"{module}.{node.name}({param})")
    assert unset == ALLOWED_DEFAULTS, (
        f"defaulted parameters no call in src/ sets: {sorted(unset - ALLOWED_DEFAULTS)}; "
        "make each a constant or pass it from a caller")


# Functions of src/ that read a gain (k_a, k_v, k_p), each with its reason.
GAIN_READERS = {
    # validation
    "control.Gains.__post_init__", "sim.PlatoonConfig.__post_init__",
    # the control law itself, written once as its affine split
    "sim.link_decomposition",
    # the chain's transfer functions, a second transcription of the law
    "stability._denominator", "stability.build_error_system",
    # k_a alone sets the minimum headway h_min
    "cli._headway_table",
}


def _gain_reads(tree, prefix: str):
    """Qualified name of the function around each read of .k_a, .k_v or .k_p;
    a read outside any function is named by its module alone."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}")
            else:
                if (isinstance(child, ast.Attribute) and child.attr in ("k_a", "k_v", "k_p")
                        and isinstance(child.ctx, ast.Load)):
                    yield scope
                yield from walk(child, scope)
    yield from walk(tree, prefix)


def test_one_place_writes_the_control_law():
    # the law's coefficients come from link_decomposition alone; any other
    # function that reads a gain is a second copy of the law, unless it is
    # listed above with its reason
    readers = {scope for module, tree in _modules().items()
               for scope in _gain_reads(tree, module)}
    assert readers <= GAIN_READERS, (
        f"gains read outside the allow-list: {sorted(readers - GAIN_READERS)}; "
        "take the law from sim.link_decomposition")
    # an entry that stopped reading gains leaves the list
    assert readers == GAIN_READERS
