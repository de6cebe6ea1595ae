"""Every public name in ``platoon_lab`` has a caller in the program itself,
and the program imports nothing beyond the standard library and numpy.

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
