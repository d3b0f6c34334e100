"""Every function, class and method of the package is reached from a root.

The roots are the ``vcycles`` entry point, the verdict
``check_networkgenset``, the package's module-level code, and every name
that the demos, the scripts and the benchmark mention; the benchmark binds
functions by string, so identifier strings count as names.  A definition
that is reached makes every name its body mentions reached, whatever the
module: matching by name alone errs toward keeping code.  A method is a
definition of its own, reached by its name like any other; a dunder method
is part of its class's body, since Python calls it without naming it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vanishingcycles"
USERS = ("demos", "scripts", "bench")

# the ``vcycles`` console script and the verdict
ROOTS = {"main", "check_networkgenset"}

# kept without a caller among the roots, each for its reason; what they
# use is reached through them
ALLOWED = {
    "network_from_json": "reads back what the `network` subcommand writes "
                         "with network_to_json",
    "report_json": "the canonical report bytes, identical across unimodular "
                   "images, that tests/data/reports.json pins",
    "convex_hull": "the public constructor of a polygon from any point set, "
                   "which validates its points; the test corpora build their "
                   "hulls with it, and the inner hull skips its validation",
}


def _names(node) -> set:
    """The identifiers a syntax tree mentions: names, attributes, imported
    names, and the dotted parts of string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(p for p in sub.value.split(".") if p.isidentifier())
    return out


def _is_method(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _package():
    """The definitions by name, as (qualified name, names its body mentions)
    pairs, and the names mentioned by the module-level code that runs on
    import.  A class's names leave out those of its methods."""
    defs, module_level = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if _is_method(m)]
                for m in methods:
                    defs.setdefault(m.name, []).append(
                        (f"{path.stem}.{node.name}.{m.name}", _names(m)))
                body = [n for n in node.body if n not in methods]
                names = set().union(*map(_names, node.bases + node.keywords
                                         + node.decorator_list + body))
                defs.setdefault(node.name, []).append(
                    (f"{path.stem}.{node.name}", names))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(
                    (f"{path.stem}.{node.name}", _names(node)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue    # a binding, not a use
            elif not (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
                module_level |= _names(node)
    return defs, module_level


def _reached(defs, roots) -> set:
    reached, frontier = set(roots), list(roots)
    while frontier:
        for _, names in defs.get(frontier.pop(), ()):
            fresh = names - reached
            reached |= fresh
            frontier.extend(fresh)
    return reached


def _user_names() -> set:
    out = set()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            out |= _names(ast.parse(path.read_text()))
    return out


def test_every_definition_is_reached_from_a_root():
    defs, module_level = _package()
    roots = ROOTS | module_level | _user_names()
    reached = _reached(defs, roots | set(ALLOWED))
    unreached = sorted(qualified for name, where in defs.items()
                       for qualified, _ in where
                       if name not in reached and name not in ALLOWED)
    assert not unreached, ("no root reaches these definitions; delete them, "
                           f"or move a test oracle to tests/: {unreached}")
    # an entry that a root reaches, or that is gone, needs no reason
    by_roots = _reached(defs, roots)
    stale = [name for name in ALLOWED if name not in defs or name in by_roots]
    assert not stale, f"stale allowlist entries: {stale}"
