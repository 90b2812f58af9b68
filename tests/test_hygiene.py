"""Source hygiene checks on src/ldpsurf, built on the standard library's ast.

Each library module (the package __init__, which re-exports, is skipped)
must reference every name it imports, every module-level private function
and every name assigned at module level (type aliases, constants) must be
referenced somewhere in src/ outside its own body or assignment, every
module-level public function or class must be exported by the package or be
so referenced, and every exported name must be so referenced or be listed,
with its reason, among the exports kept without a consumer.
"""

import ast
import collections
import pathlib
import types

import ldpsurf

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ldpsurf"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(SRC.glob("*.py"))}
MODULES = {name: tree for name, tree in TREES.items() if name != "__init__.py"}


def _references(node) -> collections.Counter:
    """Names read anywhere under node, as bare names or attributes."""
    refs = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def test_every_imported_name_is_used():
    unused = []
    for name, tree in MODULES.items():
        refs = _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not refs[bound]:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, f"imported but never used: {unused}"


def test_every_private_function_is_called():
    refs = sum(map(_references, TREES.values()), collections.Counter())
    dead = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                if refs[node.name] == _references(node)[node.name]:
                    dead.append(f"{name}:{node.lineno} {node.name}")
    assert not dead, f"private functions referenced nowhere in src/: {dead}"


def test_every_public_definition_is_exported_or_used():
    refs = sum(map(_references, TREES.values()), collections.Counter())
    exported = set(ldpsurf.__all__)
    orphans = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in exported
                    and refs[node.name] == _references(node)[node.name]):
                orphans.append(f"{name}:{node.lineno} {node.name}")
    assert not orphans, f"public, not exported, used nowhere in src/: {orphans}"


def test_every_module_level_name_is_read():
    refs = sum(map(_references, TREES.values()), collections.Counter())
    unread = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Name) and refs[target.id]
                            == _references(node)[target.id]):
                        unread.append(f"{name}:{node.lineno} {target.id}")
    assert not unread, f"assigned, read nowhere else in src/: {unread}"


# Exports with no consumer in src/, each kept for the reason given.
EXPORTS_WITHOUT_CONSUMER = {
    "sum_fibers": "named by perfbench TRACED; goes with ROADMAP item 1/6",
    "format_ideal": "named by perfbench TRACED; goes with ROADMAP item 1/6",
    "apply_map": "named by perfbench TRACED; goes with ROADMAP item 1/6",
    "surfaces_isomorphic": "named by perfbench TRACED; goes with ROADMAP "
                           "item 1/6",
    "format_polygon_text": "writes the CLI's text input format",
    "index_parity_check": "the paper's index table; criterion 3 and item 4's "
                          "oracle",
}


def test_every_export_has_a_consumer():
    refs = sum(map(_references, MODULES.values()), collections.Counter())
    own = collections.Counter()
    for tree in MODULES.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[node.name] += _references(node)[node.name]
    unused = sorted(
        name for name in ldpsurf.__all__
        if not isinstance(getattr(ldpsurf, name), types.ModuleType)
        and refs[name] == own[name] and name not in EXPORTS_WITHOUT_CONSUMER)
    assert not unused, f"exported, used nowhere in src/: {unused}"
