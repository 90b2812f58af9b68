"""Source hygiene checks on src/ldpsurf, built on the standard library's ast.

Each library module (the package __init__, which re-exports, is skipped)
must reference every name it imports, every module-level private function
and every name assigned at module level (type aliases, constants) must be
referenced somewhere in src/ outside its own body or assignment, every
module-level public function or class must be exported by the package or be
so referenced, and every exported name must be so referenced or be listed,
with its reason, among the exports kept without a consumer.  Likewise every
public method, property and annotated field of a class must be loaded as an
attribute somewhere in src/ outside its own definition, or be listed.  Each
private name that one module imports from another is listed with its reason.
No function nested in another reads its own name.  Every class but the
exceptions has __slots__ of its own, so it keeps no per-instance __dict__,
and assigning any of its fields raises AttributeError.
"""

import ast
import collections
import importlib
import pathlib
import types

import pytest

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


# Private names one module imports from another, each for the reason given.
PRIVATE_IMPORTS = {}


def test_every_private_cross_module_import_is_listed():
    imported = {
        f"{node.module}.{alias.name}"
        for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names if alias.name.startswith("_")}
    assert imported == set(PRIVATE_IMPORTS), (
        f"unlisted: {sorted(imported - set(PRIVATE_IMPORTS))}, "
        f"no longer imported: {sorted(set(PRIVATE_IMPORTS) - imported)}")


# Exports with no consumer in src/, each kept for the reason given.
EXPORTS_WITHOUT_CONSUMER = {
    "sum_fibers": "named by perfbench TRACED; goes with ROADMAP item 1/6",
    "format_ideal": "named by perfbench TRACED; goes with ROADMAP item 1/6",
    "surfaces_isomorphic": "named by perfbench TRACED; goes with ROADMAP "
                           "item 1/6",
    "enumerate_one_singularity": "each polygon with its classification, "
                                 "where the CLI reads only the counts; "
                                 "named by perfbench TRACED",
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


# Public class members with no reader in src/, each kept for the reason given.
MEMBERS_WITHOUT_READER = {
    "TableRow.astuple": "perfbench's tests read it; goes with ROADMAP item 1",
}


def _public_members(cls: ast.ClassDef):
    """The class's public methods and properties as their definitions, and
    its annotated fields (__slots__ or NamedTuple) as their annotations."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)
              and not node.target.id.startswith("_")):
            yield node.target.id, node


def test_every_public_member_is_read():
    loads = collections.Counter(
        sub.attr for tree in TREES.values() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
    # C._fields reads every field of C by name
    fields_read = {
        sub.value.id for tree in TREES.values() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and sub.attr == "_fields"
        and isinstance(sub.value, ast.Name)}
    unread = []
    for name, tree in MODULES.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member, node in _public_members(cls):
                own = sum(1 for sub in ast.walk(node)
                          if isinstance(sub, ast.Attribute)
                          and isinstance(sub.ctx, ast.Load)
                          and sub.attr == member)
                qualified = f"{cls.name}.{member}"
                is_field = isinstance(node, ast.AnnAssign)
                if (loads[member] == own
                        and not (is_field and cls.name in fields_read)
                        and qualified not in MEMBERS_WITHOUT_READER):
                    unread.append(f"{name}:{node.lineno} {qualified}")
    assert not unread, f"public members read nowhere in src/: {unread}"


def test_no_nested_function_reads_its_own_name():
    # a def nested in a function that reads its own name, to recurse, sits
    # in a reference cycle through its closure cell: it and everything it
    # closes over stay alive until the cyclic collector runs
    cyclic = set()
    for name, tree in TREES.items():
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(sub, ast.Name)
                                and isinstance(sub.ctx, ast.Load)
                                and sub.id == inner.name
                                for sub in ast.walk(inner))):
                    cyclic.add(f"{name}:{inner.lineno} {inner.name}")
    assert not cyclic, f"nested functions reading their own name: {cyclic}"


def _instances() -> list:
    """One instance of each class of src/ldpsurf that has fields, built
    through the public API."""
    poly = ldpsurf.canonical_polygon(3, 2)
    data = ldpsurf.ldp_analyze(poly)
    analysis, e = data.analysis, ldpsurf.embedding_data(data)
    return [poly, ldpsurf.mirror_quad_map(2), analysis.cone_data[0], analysis,
            data, ldpsurf.classify_one_singularity(analysis), e,
            ldpsurf.minimal_system(e), ldpsurf.table_formulas(1, 1),
            ldpsurf.count_lattice_points(poly)]


def test_every_class_has_slots_and_frozen_fields():
    instances = {type(obj): obj for obj in _instances()}
    checked, missing = [], []
    for name in MODULES:
        mod = importlib.import_module(f"ldpsurf.{name[:-3]}")
        for cls in vars(mod).values():
            if (not isinstance(cls, type) or cls.__module__ != mod.__name__
                    or issubclass(cls, BaseException)):
                continue
            checked.append(cls.__name__)
            if "__slots__" not in vars(cls):
                missing.append(f"{name} {cls.__name__}")
                continue
            fields = getattr(cls, "_fields", cls.__slots__)
            if not fields:  # a base with no fields of its own
                continue
            assert cls in instances, f"no instance of {cls.__name__} to check"
            obj = instances[cls]
            for field in (*fields, "not_a_field"):
                with pytest.raises(AttributeError):
                    setattr(obj, field, None)
    assert {"LatticePolygon", "ConeData", "FanAnalysis",
            "EmbeddingData"} <= set(checked)
    assert not missing, f"classes without __slots__ of their own: {missing}"
