"""Guards over the library source, read with the stdlib `ast` module.

Every name a module imports must be used in it, every private top-level
name (`_x`, not a dunder) must be referenced somewhere in the package, only
`VerifyReport` sets a verifier's tallies, no private function but
`_same_size` checks a partition, only `_hook_groups` scans strips in
`divisibility`, every public top-level function or class and every public
method or property of a top-level class is read somewhere in the package or
kept for a stated reason, no public top-level function declares a parameter
default unless kept for a stated reason, every cache that lives as long
as the process is named, with its bound, in `docs/formats.md`, every cache
named there lives, `cold_characters` empties every cache of
`characters`, only `cli` reads `build_table`, and the public `verify_*`
functions of `divisibility` are exactly those `cli._VERIFIERS` calls.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "charcore"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text()) for path in MODULES}


def _loaded_names(tree):
    """Names read in the tree: plain names, attribute names, names imported from."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _imported(tree):
    """(bound name, line) of every import outside `from __future__`."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_top_level(tree):
    """(name, line) of every top-level def, class or assignment named `_x`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = [(name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, f"{module}: imported and never used: {unused}"


def test_every_private_name_is_referenced():
    referenced = set().union(*map(_loaded_names, TREES.values()))
    dead = [
        (module, name, line)
        for module, tree in TREES.items()
        for name, line in _private_top_level(tree)
        if name not in referenced
    ]
    assert not dead, f"private names nothing references: {dead}"


# public names that no module but __init__.py reads, each with why it stays
KEPT_PUBLIC = {
    "to_partition": "acceptance criterion 2: the word-level Abacus API",
    "hooks_of_length": "acceptance criterion 2: the word-level Abacus API",
    "remove_border_strip": "acceptance criterion 2: the word-level Abacus API",
    "hook_lengths": "acceptance criterion 2: the hook row of the worked example",
    "skew_per_residue": "a bench/tracing.py target; the public m-quotient split",
    "count_skew_syt": "a bench/tracing.py target",
    "is_border_strip": "a bench/tracing.py target",
    "count_syt": "acceptance criterion 1: the degrees",
    "iter_box_skews": "acceptance criterion 7: the skews of a box",
    "verify_orthogonality": "acceptance criterion 1",
    "theorem1_pipeline": "the per-pair certificate: reduce mu, then the core test",
    "epsilon": "the paper's sign on partitions; the sweeps read _epsilon on masks",
}


def _public_top_level():
    """(module, name) of every top-level def or class not named `_x`."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield module, node.name


def test_every_public_name_is_read_or_kept_for_a_reason():
    read = set().union(
        *(_loaded_names(tree) for name, tree in TREES.items() if name != "__init__.py")
    )
    unread = sorted(
        f"{module[:-3]}.{name}"
        for module, name in _public_top_level()
        if name not in read and name not in KEPT_PUBLIC
    )
    assert not unread, f"public names nothing but __init__.py reads: {unread}"
    public = {name for _, name in _public_top_level()}
    stale = sorted(name for name in KEPT_PUBLIC if name not in public or name in read)
    assert not stale, f"KEPT_PUBLIC names that are gone or now read: {stale}"


# public methods and properties that no module but __init__.py reads as an
# attribute, each with why it stays
KEPT_MEMBERS: dict[str, str] = {}


def _public_members(tree):
    """(class, name, line) of every public method or property of a top-level class.

    Dataclass fields are assignments, not defs, and dunders start with `_`, so
    neither is listed.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, item.lineno


def test_member_finder_sees_each_kind():
    source = """
from dataclasses import dataclass
from functools import cached_property

@dataclass
class A:
    field: int = 0

    def __str__(self):
        return ""

    def method(self):
        return 1

    @property
    def prop(self):
        return 2

    @cached_property
    def cached(self):
        return 3

    @staticmethod
    def static():
        return 4

    def _private(self):
        return 5

def top():
    class Inner:
        def hidden(self):
            return 6
"""
    found = {(c, n) for c, n, _ in _public_members(ast.parse(source))}
    assert found == {("A", "method"), ("A", "prop"), ("A", "cached"), ("A", "static")}


def test_every_public_member_is_read_or_kept_for_a_reason():
    read = {
        node.attr
        for module, tree in TREES.items()
        if module != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    members = {
        f"{cls}.{name}": (module, name)
        for module, tree in TREES.items()
        for cls, name, _ in _public_members(tree)
    }
    unread = sorted(
        f"{module[:-3]}.{key}"
        for key, (module, name) in members.items()
        if name not in read and key not in KEPT_MEMBERS
    )
    assert not unread, f"public members nothing but __init__.py reads: {unread}"
    stale = sorted(
        key for key in KEPT_MEMBERS if key not in members or members[key][1] in read
    )
    assert not stale, f"KEPT_MEMBERS entries that are gone or now read: {stale}"


# public top-level functions that declare a parameter default, each with why
KEPT_DEFAULTS = {
    "cli.main": "argv=None: `python -m charcore` and the `charcore` script call "
    "it bare, while bench/worker.py and the tests pass argv",
}


def _defaulted(tree):
    """Name of every public top-level function that declares a parameter default."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            if args.defaults or any(d is not None for d in args.kw_defaults):
                yield node.name


def test_default_finder_sees_each_kind():
    source = """
def positional(a, b=1):
    pass

def keyword_only(a, *, b=1):
    pass

def required_keyword(a, *, b):
    pass

def _private(a=1):
    pass

class A:
    def method(self, a=1):
        pass
"""
    assert set(_defaulted(ast.parse(source))) == {"positional", "keyword_only"}


def test_no_public_function_declares_a_default_unless_kept():
    defaulted = {
        f"{module[:-3]}.{name}"
        for module, tree in TREES.items()
        for name in _defaulted(tree)
    }
    extra = sorted(defaulted - KEPT_DEFAULTS.keys())
    assert not extra, f"public functions that declare a parameter default: {extra}"
    stale = sorted(KEPT_DEFAULTS.keys() - defaulted)
    assert not stale, f"KEPT_DEFAULTS entries that are gone or take no default: {stale}"


TALLIES = {"checked", "violated", "witness"}


def _tally_stores(node):
    """(line, field) of every assignment to a verifier tally outside VerifyReport."""
    if isinstance(node, ast.ClassDef) and node.name == "VerifyReport":
        return
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr in TALLIES
    ):
        yield node.lineno, node.attr
    for child in ast.iter_child_nodes(node):
        yield from _tally_stores(child)


@pytest.mark.parametrize("module", sorted(TREES))
def test_verifiers_tally_only_through_verify_report(module):
    stores = list(_tally_stores(TREES[module]))
    assert not stores, f"{module}: tally set outside VerifyReport: {stores}"


def _calls_of(node, name):
    """Line of every call to the plain name `name` under node."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == name
        ):
            yield child.lineno


def test_private_functions_take_checked_partitions():
    # public entry points check what they are given; private helpers trust it
    checking = [
        (module, node.name, line)
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and node.name != "_same_size"
        for line in _calls_of(node, "check_partition")
    ]
    assert not checking, f"private functions that call check_partition: {checking}"


def test_only_the_hook_walk_scans_strips_in_divisibility():
    # one (even, odd) level loop: every other sweep reads `_hook_groups`
    scanning = [
        (node.name, line)
        for node in TREES["divisibility.py"].body
        if isinstance(node, ast.FunctionDef) and node.name != "_hook_groups"
        for line in _calls_of(node, "strip_removals")
    ]
    assert not scanning, f"divisibility functions that call strip_removals: {scanning}"


def _witness_lambdas(tree):
    """Every lambda handed to a `.check` call: a verifier's witness."""
    return {
        id(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "check"
        for arg in node.args
        if isinstance(arg, ast.Lambda)
    }


def _reads_outside(node, name, skipped):
    """Line of every read of the plain name `name` under node, outside `skipped`."""
    if id(node) in skipped:
        return
    if isinstance(node, ast.Name) and node.id == name:
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _reads_outside(child, name, skipped)


def test_witness_finder_skips_only_checked_lambdas():
    tree = ast.parse(
        """
def sweep(report, w):
    report.check(True, lambda: decode(w))
    report.check(True, {"x": decode(w)})
    return (lambda: decode(w))()
"""
    )
    lines = list(_reads_outside(tree, "decode", _witness_lambdas(tree)))
    assert lines == [4, 5]


def test_divisibility_sweeps_stay_on_masks_and_runner_levels():
    # a target mask is decoded to a partition only for a witness, or for the
    # caller of enumerate_hook_sequences, which asks for partitions
    tree = TREES["divisibility.py"]
    witnesses = _witness_lambdas(tree)
    decoding = [
        (node.name, line)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name != "enumerate_hook_sequences"
        for line in _reads_outside(node, "mask_partition", witnesses)
    ]
    assert not decoding, f"divisibility functions that decode a mask: {decoding}"
    imported = {name for name, _ in _imported(tree)}
    assert "_bead_partition" not in imported, "divisibility imports _bead_partition"


CACHE_DECORATORS = {"cache", "lru_cache"}
MUTATORS = {"append", "extend", "insert", "setdefault", "update", "pop", "clear", "add"}


def _process_caches(tree, functions):
    """Every cache in the tree that lives as long as the process.

    That is each top-level function decorated with `cache` or `lru_cache`,
    and each top-level list, dict or set display that a function changes:
    through a mutating method, a subscript store, or by handing it to one of
    `functions` (the package's own top-level functions), which may fill it.
    """
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if getattr(d, "id", getattr(d, "attr", None)) in CACHE_DECORATORS:
                    yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node.value, (ast.List, ast.Dict, ast.Set)):
                containers.update(t.id for t in targets if isinstance(t, ast.Name))
    changed = set()
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr in MUTATORS:
                    changed.add(getattr(f.value, "id", None))
                elif isinstance(f, ast.Name) and f.id in functions:
                    changed.update(getattr(a, "id", None) for a in node.args)
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                changed.add(getattr(node.value, "id", None))
    yield from sorted(containers & changed)


def _package_functions():
    return {
        node.name
        for tree in TREES.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def test_cache_finder_sees_each_kind():
    source = """
from functools import cache, lru_cache

@cache
def a(x):
    return x

@lru_cache(maxsize=None)
def b(x):
    return x

_STORED = {}
_APPENDED = []
_HANDED = {}
_READ = {}
_FILLED: list = []

def c(x):
    _STORED[x] = _READ[x] + len(_READ)
    _APPENDED.append(x)
    d(_HANDED)
    return tuple(_READ)

def d(memo):
    _FILLED.extend(memo)
"""
    found = set(_process_caches(ast.parse(source), {"a", "b", "c", "d"}))
    assert found == {"a", "b", "_STORED", "_APPENDED", "_HANDED", "_FILLED"}


def _cache_section():
    section = (ROOT / "docs" / "formats.md").read_text()
    return section.split("## Process-lifetime caches")[1].split("\n## ")[0]


def _live_caches():
    """`module.name` of every process-lifetime cache in the package."""
    functions = _package_functions()
    return {
        f"{module[:-3]}.{name}"
        for module, tree in TREES.items()
        for name in _process_caches(tree, functions)
    }


def test_process_caches_are_documented_with_their_bounds():
    section = _cache_section()
    missing = sorted(c for c in _live_caches() if f"`{c}`" not in section)
    assert not missing, f"caches not named under Process-lifetime caches: {missing}"


def test_documented_caches_are_live():
    # the first cell of each row of the cache table
    named = {
        name
        for line in _cache_section().splitlines()
        if line.startswith("| `")
        for name in re.findall(r"`(\w+\.\w+)`", line.split("|")[1])
    }
    stale = sorted(named - _live_caches())
    assert not stale, f"named under Process-lifetime caches, but no cache: {stale}"


def test_cold_characters_clears_every_characters_cache():
    import conftest

    found = _process_caches(TREES["characters.py"], _package_functions())
    assert sorted(conftest.CHARACTER_CACHES) == sorted(found)


def test_only_the_table_command_builds_a_whole_table():
    # every other caller reads the columns one at a time
    readers = sorted(
        module
        for module, tree in TREES.items()
        if module != "__init__.py" and "build_table" in _loaded_names(tree)
    )
    assert readers == ["cli.py"], f"modules that read build_table: {readers}"


def test_each_verify_lemma_has_one_library_entry():
    # a second public verifier of a lemma is a cross-check, kept in oracles.py
    table = next(
        node.value
        for node in TREES["cli.py"].body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "_VERIFIERS" for t in node.targets)
    )
    called = {
        node.attr
        for node in ast.walk(table)
        if isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "divisibility"
    }
    public = {
        node.name
        for node in TREES["divisibility.py"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")
    }
    assert len(called) == len(table.keys) == 7
    assert public == called, f"verify_* unlike _VERIFIERS: {sorted(public ^ called)}"
