"""Every top-level import of the library is used, and its public names resolve.

No linter ships with the project, so this reads each module with ``ast``.
A top-level import counts as used when the module names it anywhere (in
code or in an annotation); in ``__init__`` a name listed in ``__all__`` is
used too, since re-exporting it is the point of the import.  The packed
int64 keys of the exterior engine stay inside ``exterior.py``: no other
module imports or reaches the names that read or write them.  Likewise
``rho_denominator``, the divisor of the Weyl product, is named only in
``rootsys.py``, which defines it, and ``weyl.py``, so every dimension comes
from ``weyl.weyl_dims``; and the int64 bound ``2**63`` is
written only in ``exterior.py`` and ``weyl.py``, so every other module
leaves the int64-or-exact choice to their routines.
The scalar references ``pairing`` and ``degree_by_inversions``, which tests
compare against, are named only in ``weyl.py`` and ``__init__``.  The
output format stays inside ``cli.py``: no other module names ``SCHEMA``,
defines a ``to_json_dict`` or writes a ``"schema"`` key.  In ``cli.py`` only
``main`` resolves the shared inputs and builds the failure record, so no
subcommand grows an input or exit path of its own.
"""

import ast
from pathlib import Path

import pytest

import rootcoh

SRC = Path(__file__).resolve().parents[1] / "src" / "rootcoh"
MODULES = sorted(SRC.glob("*.py"))


def _top_level_imports(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _all_of(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_the_library_has_modules():
    assert SRC / "__init__.py" in MODULES and len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name == "__init__.py":
        named |= set(_all_of(tree))
    unused = [name for name in _top_level_imports(tree) if name not in named]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_every_public_name_resolves():
    assert len(set(rootcoh.__all__)) == len(rootcoh.__all__)
    missing = [name for name in rootcoh.__all__ if not hasattr(rootcoh, name)]
    assert missing == []


#: Names that carry the packed-key format; only ``exterior.py`` may use them.
PACKED = {"sum_keys", "encode_vectors", "decode_vectors", "_fields", "_layers"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_packed_keys_stay_in_exterior(path):
    if path.name == "exterior.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and str(node.module).endswith("exterior"):
            used |= {a.name for a in node.names} & PACKED
        elif isinstance(node, ast.Attribute) and node.attr in PACKED:
            used.add(node.attr)
    assert not used, f"{path.name} reaches the packed-key format through {sorted(used)}"


def _named(path: Path, names: set[str]) -> set[str]:
    """The members of ``names`` that the module imports, reaches or names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
    return found & names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_weyl_product_stays_in_weyl(path):
    if path.name in ("rootsys.py", "weyl.py"):
        return
    named = _named(path, {"rho_denominator"})
    assert not named, f"{path.name} names rho_denominator; call weyl.weyl_dims instead"


def _is_two_to_63(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 2
            and isinstance(node.right, ast.Constant) and node.right.value == 63)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_int64_bound_stays_in_exterior_and_weyl(path):
    if path.name in ("exterior.py", "weyl.py"):
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if _is_two_to_63(node)]
    assert not found, (f"{path.name} writes 2**63 at lines {found}; "
                       "call exterior.translate or weyl.pairings instead")


#: Scalar references that tests compare the batched routines against.
SCALAR_REFERENCES = {"pairing", "degree_by_inversions"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_scalar_references_have_no_library_caller(path):
    if path.name in ("weyl.py", "__init__.py"):
        return
    named = _named(path, SCALAR_REFERENCES)
    assert not named, f"{path.name} names {sorted(named)}; call weyl.pairings instead"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_output_format_stays_in_cli(path):
    if path.name == "cli.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "SCHEMA":
            used.add("imports SCHEMA")
        elif isinstance(node, ast.Name) and node.id == "SCHEMA":
            used.add("names SCHEMA")
        elif isinstance(node, ast.Attribute) and node.attr == "SCHEMA":
            used.add("reaches SCHEMA")
        elif isinstance(node, ast.FunctionDef) and node.name.endswith("to_json_dict"):
            used.add(f"defines {node.name}")
        elif isinstance(node, (ast.Dict, ast.Subscript)):
            keys = node.keys if isinstance(node, ast.Dict) else [node.slice]
            if any(isinstance(k, ast.Constant) and k.value == "schema" for k in keys):
                used.add('writes a "schema" key')
    assert not used, f"{path.name} knows the output format: {sorted(used)}"


#: Calls that resolve a subcommand's shared inputs; only ``cli.main`` makes them.
RESOLVERS = {"root_system", "_parse_lambda"}


def _resolves_or_fails(node: ast.AST) -> list[str]:
    """The resolver calls and ``"kind": "failure"`` records under ``node``."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in RESOLVERS:
            found.append(n.func.id)
        elif isinstance(n, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "kind"
            and isinstance(v, ast.Constant) and v.value == "failure"
            for k, v in zip(n.keys, n.values)
        ):
            found.append("failure record")
    return found


def test_only_cli_main_resolves_inputs_and_builds_the_failure_record():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    elsewhere, in_main = {}, []
    for node in tree.body:
        found = _resolves_or_fails(node)
        if isinstance(node, ast.FunctionDef) and node.name == "main":
            in_main = found
        elif found:
            elsewhere[getattr(node, "name", type(node).__name__)] = found
    assert elsewhere == {}, f"only main may resolve inputs or fail: {elsewhere}"
    assert sorted(in_main) == ["_parse_lambda", "failure record", "root_system"]
