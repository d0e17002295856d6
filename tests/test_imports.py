"""Every name a module of the package imports, it uses: a leftover import
from a deletion fails here. Only the standard library's ``ast`` reads the
sources, so no linter is needed."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subsvdd"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# imported for others to import from here: tests take parse_method from pipeline
RE_EXPORTS = {"pipeline": {"parse_method"}}


def unused_imports(source):
    """The names ``source`` binds by an import and never reads, less those
    its ``__all__`` lists."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - exported - {"annotations"}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text())
    assert unused == RE_EXPORTS.get(module, set())


@pytest.mark.parametrize("source, unused", [
    ("import os\nimport json\njson.dumps(1)\n", {"os"}),
    ("from a import b as c, d\nd()\n", {"c"}),
    ("import os.path\nos.path.join('a')\n", set()),
    ("from __future__ import annotations\nfrom a import T\ndef f(x: T): pass\n", set()),
    ("from a import b\n__all__ = ['b']\n", set()),
], ids=["module", "alias", "dotted", "annotation", "all"])
def test_the_scan_finds_what_is_unused(source, unused):
    assert unused_imports(source) == unused
