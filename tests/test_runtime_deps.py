"""The package needs only numpy and the standard library at run time."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# lists the top-level modules that importing the package and its CLI adds to
# a fresh interpreter, less what the interpreter had loaded on its own (a
# site hook may load third-party modules before any import runs)
PROBE = """
import json, sys
before = set(sys.modules)
import subsvdd, subsvdd.cli
main = sys.modules["__main__"]
added = {name for name in set(sys.modules) - before if sys.modules[name] is not main}
print(json.dumps(sorted({name.split(".")[0] for name in added})))
"""


def test_import_adds_only_stdlib_and_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = json.loads(out)
    assert "subsvdd" in added and "numpy" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "subsvdd"}
    assert [name for name in added if name not in allowed] == []
