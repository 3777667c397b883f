import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cy5bps

MODULES = ["cy5bps"] + [f"cy5bps.{info.name}" for info in pkgutil.iter_modules(cy5bps.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


SRC = Path(__file__).resolve().parent.parent / "src"

# In a fresh interpreter: the stdlib modules that importing the package or its
# CLI loads, of those it needs none of.  Site hooks may preload some of them,
# so only modules absent before the import count.  Every submodule but the
# CLI's is still loaded by `import cy5bps`, so nothing is deferred to first use.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import cy5bps
loaded = set(sys.modules)
import cy5bps.cli
added = set(sys.modules) - before
print(sorted(added & {"dataclasses", "inspect", "typing"}))
print(sorted(name for name in set(sys.modules) - loaded if name.startswith("cy5bps")))
print(hasattr(cy5bps, "__getattr__"))
"""


def test_import_loads_no_unused_stdlib_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "['cy5bps.cli']", "False"]
