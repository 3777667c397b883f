import importlib
import json
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

# In a fresh interpreter, step by step: the cy5bps modules that a bare
# `import cy5bps` loads; the modules that importing the CLI and running
# `verify-localization` add; then the stdlib modules, of those the package
# needs none of, that touching every exported name adds.  Site hooks may
# preload some stdlib modules, so only modules absent before the import count.
_IMPORT_PROBE = """
import os, sys
before = set(sys.modules)
import cy5bps
bare = set(sys.modules) - before
import cy5bps.cli
cy5bps.cli.main(["verify-localization", "--max-degree", "2", "--output", os.devnull])
verify = set(sys.modules) - before
for name in cy5bps.__all__:
    getattr(cy5bps, name)
touched = set(sys.modules) - before
import json
print(json.dumps({
    "bare": sorted(name for name in bare if name.startswith("cy5bps")),
    "verify": sorted(verify & {"cy5bps.engine", "json"}),
    "unused": sorted(touched & {"dataclasses", "inspect", "typing"}),
}))
"""

# In a fresh interpreter: perfbench's set-up probe first (it reads
# `cy5bps.rational.Rat.__module__` right after a bare import), then dir(),
# then every submodule named on the command line as an attribute.
_ATTRIBUTE_PROBE = """
import sys
import cy5bps
print(cy5bps.rational.Rat.__module__)
print(set(cy5bps.__all__) | {"__all__"} <= set(dir(cy5bps)))
print(all(getattr(cy5bps, name) is sys.modules["cy5bps." + name] for name in sys.argv[1:]))
"""


def _probe(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def import_probe():
    return json.loads(_probe(_IMPORT_PROBE))


def test_bare_import_loads_no_submodule(import_probe):
    assert import_probe["bare"] == ["cy5bps"]


def test_import_loads_no_unused_stdlib_modules(import_probe):
    assert import_probe["unused"] == []


def test_verify_localization_loads_neither_the_engine_nor_json(import_probe):
    assert import_probe["verify"] == []


def test_submodules_resolve_as_attributes_of_a_bare_import():
    names = [name.removeprefix("cy5bps.") for name in MODULES[1:]]
    assert _probe(_ATTRIBUTE_PROBE, *names).splitlines() == ["fractions", "True", "True"]


@pytest.mark.parametrize("name", [n for n in cy5bps.__all__ if n != "__version__"])
def test_exported_name_is_its_defining_modules_object(name):
    owners = [m for m in map(importlib.import_module, MODULES[1:]) if name in getattr(m, "__all__", [])]
    assert len(owners) == 1
    assert getattr(cy5bps, name) is getattr(owners[0], name)
