"""Lazy package exports: the import boundary and the export contract.

Every check runs in a fresh interpreter: by the time it runs, the test
session has already imported most of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _run(code: str):
    """Run *code* in a fresh interpreter; return its last line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, env.get("PYTHONPATH")) if path)
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=False)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _modules_after(statements: str):
    return set(_run(f"import json, sys\n{statements}\n"
                    "print(json.dumps(sorted(sys.modules)))"))


class TestImportBoundary:
    def test_bare_import_loads_no_stack(self):
        loaded = _modules_after("import repro")
        for name in ("scipy", "repro.core", "repro.queueing", "repro.runner",
                     "repro.design", "repro.stochastic", "repro.crossval",
                     "repro.characteristics"):
            assert name not in loaded, name

    def test_building_a_matrix_loads_only_what_it_calls(self):
        loaded = _modules_after(
            "import repro.cli\n"
            "from repro.config import SystemParameters\n"
            "from repro.runner.experiments import get_matrix\n"
            "get_matrix('design-gain-grid').build(SystemParameters(), None, "
            "None)")
        assert "repro.runner.experiments" in loaded
        for name in ("scipy", "repro.queueing.simulator",
                     "repro.stochastic.ensemble", "repro.crossval"):
            assert name not in loaded, name


class TestExportContract:
    def test_bare_import_reaches_every_subpackage(self):
        missing = _run(
            "import json, pkgutil, types\n"
            "import repro\n"
            "print(json.dumps([m.name for m in pkgutil.iter_modules("
            "repro.__path__) if m.ispkg and not isinstance("
            "getattr(repro, m.name), types.ModuleType)]))")
        assert missing == []

    def test_every_package_export_resolves(self):
        problems = _run(
            "import importlib, json, pkgutil\n"
            "import repro\n"
            "packages = [repro] + [importlib.import_module(f'repro.{m.name}')"
            " for m in pkgutil.iter_modules(repro.__path__) if m.ispkg]\n"
            "problems = []\n"
            "for package in packages:\n"
            "    listed = set(dir(package))\n"
            "    for name in package.__all__:\n"
            "        if not hasattr(package, name) or name not in listed:\n"
            "            problems.append(f'{package.__name__}.{name}')\n"
            "print(json.dumps(problems))")
        assert problems == []

    def test_star_import_binds_all(self):
        missing = _run(
            "import json\n"
            "namespace = {}\n"
            "exec('from repro import *', namespace)\n"
            "import repro\n"
            "print(json.dumps([name for name in repro.__all__"
            " if namespace.get(name) is not getattr(repro, name)]))")
        assert missing == []

    @pytest.mark.parametrize("name", ["no_such_export", "__wrapped__"])
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(repro.core, name)
        assert not hasattr(repro, name)
