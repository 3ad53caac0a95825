"""What importing the package costs, and the names the benchmark imports.

``import mginv`` runs once per ``mginv`` process, before any graph is
read, so a module-level import of a heavy standard-library package is paid
by every command. The benchmark scripts under ``bench/`` import names from
``mginv``; a rename that breaks one of those imports makes every benchmark
workload fail, so it is caught here, without importing ``bench/``.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: packages only ``search`` (hashlib) or ``search --workers > 1`` (the
#: process pool) use, and packages no command needs (``dataclasses`` pulls
#: in ``inspect``); ``import mginv, mginv.cli`` must not load them
NOT_LOADED = ("concurrent.futures", "multiprocessing", "hashlib",
            "dataclasses", "inspect", "typing")

_NEW_MODULES = ("import json, sys; sys.path.insert(0, {src!r}); "
                "before = set(sys.modules); import mginv, mginv.cli; "
                "print(json.dumps(sorted(set(sys.modules) - before)))")


def test_import_loads_no_deferred_package():
    # a fresh isolated interpreter, as the benchmark times the import; and
    # one without site, whose .pth files may load typing and others first
    for flags in (["-I"], ["-I", "-S"]):
        done = subprocess.run([sys.executable, *flags, "-c",
                               _NEW_MODULES.format(src=str(SRC))],
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        loaded = set(json.loads(done.stdout))
        assert "mginv.cli" in loaded
        for name in NOT_LOADED:
            hits = sorted(m for m in loaded if m == name or m.startswith(name + "."))
            assert not hits, f"{flags}: import mginv, mginv.cli loads {hits}"


def mginv_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every ``from mginv.X import name`` in a file, and
    (module, None) for every ``import mginv.X``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "mginv":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "mginv"]
    return found


@pytest.mark.parametrize("script", ["inputs.py", "check.py", "run.py"])
def test_bench_imports_resolve(script):
    imports = mginv_imports(ROOT / "bench" / script)
    assert imports, f"bench/{script} imports nothing from mginv"
    for module, name in imports:
        loaded = importlib.import_module(module)
        if name is not None:
            assert hasattr(loaded, name), f"bench/{script}: {module} has no {name!r}"
