"""Every module of the package imports on its own.

Each module is imported first thing in a fresh interpreter, so an
import cycle that only bites when a particular module is imported first
(the registry reached while one of the modules it imports is still
half-initialised) fails here even when the suite, which imports
``repro`` in another order, never sees it.
"""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
)


def import_alone(name):
    """``None`` if ``import name`` succeeds in a fresh interpreter, else
    the last line of its traceback."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        capture_output=True, text=True, env=env,
    )
    if run.returncode == 0:
        return None
    return (run.stderr.strip().splitlines() or ["(no output)"])[-1]


def test_every_module_imports_alone():
    assert len(MODULES) > 50
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        errors = dict(zip(MODULES, pool.map(import_alone, MODULES)))
    failed = {name: err for name, err in errors.items() if err is not None}
    assert not failed, failed
