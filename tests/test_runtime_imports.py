"""Every ``repro`` module imports in a runtime-only install.

``pyproject.toml`` lists pytest and hypothesis only under the ``dev``
extra, so no module under ``src`` may import them. The walk runs in a
fresh interpreter with both names blocked in ``sys.modules``; run this
file directly (``python tests/test_runtime_imports.py``) to walk
whichever ``repro`` the interpreter finds, as CI does after
``pip install .``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Blocks the dev-only packages, then imports every module of the
#: package. ``repro.__main__`` is skipped: importing it runs the CLI.
WALK = """
import sys
sys.modules["pytest"] = sys.modules["hypothesis"] = None
import importlib
import pkgutil
import repro

def _raise(name):
    raise

names = [module.name for module in pkgutil.walk_packages(
    repro.__path__, "repro.", onerror=_raise)
    if module.name != "repro.__main__"]
for name in names:
    importlib.import_module(name)
print(f"imported repro and {len(names)} submodules "
      f"without pytest or hypothesis")
"""


def test_every_module_imports_without_dev_packages():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", WALK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "without pytest or hypothesis" in done.stdout


if __name__ == "__main__":
    exec(WALK)
