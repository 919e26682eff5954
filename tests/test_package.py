import json
import subprocess
import sys
from pathlib import Path

import botgrid

SURFACE = """
import json, sys, types
import botgrid
package = sorted(m for m in sys.modules if m.startswith("botgrid"))
import botgrid.cli
cli = sorted(m for m in sys.modules if m.startswith("botgrid"))
not_submodules = sorted(
    name for name, value in vars(botgrid).items() if not name.startswith("_")
    and not (isinstance(value, types.ModuleType) and value.__name__ == f"botgrid.{name}")
)
print(json.dumps([package, cli, not_submodules, "__version__" in vars(botgrid)]))
"""


def test_import_botgrid_loads_the_pipeline_and_names_only_modules():
    """`import botgrid` loads every module that `import botgrid.cli` loads
    but the CLI itself.  perfbench's import probe times `import botgrid` as
    the pipeline's start-up cost, so this keeps the probe honest until
    ROADMAP item 1 moves it to `botgrid.cli`.  And the package re-exports
    nothing: its public names are `__version__` and its submodules."""
    # In a fresh interpreter `import botgrid.cli` first runs `import botgrid`,
    # so what the second import adds is what the CLI loads beyond it.
    run = subprocess.run(
        [sys.executable, "-c", SURFACE], capture_output=True, text=True, timeout=120,
        cwd=Path(botgrid.__file__).resolve().parents[1],
    )
    assert run.returncode == 0, run.stderr
    package, cli, not_submodules, has_version = json.loads(run.stdout)
    assert package == sorted(set(cli) - {"botgrid.cli"})
    assert not_submodules == []
    assert has_version
