"""The package names the benchmark wraps and reads must exist.

``perfbench/run.py`` wraps a fixed list of package functions by name
(``traced_layers``), and its ``cli_chain`` workload reads ``DesignSpec``
attributes as it builds its asthma leaves and its steps.  Deleting or
renaming one of them breaks the benchmark run; this test makes that a
fast failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import run
chain = run.CliChain(seed=1, n=50, work=Path("unused"))
chain.steps(chain.work / "op0", 0)
chain._asthma_leaves(run.simulate.generate(run.simulate.SimConfig(n=50), 1))
print(json.dumps([f"{mod.__name__}.{name}" for mod, name, _ in run.traced_layers()
                  if not callable(getattr(mod, name, None))]))
"""


def test_every_traced_name_is_a_package_function():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
