"""A run loads SciPy only where it merges.

The *limit* and *regularized* scenarios load no SciPy module at all; a
*bidisperse* run whose cloud outgrows its budget loads scipy.spatial, for
the merge's k-d tree, and no other SciPy subpackage.  Each check runs in a
fresh interpreter, since this test process has SciPy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
from thinspray import SimConfig, run_scenario

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

base = dict(dim=2, n=8, dt=2e-3, t_final=0.01, particle_count=200, seed=3)
run_scenario(SimConfig(**base))
run_scenario(SimConfig(**base, scenario="regularized", eps=0.5))
without_merge = scipy_modules()
merged = run_scenario(SimConfig(**base, scenario="bidisperse", tau=0.05, r2=0.3,
                                particle_budget=250))
print(json.dumps({"without_merge": without_merge, "after_merge": scipy_modules(),
                  "merge_m2_max": merged.summary["merge_m2_max"]}))
"""


def test_only_the_merge_loads_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["without_merge"] == []
    assert out["merge_m2_max"] > 0.0  # the bidisperse run did merge
    after = set(out["after_merge"])
    assert "scipy.spatial" in after
    assert not {"scipy.stats", "scipy.integrate"} & after
