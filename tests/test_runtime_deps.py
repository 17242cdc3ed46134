"""The runtime needs numpy only: SciPy is a test-time oracle.

The subprocess checks run with this checkout's ``src`` first on PYTHONPATH,
so they test the code here and not an installed copy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import olivenet

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    proc = run_python("""
        import sys
        import olivenet.cli
        print("scipy" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every ``import scipy`` raise
    proc = run_python("""
        import runpy
        import sys
        sys.modules["scipy"] = None
        sys.argv = ["olivenet", "--version"]
        try:
            runpy.run_module("olivenet", run_name="__main__")
        except SystemExit as e:
            assert e.code in (0, None), e.code

        import numpy as np
        from olivenet import nn
        hp = nn.HyperParams(filters1=2, filters2=2, ksize1=5, ksize2=3, pool=2,
                            epochs=1, batch=4, dense1=6, dense2=4)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((10, 64)), rng.standard_normal(10)
        net = nn.build_network(hp, 64, rng)
        trace = nn.train(net, x, y, hp, rng)
        pred = nn.forward(net, x)
        assert len(trace) == 1 and pred.shape == (10,) and np.isfinite(pred).all()
        print("ok")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["olivenet", olivenet.__version__, "ok"]
