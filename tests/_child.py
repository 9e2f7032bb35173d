"""Run a test module's function in a child process with a set BLAS thread count."""

import os
import subprocess
import sys

import eventke


def digest_in_child(module: str, function: str, threads: int = 1) -> str:
    """The printed result of ``<module>.<function>()`` in a child process
    whose BLAS starts with ``threads`` threads: the thread count can change
    product bits, and a running process cannot change its own."""
    paths = [os.path.dirname(os.path.dirname(eventke.__file__)), os.path.dirname(__file__)]
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]),
    )
    child = subprocess.run(
        [sys.executable, "-c", f"import {module}; print({module}.{function}())"],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()
