"""numpy stays off the import path: only the numeric kernels load it.

``import hypercomplex`` and the CLI subcommands that do exact algebra must
not import numpy, which costs about as much as the rest of a CLI call.
Each check runs in a fresh interpreter, because this test process may
have loaded numpy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercomplex

SRC = str(Path(hypercomplex.__file__).resolve().parents[1])

RUN_CLI = "import sys; from hypercomplex.cli import main; sys.exit(main(sys.argv[1:]))"
# A None entry in sys.modules makes any later `import numpy` raise ImportError.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "


def python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=env, timeout=60
    )


def test_package_and_cli_import_without_numpy():
    result = python("import hypercomplex, hypercomplex.cli, sys; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("bc", "mul", "1 - 1*k", "1/2 + 3*i"),
        ("biq", "mul", "(0,1) + (1,0)*k", "(0,-1) + (1,0)*k"),
        ("mc", "--order", "3", "split", "1,2,0,-1/2,0,0,3,1"),
        ("algebra", "table", "coquaternion"),
        ("poly", "solve", "--algebra", "bicomplex", "--coeffs", "{coeffs}"),
    ],
    ids=["bc-mul", "biq-mul", "mc-split", "algebra-table", "poly-solve"],
)
def test_exact_subcommands_run_without_numpy(argv, tmp_path):
    # z**2 + k*z - 2: the complex finder settles on every component, so
    # the companion fallback, the one user of numpy, never runs
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("-2\n1*k\n1\n", encoding="utf-8")
    argv = [arg.format(coeffs=coeffs) for arg in argv]
    normal = python(RUN_CLI, *argv)
    blocked = python(BLOCK_NUMPY + RUN_CLI, *argv)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout
