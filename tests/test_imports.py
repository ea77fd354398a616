"""Imports load only what a call runs.

``import hypercomplex`` loads no submodule, each CLI subcommand loads only
its own modules, and the subcommands that do exact algebra never import
numpy, which costs about as much as the rest of a CLI call.  Each check
runs in a fresh interpreter, because this test process has loaded every
module already.
"""

import json
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


# 4096 (z - 9 + 10*i)**2 (z + (4 - i)/8)**4 (z - 1), both bicomplex
# components alike: the squarefree split leaves the finder only simple roots
REPEATED_ROOTS = """46259 + 24420*i
254175 + 238984*i
361677 + 654916*i
-97247 + 348336*i
-386304 - 727008*i
-113024 - 619520*i
-69632 + 79872*i
4096
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("bc", "mul", "1 - 1*k", "1/2 + 3*i"),
        ("biq", "mul", "(0,1) + (1,0)*k", "(0,-1) + (1,0)*k"),
        ("mc", "--order", "3", "split", "1,2,0,-1/2,0,0,3,1"),
        ("algebra", "table", "coquaternion"),
        ("poly", "solve", "--algebra", "bicomplex", "--coeffs", "{coeffs}"),
        ("poly", "solve", "--algebra", "bicomplex", "--coeffs", "{repeated}"),
    ],
    ids=["bc-mul", "biq-mul", "mc-split", "algebra-table", "poly-solve", "poly-solve-repeated-roots"],
)
def test_exact_subcommands_run_without_numpy(argv, tmp_path):
    # z**2 + k*z - 2: the complex finder settles on every component, so
    # the companion fallback, the one user of numpy, never runs
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("-2\n1*k\n1\n", encoding="utf-8")
    repeated = tmp_path / "repeated.txt"
    repeated.write_text(REPEATED_ROOTS, encoding="utf-8")
    argv = [arg.format(coeffs=coeffs, repeated=repeated) for arg in argv]
    normal = python(RUN_CLI, *argv)
    blocked = python(BLOCK_NUMPY + RUN_CLI, *argv)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


# Prints the hypercomplex submodules loaded in this interpreter as JSON.
PRINT_LOADED = (
    "import json, sys; print(json.dumps(sorted("
    "m.split('.')[1] for m in sys.modules if m.startswith('hypercomplex.'))))"
)


def test_package_import_loads_no_submodule():
    result = python("import hypercomplex; " + PRINT_LOADED)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


SUBMODULES = (
    "bicomplex", "biquaternion", "cli", "multicomplex", "polysolve",
    "quadruple", "ratpoly", "scalars", "surd",
)


def test_every_public_name_and_submodule_resolves():
    code = """
import importlib, json, sys
import hypercomplex
names = {}
exec("from hypercomplex import *", names)
print(json.dumps({
    "star": sorted(n for n in names if not n.startswith("__")),
    "all": hypercomplex.__all__,
    "dir": dir(hypercomplex),
    "same": all(
        getattr(hypercomplex, n) is getattr(importlib.import_module("hypercomplex." + m), n)
        for n, m in hypercomplex._SOURCE.items()
    ),
    "submodules": [getattr(hypercomplex, m).__name__ for m in sys.argv[1:]],
}))
"""
    result = python(code, *SUBMODULES)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    assert got["star"] == sorted(got["all"])
    assert set(got["all"]) | set(SUBMODULES) <= set(got["dir"])
    assert got["same"]
    assert got["submodules"] == [f"hypercomplex.{m}" for m in SUBMODULES]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        getattr(hypercomplex, "no_such_name")


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("bc", "mul", "1 - 1*k", "1/2 + 3*i"), {"bicomplex"}),
        (("mc", "--order", "3", "split", "1,2,0,-1/2,0,0,3,1"), {"bicomplex", "multicomplex"}),
        (("algebra", "table", "coquaternion"), {"quadruple"}),
        (
            ("poly", "solve", "--algebra", "bicomplex", "--coeffs", "{coeffs}"),
            {"bicomplex", "multicomplex", "ratpoly", "polysolve"},
        ),
        (("biq", "mul", "(0,1) + (1,0)*k", "(0,-1) + (1,0)*k"), {"bicomplex", "biquaternion"}),
        (("surd", "analyze", "2*x + sqrt(x^2 - 7) = 5"), {"ratpoly", "surd"}),
        (("corpus",), {
            "bicomplex", "biquaternion", "multicomplex", "polysolve", "quadruple", "ratpoly", "surd",
        }),
    ],
    ids=["bc-mul", "mc-split", "algebra-table", "poly-solve", "biq-mul", "surd-analyze", "corpus"],
)
def test_each_subcommand_loads_only_its_own_modules(argv, modules, tmp_path):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("-2\n1*k\n1\n", encoding="utf-8")
    argv = [arg.format(coeffs=coeffs) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from hypercomplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    if main(sys.argv[1:]):\n"
        "        sys.exit('nonzero exit code')\n"
        + PRINT_LOADED
    )
    result = python(code, *argv)
    assert result.returncode == 0, result.stderr
    assert set(json.loads(result.stdout)) == {"cli", "scalars", *modules}
