"""One setup sample: a fresh interpreter imports hypercomplex and builds inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line: ``ready_s`` (from the first line of this script to
ready), ``import_s`` (``import hypercomplex``, numpy included) and
``numpy_import_s`` (the ``import numpy`` nested inside it, timed by a
wrapper around ``builtins.__import__`` that is removed right after).
"""

import time

T0 = time.perf_counter()

import builtins  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def timed_import() -> tuple:
    """(import_s, numpy_import_s) of ``import hypercomplex``."""
    original = builtins.__import__
    numpy_s = []

    def wrapper(name, *args, **kwargs):
        if name == "numpy" and "numpy" not in sys.modules:
            t = time.perf_counter()
            try:
                return original(name, *args, **kwargs)
            finally:
                numpy_s.append(time.perf_counter() - t)
        return original(name, *args, **kwargs)

    builtins.__import__ = wrapper
    t = time.perf_counter()
    try:
        import hypercomplex  # noqa: F401
    finally:
        builtins.__import__ = original
    return time.perf_counter() - t, sum(numpy_s)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    import_s, numpy_s = timed_import()
    module = __import__(f"wl_{workload}")
    module.build(seed)
    ready = time.perf_counter() - T0
    print(json.dumps({"ready_s": ready, "import_s": import_s, "numpy_import_s": numpy_s}))


if __name__ == "__main__":
    main()
