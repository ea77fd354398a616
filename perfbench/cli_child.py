"""One traced CLI call: ``python3 perfbench/cli_child.py SPANS_OUT ARGS...``.

Times ``import hypercomplex`` (and the ``import numpy`` inside it), installs
the tracer of ``layers.py``, runs ``hypercomplex.cli.main(ARGS)`` and
writes the spans to SPANS_OUT as JSON.  Standard output and the exit code
are those of ``main``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import json  # noqa: E402

import layers  # noqa: E402
from setup_probe import timed_import  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import_s, numpy_s = timed_import()
    from hypercomplex import cli

    tracer = layers.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        record = tracer.dump()
        record.update(import_s=import_s, numpy_import_s=numpy_s)
        Path(out_path).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
