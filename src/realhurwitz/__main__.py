"""Process entry point: `python -m realhurwitz` and the installed
`realhurwitz` script both run `run`.

A command starts with numpy's BLAS pinned to one thread: run sets
OPENBLAS_NUM_THREADS=1 unless the environment already names a count, before
any module imports numpy (only the spectral float fallback does). The blocks
that reach it are small, so a worker pool costs more to start than it saves,
and a float spectrum then prints the same bytes whatever the host's core
count: several threads may return another orthonormal basis of a degenerate
eigenspace.

A command ends by freezing the heap: gc.freeze moves every object the
process still holds (types, columns, caches) to the permanent generation,
which no collection visits, so the interpreter's teardown does not traverse
them in full collections that find no cycle to free. The freeze sits in a
finally, so every exit status gets it: 0, 1, 2 (argparse's SystemExit), 3
and 141. cli.main leaves the collector and the environment as they are, for
callers in process.
"""

import gc
import os
import sys

from .cli import main


def run() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
