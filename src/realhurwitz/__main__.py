"""Process entry point: `python -m realhurwitz` and the installed
`realhurwitz` script both run `run`.

A command ends by freezing the heap: gc.freeze moves every object the
process still holds (types, columns, caches) to the permanent generation,
which no collection visits, so the interpreter's teardown does not traverse
them in full collections that find no cycle to free. The freeze sits in a
finally, so every exit status gets it: 0, 1, 2 (argparse's SystemExit), 3
and 141. cli.main leaves the collector as it is, for callers in process.
"""

import gc
import sys

from .cli import main


def run() -> int:
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
