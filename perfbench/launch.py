"""Run the knnabc command line under the span tracer, in a fresh process.

    python perfbench/launch.py --spans SPANS.json -- estimate --config ... --out ...

Imports knnabc.cli, installs the tracer's wrappers, calls
``knnabc.cli.main(argv)`` and writes the spans to SPANS.json at exit.  The
exit code is the command's.
"""

from __future__ import annotations

import argparse
import sys

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the abc arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from knnabc import cli
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
