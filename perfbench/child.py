"""Run one coarseset command in this process, optionally traced.

    python3 perfbench/child.py [--spans FILE --run-id ID] -- ARGV...

Without ``--spans`` this is ``coarseset.cli.main(ARGV)`` and nothing else,
so untraced timings are those of the plain CLI. With it, the layer
wrappers from ``tracer.py`` are installed around the call and the spans
are written to FILE when the command returns.
"""

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from coarseset import cli

    if args.spans is None:
        return cli.main(argv)

    from tracer import Tracer

    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
