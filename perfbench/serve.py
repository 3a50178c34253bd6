"""Start ``repro serve`` for the benchmark, traced or not.

    python3 perfbench/serve.py [--spans PATH] -- serve DATA_DIR [serve options]

Everything after ``--`` goes to the repro command line unchanged.  With
``--spans``, the layer wrappers of :mod:`tracing` are installed in this
process before the server starts, and the recorded spans are written to
PATH when the server exits (on SIGTERM, after its graceful drain).
Without it, the server runs exactly as ``python -m repro.cli`` would.
"""

import argparse
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, server=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
