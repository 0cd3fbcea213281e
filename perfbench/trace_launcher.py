"""Run one `vilenkin` command with every package function traced.

    python3 perfbench/trace_launcher.py <trace.json> <subcommand> [cli args...]

The per-function totals are written to <trace.json> when the command ends,
also when it fails. The exit code is the command's.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    import vilenkin.cli

    try:
        return vilenkin.cli.main(argv)
    finally:
        tracer.dump(t.summary(), path)


if __name__ == "__main__":
    sys.exit(main())
