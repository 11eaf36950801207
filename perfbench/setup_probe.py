"""Time one cold start: import delaymix and reach a ready engine or CLI.

Usage: python3 setup_probe.py <src dir> <engine|cli> <default_config JSON>
Prints the seconds from interpreter start of this script to readiness.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, kind, config = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    if kind == "cli":
        from delaymix import cli

        cli.build_parser()
    else:
        import delaymix

        delaymix.engine_init(delaymix.default_config(**config))
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
