"""Module entry point so ``python -m pcfgset`` works like the console script.

A bare ``oracle``, the command a ``cmd:`` adapter restarts as its child,
is served straight from ``language``, so it starts without importing the
command line and the rest of the package.  Every other command line,
``oracle --synonyms P`` and ``--help`` among them, goes through
``cli.main``: its one parser and its one error boundary.
"""

import gc
import sys


def main() -> int:
    # No cyclic collector in a command process: its records form no cycles
    # but stay tracked, so a 100k read spent 0.76 of 1.69 s in collections;
    # with it off a command leaves 371-783 cyclic objects at any size.
    # cli.main, which library callers use, keeps the caller's collector.
    gc.disable()
    if sys.argv[1:] == ["oracle"]:
        from .language import DEFAULT_REGISTRY, serve

        return serve(DEFAULT_REGISTRY, sys.stdin, sys.stdout)
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
