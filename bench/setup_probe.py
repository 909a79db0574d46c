"""Run one abimhd CLI job up to its first solver call, then stop.

Usage: python3 setup_probe.py SRC_DIR SUBCOMMAND [CLI ARGS...]

Imports abimhd from SRC_DIR, replaces the subcommand's solver driver with a
stub that stops the job, and runs ``abimhd.cli.main``. It prints the
``time.monotonic()`` reading taken when the solver is first called, so the
caller's reading before it started this process gives the set-up time a
user pays on every CLI run: interpreter start, imports, config parse and
initial data. Exits 1 if the job ended without calling its solver.
"""

from __future__ import annotations

import importlib
import sys
import time

SOLVERS = {
    "dmhd-run": [("abimhd.dmhd", "dmhd_run")],
    "abi-run": [("abimhd.abi", "abi_run")],
    "certify": [("abimhd.dmhd", "dmhd_run")],
    "galerkin-run": [("abimhd.galerkin", "galerkin_run"),
                     ("abimhd.galerkin", "picard_iterate")],
}


class ReachedSolver(BaseException):
    """Raised by the stub; BaseException so that cli.main lets it through."""


def _stub(*args, **kwargs):
    raise ReachedSolver(time.monotonic())


def main(argv: list[str]) -> int:
    src, cli_args = argv[0], argv[1:]
    sys.path.insert(0, src)
    from abimhd.cli import main as cli_main

    for module, name in SOLVERS[cli_args[0]]:
        setattr(importlib.import_module(module), name, _stub)
    try:
        code = cli_main(cli_args)
    except ReachedSolver as reached:
        print(repr(reached.args[0]))
        return 0
    print(f"job exited {code} before its first solver call", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
