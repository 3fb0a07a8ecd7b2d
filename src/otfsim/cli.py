"""Command-line front end.

Subcommands: ``simulate``, ``sweep``, ``inspect-channel``, ``papr-ccdf``,
``selftest``.  Exit codes: 0 success, 1 configuration error, 2 invariant
violation, 3 numerical guard refusal.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from . import runner
from .errors import ConfigError, GuardError
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_GUARD = 3

#: ``sweep --snr`` refuses grids of more points than this
SNR_GRID_CAP = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser):
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> _Parser:
    p = _Parser(prog="otfsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the scenario's SNR list")
    _add_common(sim)

    sweep = sub.add_parser("sweep", help="run with an SNR grid from the command line")
    _add_common(sweep)
    sweep.add_argument(
        "--snr",
        required=True,
        metavar="START:STOP:STEP",
        help="inclusive SNR grid in dB, e.g. 0:20:2",
    )
    for runs in (sim, sweep):
        runs.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    insp = sub.add_parser("inspect-channel", help="write channel view CSV files")
    insp.add_argument("--config", required=True, help="scenario JSON file")
    insp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    insp.add_argument("--out", default=".", help="output directory")

    ccdf = sub.add_parser("papr-ccdf", help="per-block PAPR CCDF of the transmit chain")
    _add_common(ccdf)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return p


def _parse_snr_grid(text: str):
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"--snr expects START:STOP:STEP, got {text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"--snr grid {text!r} must be finite")
    if step <= 0 or stop < start:
        raise ConfigError(f"--snr grid {text!r} is not increasing")
    grid = []
    while (v := start + len(grid) * step) <= stop + 1e-9:
        if len(grid) == SNR_GRID_CAP:
            raise ConfigError(f"--snr grid {text!r} exceeds {SNR_GRID_CAP} points")
        grid.append(round(v, 9))
        if len(grid) > 1 and grid[-1] == grid[-2]:
            raise ConfigError(f"--snr grid {text!r}: step {step:g} does not advance it")
    return tuple(grid)


def _load(args) -> runner.Scenario:
    sc = runner.load_scenario(args.config)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    return sc


@contextmanager
def _writing(path):
    """Report an output path that cannot be written as a ConfigError."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


@contextmanager
def _output(path):
    """Yields ``emit(text)``, which writes the run's output to ``path`` (stdout if None).

    The file is opened before the run, so an unwritable path is reported
    before any trial runs, without truncating it: it is emptied only when
    the text is written, and a file this opened is removed if the run fails.
    """
    if path is None:
        yield sys.stdout.write
        return
    existed = os.path.lexists(path)
    with _writing(path):
        f = open(path, "a")

    def emit(text: str):
        with _writing(path):
            if f.seekable():
                f.truncate(0)
            f.write(text)
            f.flush()

    try:
        with f:
            yield emit
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "selftest":
            results = run_selftest()
            for r in results:
                print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
            return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT

        sc = _load(args)
        if args.command == "inspect-channel":
            with _writing(args.out):
                paths = runner.inspect_channel(sc, args.out)
            print(*paths, sep="\n")
            return EXIT_OK
        if args.command == "sweep":
            sc = replace(sc, snr_db_list=_parse_snr_grid(args.snr))
        with _output(args.out) as emit:
            if args.command == "papr-ccdf":
                emit(runner.papr_ccdf(sc))
            else:
                emit(runner.format_csv(runner.run(sc, workers=args.workers)))
        return EXIT_OK
    except GuardError as e:
        print(f"numerical guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
