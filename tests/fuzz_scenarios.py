"""Seeded mutations of the golden scenarios, and an uncapped fuzz of the CLI with them.

:func:`mutants` takes every golden scenario in turn, at ``BASE_TRIALS``
trials, and applies one or two mutations to a copy: a value replaced by
one of ``VALUES`` (ill-typed, out of range or beyond float range), a key
dropped, or an unknown key added.  ``tests/test_runner.py`` parses a
stream of them, and ``tests/test_cli.py`` runs a capped one through
:func:`run_case`.  Run as a script, this runs a stream uncapped::

    PYTHONPATH=src python tests/fuzz_scenarios.py --seed 1 --count 1000

All in one process, each case is ``otfsim simulate`` with an existing
``--out`` file, under a ``ALARM_S`` alarm (taken between Python steps, so
a long BLAS call ends first) and an address-space cap of ``MEMORY_CAP``
bytes, so a runaway allocation fails with ``MemoryError``.  The script
prints the count of each outcome and one reproducing scenario for each
failure class, and exits 1 if it found any.  Its file name has no
``test_`` prefix, so pytest does not collect it.
"""

import argparse
import copy
import io
import json
import math
import random
import resource
import signal
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from otfsim.cli import main as cli_main
from otfsim.errors import ConfigError
from otfsim.runner import scenario_from_dict
from test_golden import GOLDEN, SCENARIOS

#: the values a mutation sets: wrong types, extremes, and integers beyond float range
VALUES = [None, True, False, 0, -1, 1, 3, 2.7, -0.5, float("nan"), float("inf"), "x", "", [],
          [3], {}, {"a": 1}, 10**400, -10**400]
#: every base scenario's trials, so that a mutant runs in milliseconds
BASE_TRIALS = 2
#: a capped case only parses a mutant of more grid points or trials than these
CAP_POINTS, CAP_TRIALS = 1024, 2
#: the outcomes of a clean case; any other is a failure class
CLEAN = ("parsed only", "exit 0", "exit 1", "exit 3")
#: the script's limits on one case and on the process
ALARM_S, MEMORY_CAP = 20, 2 << 30
#: what ``--out`` holds before each case; a failed run must leave it
PREVIOUS = "a previous run's output\n"


def spots(node):
    """Every (container, key) of a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from spots(value)


def mutants(seed: int, count: int):
    """``count`` (golden name, mutant) pairs of the stream ``seed``, the goldens in turn."""
    rng = random.Random(seed)
    bases = [(name, {**json.loads((GOLDEN / f"{name}.json").read_text()), "trials": BASE_TRIALS})
             for name in SCENARIOS]
    for i in range(count):
        name, base = bases[i % len(bases)]
        d = copy.deepcopy(base)
        for _ in range(rng.randint(1, 2)):
            node, key = rng.choice(list(spots(d)))
            op = rng.random()
            if op < 0.7 or isinstance(node, list):
                node[key] = copy.deepcopy(rng.choice(VALUES))
            elif op < 0.85:
                del node[key]
            else:
                node["extra"] = 1
        yield name, d


def _escaped(e: Exception) -> str:
    where = traceback.extract_tb(e.__traceback__)[-1]
    return f"{type(e).__name__} at {Path(where.filename).name}:{where.lineno}"


def run_case(d: dict, out: Path, capped: bool = False) -> str:
    """The outcome of ``otfsim simulate`` on mutant ``d``, with warnings as errors:
    one of ``CLEAN``, or a failure class.

    ``out`` holds ``PREVIOUS``, and a run that fails must leave it so.  A
    ``capped`` case only parses a mutant past ``CAP_POINTS`` or ``CAP_TRIALS``.
    """
    config, err = out.with_name("scenario.json"), io.StringIO()
    config.write_text(json.dumps(d))
    with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        try:
            sc = scenario_from_dict(d)
        except ConfigError:
            sc = None
        except Exception as e:
            return _escaped(e)
        if capped and sc is not None and (sc.params.dof > CAP_POINTS or sc.trials > CAP_TRIALS):
            return "parsed only"
        try:
            code = cli_main(["simulate", "--config", str(config), "--out", str(out)])
        except Exception as e:
            return _escaped(e)
    if code not in (0, 1, 3):
        return f"exit {code}"
    if code:
        if out.read_text() != PREVIOUS:
            return f"exit {code} changed --out"
        said = "numerical guard:" if code == 3 else "config error:"
        return f"exit {code}" if said in err.getvalue() else f"exit {code} without {said!r}"
    if sc is None:
        return "exit 0 for a scenario that does not parse"
    rows = [row.split(",")[1:] for row in out.read_text().splitlines()[1:]]
    if len(rows) != len(sc.snr_db_list):
        return f"exit 0 with {len(rows)} rows for {len(sc.snr_db_list)} SNR points"
    if not all(math.isfinite(float(x)) for row in rows for x in row):
        return "exit 0 with a non-finite row"
    return "exit 0"


class Timeout(BaseException):
    """Raised by the alarm; not an ``Exception``, so no handler on the way takes it."""


def _alarm(signum, frame):
    raise Timeout


def fuzz(argv=None) -> int:
    p = argparse.ArgumentParser(description="Uncapped CLI fuzz over mutants of the goldens.")
    p.add_argument("--seed", type=int, default=1, help="the mutant stream")
    p.add_argument("--count", type=int, default=1000, help="mutants to run")
    args = p.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    signal.signal(signal.SIGALRM, _alarm)
    outcomes, examples = Counter(), {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for _, d in mutants(args.seed, args.count):
            out.write_text(PREVIOUS)
            signal.alarm(ALARM_S)
            try:
                outcome = run_case(d, out)
            except Timeout:
                outcome = f"timeout after {ALARM_S} s"
            finally:
                signal.alarm(0)
            outcomes[outcome] += 1
            if outcome not in CLEAN:
                examples.setdefault(outcome, d)
    for outcome, n in outcomes.most_common():
        print(f"{n:6d}  {outcome}")
    for outcome, d in examples.items():
        print(f"\n{outcome}:\n{json.dumps(d)}")
    return 1 if examples else 0


if __name__ == "__main__":
    sys.exit(fuzz())
