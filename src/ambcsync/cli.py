"""Command-line front end: mae | hist | ber.

Each subcommand runs a seeded Monte Carlo sweep and writes a CSV.  Exit
codes: 0 success, 1 runtime failure, 2 bad flags or flag values or a
missing output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from decimal import Decimal

from .harness import ExperimentConfig, run_experiment, write_csv

# subcommand -> (experiment kind, help, default --pairs, default SNR grid in dB);
# hist runs a single SNR point
COMMANDS = {
    "mae": (
        "mae_vs_snr", "mean absolute timing error vs SNR", (20, 30, 40),
        tuple(float(s) for s in range(0, 21, 5)),
    ),
    "hist": ("error_hist", "empirical estimation-error distribution", (30,), (15.0,)),
    "ber": ("ber_compare", "paired BER comparison", (30,), (5.0, 10.0, 15.0, 20.0)),
}


# a list flag names at most this many values; a grid or range is counted
# before it is expanded, so a typo cannot exhaust memory
MAX_VALUES = 10_000


def _check_room(values: list, count: float) -> None:
    if len(values) + count > MAX_VALUES:
        raise argparse.ArgumentTypeError(f"more than {MAX_VALUES} values")


def _int_list(text: str) -> tuple[int, ...]:
    """Comma list of ints and inclusive a..b ranges, e.g. -10..-5,5..10."""
    values: list[int] = []
    for tok in filter(None, text.split(",")):
        if ".." in tok:
            lo_s, hi_s = tok.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {tok!r}")
            _check_room(values, hi - lo + 1)
            values.extend(range(lo, hi + 1))
        else:
            _check_room(values, 1)
            values.append(int(tok))
    return tuple(values)


def _float_list(text: str) -> tuple[float, ...]:
    """Comma list of values and start:stop:step grids, e.g. 0:20:2.5,25; a grid
    includes stop when it lies on a step and never passes it."""
    values: list[float] = []
    for tok in filter(None, text.split(",")):
        if ":" in tok:
            parts = tok.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(f"expected start:stop:step, got {tok!r}")
            start, stop, step = (float(p) for p in parts)
            if not (0 < step < math.inf and math.isfinite(stop - start) and stop >= start):
                raise argparse.ArgumentTypeError(f"bad grid {tok!r}: need start <= stop, step > 0")
            _check_room(values, (stop - start) / step + 1)
            # points in decimal arithmetic: 0:1:0.1 yields 0.3, not 0.30000000000000004,
            # and the last one lies at or before stop (0:20:7 ends at 14)
            first, delta = Decimal(repr(start)), Decimal(repr(step))
            steps = int((Decimal(repr(stop)) - first) // delta)
            values.extend(float(first + i * delta) for i in range(steps + 1))
        else:
            _check_room(values, 1)
            values.append(float(tok))
    return tuple(values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambcsync",
        description="Backscatter timing-offset estimation and detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # values like "-10,10" or "-10..-5,5..10" start with a dash; widen the
    # negative-number heuristic so they parse as option values
    matcher = re.compile(r"^-\d")
    parser._negative_number_matcher = matcher
    for command, (kind, help_text, default_pairs, default_grid) in COMMANDS.items():
        # each flag's dest is an ExperimentConfig field; a flag left out keeps
        # the field's default, unless the subcommand sets its own below
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        p._negative_number_matcher = matcher
        p.set_defaults(
            kind=kind, snr_grid_db=default_grid, pilot_pairs=default_pairs,
            trials=100_000, out=f"{command}.csv",
        )
        p.add_argument(
            "--snr", dest="snr_grid_db", type=_float_list, metavar="DB[,START:STOP:STEP...]",
            help="SNR points in dB; start:stop:step adds an inclusive grid",
        )
        p.add_argument("--trials", type=int, help="trials per grid cell")
        p.add_argument(
            "--pairs", dest="pilot_pairs", type=_int_list, metavar="L[,L...]",
            help="pilot bit-pair counts",
        )
        p.add_argument(
            "--np", dest="pilot_bit_samples", type=int, metavar="N_P",
            help="samples per pilot bit",
        )
        p.add_argument(
            "--n", dest="symbol_samples", type=_int_list, metavar="N[,N...]",
            help="samples per data symbol (one value on mae and hist: the guard bit's length)",
        )
        if kind == "ber_compare":
            p.add_argument("--k", dest="data_symbols", type=int, help="data symbols per frame")
        p.add_argument(
            "--tau", dest="tau_choices", type=_int_list, metavar="T[,A..B...]",
            help="timing offsets drawn equiprobably; a..b adds an inclusive range",
        )
        p.add_argument("--seed", type=int, help="root seed")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--threads", type=int, help="most worker processes; a small run stays in "
                       "this process (default: the usable CPUs)")
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command, out = args.pop("command"), args.pop("out")
    try:
        # flag values and the output directory are input: all are checked
        # before any trial runs, and a bad one exits 2
        config = ExperimentConfig(**args)
        folder, name = os.path.split(out)
        if not name or os.path.isdir(out) or not os.path.isdir(folder or "."):
            raise ValueError(f"--out {out!r} is not a file path in an existing directory")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        text = run_experiment(config).to_csv()
        write_csv(text, out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dt = time.perf_counter() - t0
    rows = text.count("\n") - 1
    print(f"{command}: {rows} rows -> {out} [{config.trials} trials/cell, {dt:.1f}s]")
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
