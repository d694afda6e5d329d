"""Command-line front end: mae | hist | ber.

Each subcommand runs a seeded Monte Carlo sweep and writes a CSV.  Exit
codes: 0 success, 1 runtime failure, 2 bad flags or a bad AMBC_THREADS.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .harness import ExperimentConfig, resolve_threads, run_experiment

# subcommand -> (experiment kind, help, default --pairs, default SNR grid in dB);
# hist runs a single SNR point
COMMANDS = {
    "mae": (
        "mae_vs_snr", "mean absolute timing error vs SNR", "20,30,40",
        tuple(float(s) for s in range(0, 21, 5)),
    ),
    "hist": ("error_hist", "empirical estimation-error distribution", "30", (15.0,)),
    "ber": ("ber_compare", "paired BER comparison", "30", (5.0, 10.0, 15.0, 20.0)),
}


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok != "")


def _snr_range(text: str) -> tuple[float, ...]:
    """Inclusive start:stop:step grid, e.g. 0:20:2.5."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("need step > 0 and stop >= start")
    count = int(round((stop - start) / step)) + 1
    return tuple(start + i * step for i in range(count))


def _tau_set(text: str) -> tuple[int, ...]:
    """Comma list of ints and inclusive a..b ranges, e.g. -10..-5,5..10."""
    values: list[int] = []
    for tok in text.split(","):
        if not tok:
            continue
        if ".." in tok:
            lo_s, hi_s = tok.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {tok!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(tok))
    if not values:
        raise argparse.ArgumentTypeError("empty tau set")
    return tuple(values)


def _add_common(parser: argparse.ArgumentParser, default_pairs: str) -> None:
    parser.add_argument("--trials", type=int, default=100_000, help="trials per grid cell")
    parser.add_argument(
        "--pairs", type=_int_list, default=_int_list(default_pairs), metavar="L[,L...]",
        help="pilot bit-pair counts",
    )
    parser.add_argument(
        "--np", dest="np_samples", type=int, default=30, metavar="N_P",
        help="samples per pilot bit",
    )
    parser.add_argument(
        "--n", dest="n_samples", type=_int_list, default=(50,), metavar="N[,N...]",
        help="samples per data symbol",
    )
    parser.add_argument("--k", type=int, default=50, help="data symbols per frame")
    tau_group = parser.add_mutually_exclusive_group()
    tau_group.add_argument(
        "--tau", type=_int_list, default=None, metavar="T[,T...]",
        help="timing offsets drawn equiprobably",
    )
    tau_group.add_argument(
        "--tau-set", type=_tau_set, default=None, metavar="A..B[,C..D...]",
        help="timing offsets as inclusive ranges",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (AMBC_THREADS overrides; default: all cores)",
    )


def _add_snr(parser: argparse.ArgumentParser, single: bool) -> None:
    if single:
        parser.add_argument("--snr", type=float, default=None, help="SNR in dB")
        return
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--snr", type=_float_list, default=None, metavar="DB[,DB...]", help="SNR points in dB"
    )
    group.add_argument(
        "--snr-range", type=_snr_range, default=None, metavar="START:STOP:STEP",
        help="inclusive SNR grid in dB",
    )


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
    for command, (kind, help_text, default_pairs, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_snr(p, single=kind == "error_hist")
        _add_common(p, default_pairs=default_pairs)
        p._negative_number_matcher = matcher
    return parser


def _snr_grid(args, default: tuple[float, ...]) -> tuple[float, ...]:
    if getattr(args, "snr_range", None) is not None:
        return args.snr_range
    if args.snr is not None:
        return args.snr if isinstance(args.snr, tuple) else (args.snr,)
    return default


def _tau_choices(args) -> tuple[int, ...]:
    if args.tau_set is not None:
        return args.tau_set
    if args.tau is not None:
        return args.tau
    return (-10, 10)


def _cmd_experiment(args) -> int:
    kind, _, _, default_grid = COMMANDS[args.command]
    config = ExperimentConfig(
        kind=kind,
        snr_grid_db=_snr_grid(args, default=default_grid),
        trials=args.trials,
        pilot_pairs=args.pairs,
        pilot_bit_samples=args.np_samples,
        symbol_samples=args.n_samples,
        data_symbols=args.k,
        tau_choices=_tau_choices(args),
        seed=args.seed,
        out_path=args.out or f"{args.command}.csv",
        threads=args.threads,
    )
    t0 = time.perf_counter()
    result = run_experiment(config)
    dt = time.perf_counter() - t0
    rows = len(result.probabilities) if hasattr(result, "probabilities") else len(result.rows)
    print(
        f"{args.command}: {rows} rows -> {config.out_path} "
        f"[{config.trials} trials/cell, {dt:.1f}s]"
    )
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # AMBC_THREADS is input like a flag, so a bad value exits 2 too
        resolve_threads(args.threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _cmd_experiment(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
