"""Correctness checks on the CSVs the benchmark's runs produce.

The checks are statistical, not byte-exact against a frozen CSV: each MAE
and BER cell must lie within ``CELL_Z_LIMIT`` standard errors of the
reference in ``reference.json``, and the cells of each column taken
together within ``POOLED_Z_LIMIT``, so a change that keeps the
distributions but lays out the random streams differently still passes.
What must be byte-exact is the same config run with different worker
counts, or run again.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# One cell of 40 trials is far from normal at high SNR (rare, large
# errors): |z| reached 5.01 on 1 of 6750 cells of mae_quick_grid.  The
# pooled score of a column, sum(z) / sqrt(cells), is close to normal and
# catches a shift that moves every cell a little (a doubled MAE scores 12.5
# on mae_quick_grid).
CELL_Z_LIMIT = 6.0
POOLED_Z_LIMIT = 4.0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class CheckLog:
    """Counts checks attempted and keeps a description of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return {
        "mae": {(r["snr_db"], r["L"]): r for r in ref["mae"]},
        "ber": {(r["snr_db"], r["N"]): r for r in ref["ber"]},
    }


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    header, *lines = text.rstrip("\n").split("\n")
    return header.split(","), [[float(v) for v in line.split(",")] for line in lines]


def _close(log: CheckLog, what: str, value: float, ref: float, sd: float, trials: int,
           ref_trials: int) -> float:
    """Mean ``value`` of ``trials`` against mean ``ref`` of ``ref_trials``; per-trial sd ``sd``.

    Checks the cell and returns its signed standard score.
    """
    se = sd * math.sqrt(1.0 / trials + 1.0 / ref_trials)
    z = (value - ref) / se if se > 0 else (0.0 if value == ref else math.inf)
    log.check(abs(z) <= CELL_Z_LIMIT, f"{what}: {value:.6g} vs reference {ref:.6g} ({z:.1f} se)")
    return z


def expected_cells(config) -> list[tuple[float, int]]:
    """The (SNR, L) or (SNR, N) rows the CSV must hold, in order.

    Written from the config's grid, not taken from the harness, so that the
    check does not share a defect with the code it checks.
    """
    second = config.symbol_samples if config.kind == "ber_compare" else config.pilot_pairs
    return [(float(snr), int(x)) for snr in config.snr_grid_db for x in second]


def trials_in(config, csv_text: str) -> int:
    """Trials the program reports it ran: the MAE ``trials`` column, or BER bits / K."""
    _, rows = parse_csv(csv_text)
    if config.kind == "ber_compare":
        return sum(int(row[-1]) for row in rows) // config.data_symbols
    return sum(int(row[-1]) for row in rows)


def check_result(config, csv_text: str, reference: dict, log: CheckLog) -> None:
    """Grid and trial counts, then each cell against the reference (and BER ordering)."""
    header, rows = parse_csv(csv_text)
    cells = [(row[0], int(row[1])) for row in rows]
    log.check(cells == expected_cells(config),
              f"CSV cells {cells[:4]}... differ from the grid {expected_cells(config)[:4]}...")
    per_row = config.trials * (config.data_symbols if config.kind == "ber_compare" else 1)
    log.check(all(int(row[-1]) == per_row for row in rows),
              f"trial counts {[int(row[-1]) for row in rows][:4]}..., expected {per_row} per row")
    scores: dict[str, list[float]] = {}
    if config.kind == "mae_vs_snr":
        log.check(header == ["snr_db", "L", "mae", "trials"], f"MAE header {header}")
        for snr, pairs, mae, trials in rows:
            ref = reference["mae"].get((snr, int(pairs)))
            if not log.check(ref is not None, f"no MAE reference for snr={snr} L={pairs:g}"):
                continue
            scores.setdefault("mae", []).append(
                _close(log, f"MAE snr={snr:g} L={pairs:g}", mae, ref["mae"], ref["sd"],
                       int(trials), ref["trials"]))
    else:
        log.check(header == ["snr_db", "N", "ber_no_comp", "ber_comp", "ber_ideal", "bits"],
                  f"BER header {header}")
        for snr, n, no_comp, comp, ideal, bits in rows:
            ref = reference["ber"].get((snr, int(n)))
            if not log.check(ref is not None, f"no BER reference for snr={snr} N={n:g}"):
                continue
            frames = int(bits) // config.data_symbols
            for name, value in (("ber_no_comp", no_comp), ("ber_comp", comp),
                                ("ber_ideal", ideal)):
                scores.setdefault(name, []).append(
                    _close(log, f"{name} snr={snr:g} N={n:g}", value, ref[name],
                           ref[name + "_sd"], frames, ref["trials"]))
            # ideal <= comp <= no_comp; a compensated frame can beat the ideal
            # one by chance, so each step may dip by CELL_Z_LIMIT paired standard errors
            for name, low, high in (("comp_minus_ideal", ideal, comp),
                                    ("no_comp_minus_comp", comp, no_comp)):
                slack = CELL_Z_LIMIT * ref[name + "_sd"] / math.sqrt(frames)
                log.check(high - low >= -slack,
                          f"BER order snr={snr:g} N={n:g}: ideal={ideal} comp={comp} "
                          f"no_comp={no_comp} ({name} below -{slack:.3g})")
    for name, zs in scores.items():
        pooled = sum(zs) / math.sqrt(len(zs))
        log.check(abs(pooled) <= POOLED_Z_LIMIT,
                  f"{name} over {len(zs)} cells: pooled score {pooled:.1f} se from the reference")
