"""Checks on the files one CLI run writes, and the quality figures read from them.

Every check appends to a Checks object instead of raising, so one run can
report all of its failures and the benchmark can count them.
"""

import csv
import json
import math
from pathlib import Path


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _read_csv(path: Path):
    """Returns (config line, header, rows) of a CLI CSV file."""
    with open(path, newline="", encoding="utf-8") as f:
        first = f.readline()
        rows = list(csv.reader(f))
    return first, rows[0], rows[1:]


def _mean(values):
    return math.fsum(values) / len(values) if values else float("nan")


def check_sweep(out: Path, cfg: dict, checks: Checks, claim: bool) -> dict:
    """Checks a sweep_alpha run and returns its quality figures.

    claim adds the paper's headline check: at the smallest alpha, the
    confidence-regularized estimator (vrls_em) has a lower mean ratio MSE
    than plain MLLS (mlls_em).
    """
    csv_path = out / "sweep_alpha_results.csv"
    summary_path = out / "sweep_alpha_summary.json"
    if not checks.check(csv_path.is_file() and summary_path.is_file(), f"missing files in {out}"):
        return {"error_cells": 0}
    first, header, rows = _read_csv(csv_path)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    grid, estimators, trials = cfg["alpha_grid"], cfg["estimators"], cfg["trials"]
    checks.check(first.startswith("# config="), "CSV lacks its config header")
    checks.check(header == ["alpha", "estimator", "trial", "mse", "error"], f"CSV header {header}")
    checks.check(
        len(rows) == len(grid) * trials * len(estimators),
        f"CSV has {len(rows)} rows, expected {len(grid)} x {trials} x {len(estimators)}",
    )
    checks.check(
        len(summary.get("cells", ())) == len(grid) * len(estimators),
        "summary cell count differs from alpha_grid x estimators",
    )
    errors = sum(1 for r in rows if r[4])
    mse = {e: [float(r[3]) for r in rows if r[1] == e and not r[4]] for e in estimators}
    checks.check(
        all(math.isfinite(v) and v >= 0 for vs in mse.values() for v in vs),
        "non-finite or negative MSE in CSV",
    )
    smallest = min(grid)
    at_smallest = {
        e: _mean([float(r[3]) for r in rows if r[1] == e and not r[4] and float(r[0]) == smallest])
        for e in estimators
    }
    if claim:
        checks.check(
            at_smallest["vrls_em"] < at_smallest["mlls_em"],
            f"vrls_em MSE {at_smallest['vrls_em']:.4g} is not below mlls_em "
            f"{at_smallest['mlls_em']:.4g} at alpha {smallest}",
        )
    quality = {"error_cells": errors}
    for e in ("vrls_em", "mlls_em"):
        if e in estimators:
            quality[f"mse_{e}"] = _mean(mse[e])
    return quality


def check_federate(out: Path, cfg: dict, checks: Checks) -> dict:
    """Checks a federate run and returns its quality figures.

    The paper's claim checked here: training under estimated ratios beats
    unweighted training in mean node accuracy.
    """
    names = ("federate_accuracy.csv", "federate_trace.csv", "federate_summary.json")
    if not checks.check(all((out / n).is_file() for n in names), f"missing files in {out}"):
        return {"error_cells": 0}
    weightings = cfg["weightings"]
    fed = cfg["federation"]
    k, rounds = len(fed["nodes"]), fed["rounds"]
    _, _, acc_rows = _read_csv(out / "federate_accuracy.csv")
    _, _, trace_rows = _read_csv(out / "federate_trace.csv")
    summary = json.loads((out / "federate_summary.json").read_text(encoding="utf-8"))
    checks.check(len(acc_rows) == len(weightings) * k, "accuracy CSV row count")
    checks.check(len(trace_rows) == len(weightings) * rounds, "trace CSV row count")
    variants = summary.get("weightings", {})
    checks.check(sorted(variants) == sorted(weightings), "summary weightings")
    acc = {w: variants.get(w, {}).get("avg_accuracy", float("nan")) for w in weightings}
    checks.check(all(0 <= a <= 1 for a in acc.values()), f"accuracies out of range: {acc}")
    if cfg.get("crossnode_listing"):
        ratios = summary.get("crossnode_listing_ratios", [])
        checks.check(
            len(ratios) == k and all(math.isfinite(v) and v >= 0 for row in ratios for v in row),
            "crossnode_listing_ratios is not a finite k x m matrix",
        )
    checks.check(
        acc["estimated_ratios"] > acc["none"],
        f"estimated_ratios accuracy {acc['estimated_ratios']:.4f} is not above "
        f"none {acc['none']:.4f}",
    )
    return {"error_cells": 0, "accuracy_estimated": acc["estimated_ratios"]}


def same_bytes(a: Path, b: Path) -> list[str]:
    """Names of files that differ between two output directories."""
    names = sorted(p.name for p in a.iterdir()) if a.is_dir() else []
    other = sorted(p.name for p in b.iterdir()) if b.is_dir() else []
    if names != other:
        return [f"file lists differ: {names} vs {other}"]
    return [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]
