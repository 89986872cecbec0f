"""Per-shape A/B timing of the leave-one-out engine of two checkouts.

    python tools/loo_ab.py OTHER_CHECKOUT [--shapes iris,glass] [--blocks 11]
                           [--record FILE]

It imports the ``swarmpnn`` package of OTHER_CHECKOUT and, twice, that of
this checkout, under three names in one process; the second import of this
checkout is the control, which runs the same code as this side. For each
registry dataset shape it draws a seeded synthetic set at that dataset's
class balance and feature count (``REGISTRY``'s ``expected_balance`` and
``expected_features``) and keeps the training split of ``stratified_split``
at test fraction 0.2. For each smoothing kind it asserts, on 10 seeded
candidate bandwidth vectors, that every side's leave-one-out
``DensityEvaluator.class_densities`` agree with this side's, bit for bit
for the control and within a relative 1e-12 for OTHER (whose densities may
come from another path), and that every side's ``hybrid.loo_objective``
gives the same error rates, exactly. It then times, in CPU time, rotating
blocks of ``class_densities`` calls (which a leave-one-out evaluator
computes on the exact log-space path) and of whole objective calls, which
take the flat optimizer vector and screen argmaxes on the linear class
sums. An objective remembers the vectors it has scored, so each of its
timed calls scores a vector that objective has not seen: the k-th pass over
the 10 candidates scales them by 1 + k * 2**-20. Each block builds every
side's evaluator or objective anew, and the side that is built and timed
first rotates from block to block. It prints, per shape and kind and for
each of the two, the median microseconds per call of this side and of
OTHER, their ratio (OTHER / this, so above 1 means this checkout is faster)
and the number of blocks this checkout won, then the same ratio and win
count against the control. The control columns read about 1 and about half
the blocks won, give or take the host's noise in that run, so each A/B
ratio is read against the control ratio beside it. Each row also gives the
dtype of this side's pair layout for that kind, and the rows this side
and OTHER send to the exact path (``DensityEvaluator._log_sums``) in 100
objective calls on the seeded candidates, that is, in the first pass and
the nine scaled passes over them.

``--record FILE`` also writes the rows as JSON, with this side's pair
layout bytes and both sides' exact-path rows per shape and kind, the git
SHA of each checkout, the Python and numpy versions, the CPU count and, per
kind and side, a full-grid estimate in CPU-hours: the side's ``call_us``
times 25,000 calls (one published-budget training run) times 60 runs (6
methods, 10 runs each), summed over the shapes run.

Each block runs about 0.1 s of calls per side. The host drifts, so only
figures from one run of the tool compare with each other.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from swarmpnn.datasets import REGISTRY, SplitSpec, stratified_split  # noqa: E402
from swarmpnn.pnn import Dataset  # noqa: E402

KINDS = ("per_feature", "per_class_feature")
CANDIDATES = 10
BLOCK_SECONDS = 0.1
# a full grid: 25,000 objective calls per run, 6 methods x 10 runs
GRID_CALLS = 25_000 * 60


def load_package(checkout: Path, name: str):
    """The ``swarmpnn`` package of ``checkout``, imported as ``name``."""
    init = checkout / "src" / "swarmpnn" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # its relative imports look it up
    spec.loader.exec_module(package)
    return package


def train_set(shape: str, seed: int = 0):
    """Gaussian class clusters at a registry shape; the training split."""
    d = REGISTRY[shape]
    rng = np.random.default_rng([seed, sorted(REGISTRY).index(shape)])
    labels = np.repeat(np.arange(len(d.expected_balance)), d.expected_balance)
    rng.shuffle(labels)
    centres = rng.standard_normal((len(d.expected_balance),
                                   d.expected_features))
    features = centres[labels] + rng.standard_normal(
        (len(labels), d.expected_features))
    train, _ = stratified_split(Dataset(features, labels),
                                SplitSpec(0.2, seed))
    return np.array(train.features), np.array(train.labels)


def candidates(kind: str, g: int, n: int, seed: int = 0):
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    shape = (g, n) if kind == "per_class_feature" else (n,)
    return [rng.uniform(0.05, 1.5, shape) for _ in range(CANDIDATES)]


def distinct_vectors(values, count):
    """``count`` distinct flat vectors: ``values`` in turn, the k-th pass
    over them scaled by 1 + k * 2**-20; the first pass is ``values``."""
    return [values[i % CANDIDATES].ravel()
            * (1.0 + (i // CANDIDATES) * 2.0 ** -20) for i in range(count)]


def time_calls(call, calls: int) -> float:
    """CPU microseconds per ``call(i)`` over ``calls`` calls."""
    start = time.process_time_ns()
    for i in range(calls):
        call(i)
    return (time.process_time_ns() - start) / calls / 1e3


def race(make, sides, blocks):
    """Time rotating blocks of each side's calls; returns the median us of
    each side and, for each side after the first, the first side's win
    count against it. ``make(side, calls)`` builds a side's evaluator or
    objective and returns its ``call(i)`` for ``i < calls``."""
    calls = max(1, round(BLOCK_SECONDS * 1e6 / time_calls(
        make(0, CANDIDATES), CANDIDATES)))
    times = [[] for _ in range(sides)]
    for block in range(blocks):
        # where an evaluator's arrays land in memory moves its speed by a
        # few percent, so each block builds every side anew, in rotating
        # order
        order = [(block + k) % sides for k in range(sides)]
        timed = [None] * sides
        for side in order:
            timed[side] = make(side, calls + 1)
        for side in order:  # warm up on the one index the timing skips
            timed[side](calls)
        for side in order:
            times[side].append(time_calls(timed[side], calls))
    wins = [sum(a < b for a, b in zip(times[0], other))
            for other in times[1:]]
    return [statistics.median(t) for t in times], wins


def compare(sides, features, labels, kind, blocks):
    """Check that every side gives the first side's class densities (the
    second within a relative 1e-12, the control bit for bit) and its error
    rates, then time ``class_densities`` and whole objective calls; returns
    :func:`race`'s figures for each and the first side's pair layout."""
    g, n = int(labels.max()) + 1, features.shape[1]
    values = candidates(kind, g, n)
    smoothings = [[pkg.Smoothing(kind, v) for v in values] for pkg in sides]

    def densities(side, calls=CANDIDATES):
        pkg = sides[side]
        evaluator = pkg.DensityEvaluator(pkg.Dataset(features, labels),
                                         features, exclude_self=True)
        return lambda i: evaluator.class_densities(
            smoothings[side][i % CANDIDATES])

    def objective(side, calls=CANDIDATES):
        pkg = sides[side]
        call = pkg.hybrid.loo_objective(pkg.Dataset(features, labels), kind)
        vectors = distinct_vectors(values, calls)
        return lambda i: call(vectors[i])

    for side, rtol in ((1, 1e-12), (2, 0.0)):
        mine, theirs = densities(0), densities(side)
        for i in range(CANDIDATES):
            if not np.allclose(theirs(i), mine(i), rtol=rtol, atol=0.0):
                raise SystemExit(f"class densities differ for {kind} "
                                 f"candidate {i}")
        mine, theirs = objective(0), objective(side)
        for i in range(CANDIDATES):
            if mine(i) != theirs(i):
                raise SystemExit(f"error rates differ for {kind} "
                                 f"candidate {i}")
    evaluator = sides[0].DensityEvaluator(sides[0].Dataset(features, labels),
                                          features, exclude_self=True)
    evaluator.error_rate(smoothings[0][0], labels)  # lays out the pairs
    layout = (evaluator._d2.dtype.name, sum(
        a.nbytes for a in (evaluator._d2, evaluator._terms, evaluator._buf)))
    return (race(densities, len(sides), blocks),
            race(objective, len(sides), blocks), layout)


def exact_rows(pkg, features, labels, kind, calls=100):
    """Rows that ``calls`` objective calls on the seeded candidates send
    to ``pkg``'s exact path."""
    evaluator, rows = pkg.DensityEvaluator, []
    log_sums = evaluator._log_sums

    def counted(self, queries, inv_h2):
        rows.append(len(queries))
        return log_sums(self, queries, inv_h2)

    evaluator._log_sums = counted
    try:
        call = pkg.hybrid.loo_objective(pkg.Dataset(features, labels), kind)
        g, n = int(labels.max()) + 1, features.shape[1]
        for vector in distinct_vectors(candidates(kind, g, n), calls):
            call(vector)
    finally:
        evaluator._log_sums = log_sums
    return sum(rows)


def git_sha(checkout: Path):
    run = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True)
    return run.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path,
                        help="the checkout to compare with")
    parser.add_argument("--shapes", default=",".join(sorted(REGISTRY)),
                        help="comma-separated registry dataset names "
                             "(default: all)")
    parser.add_argument("--blocks", type=int, default=11)
    parser.add_argument("--record", type=Path,
                        help="also write the rows and provenance as JSON")
    args = parser.parse_args(argv)
    sides = (load_package(ROOT, "swarmpnn_this"),
             load_package(args.other, "swarmpnn_other"),
             load_package(ROOT, "swarmpnn_control"))
    print(f"this: {ROOT}\nother: {args.other.resolve()}\n"
          f"numpy {np.__version__}, {args.blocks} blocks, CPU time")
    columns = "".join(f"{c:>11}{'other_us':>11}{'ratio':>8}{'wins':>7}"
                      f"{'control':>8}{'wins':>7}"
                      for c in ("sums_us", "call_us"))
    print(f"{'shape':<10}{'kind':<19}{'P':>6}{'G':>3}{'N':>4}{'dtype':>9}"
          f"{columns}{'exact':>7}{'other':>7}")
    rows = []
    for shape in args.shapes.split(","):
        features, labels = train_set(shape)
        for kind in KINDS:
            *timings, (dtype, pair_bytes) = compare(sides, features, labels,
                                                    kind, args.blocks)
            record = {"shape": shape, "kind": kind, "P": len(labels),
                      "G": int(labels.max()) + 1, "N": features.shape[1],
                      "dtype": dtype, "pair_bytes": pair_bytes,
                      "exact_rows_this": exact_rows(sides[0], features,
                                                    labels, kind),
                      "exact_rows_other": exact_rows(sides[1], features,
                                                     labels, kind)}
            row = ""
            for name, ((mine, theirs, control), (wins, control_wins)) in zip(
                    ("sums_us", "call_us"), timings):
                row += (f"{mine:>11.1f}{theirs:>11.1f}{theirs / mine:>8.2f}"
                        f"{wins:>4}/{args.blocks}{control / mine:>8.2f}"
                        f"{control_wins:>4}/{args.blocks}")
                record.update({
                    f"{name}_this": mine, f"{name}_other": theirs,
                    f"{name}_control": control,
                    f"{name}_ratio": theirs / mine, f"{name}_wins": wins,
                    f"{name}_control_ratio": control / mine,
                    f"{name}_control_wins": control_wins})
            print(f"{shape:<10}{kind:<19}{len(labels):>6}"
                  f"{labels.max() + 1:>3}{features.shape[1]:>4}{dtype:>9}"
                  f"{row}{record['exact_rows_this']:>7}"
                  f"{record['exact_rows_other']:>7}", flush=True)
            rows.append(record)
    if args.record:
        hours = {kind: {side: sum(r[f"call_us_{side}"] for r in rows
                                  if r["kind"] == kind) * GRID_CALLS / 3.6e9
                        for side in ("this", "other")} for kind in KINDS}
        args.record.write_text(json.dumps({
            "sha": {"this": git_sha(ROOT), "other": git_sha(args.other)},
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "blocks": args.blocks,
            "grid_cpu_hours": hours, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
