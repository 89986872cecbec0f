"""Per-shape A/B timing of the leave-one-out engine of two checkouts.

    python tools/loo_ab.py OTHER_CHECKOUT [--shapes iris,glass] [--blocks 11]

It loads ``src/swarmpnn/pnn.py`` of this checkout and of OTHER_CHECKOUT as
two modules in one process. For each registry dataset shape it draws a
seeded synthetic set at that dataset's class balance and feature count
(``REGISTRY``'s ``expected_balance`` and ``expected_features``), keeps the
training split of ``stratified_split`` at test fraction 0.2, and builds each
side's leave-one-out ``DensityEvaluator`` on it. For each smoothing kind it
asserts that both sides' ``class_densities`` are bit-equal on 10 seeded
candidate bandwidth vectors, then times alternating blocks of
``class_densities`` calls on them in CPU time. Each block builds both
evaluators anew, and the side that is built and timed first switches from
block to block. It prints, per shape and kind, the median
microseconds per call of each side, their ratio (OTHER / this, so above 1
means this checkout is faster) and the number of blocks this checkout won.

Each block runs about 0.1 s of calls per side. The host drifts, so only
figures from one run of the tool compare with each other.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from swarmpnn.datasets import REGISTRY, SplitSpec, stratified_split  # noqa: E402
from swarmpnn.pnn import Dataset  # noqa: E402

SHAPES = ("iris", "thyroid", "glass", "ecoli", "heart", "vehicle",
          "banknote", "pima", "cancer")
KINDS = ("per_feature", "per_class_feature")
CANDIDATES = 10
BLOCK_SECONDS = 0.1


def load_pnn(checkout: Path, name: str):
    path = checkout / "src" / "swarmpnn" / "pnn.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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


def time_calls(evaluator, smoothings, calls: int) -> float:
    """CPU microseconds per ``class_densities`` call over ``calls`` calls."""
    start = time.process_time_ns()
    for i in range(calls):
        evaluator.class_densities(smoothings[i % len(smoothings)])
    return (time.process_time_ns() - start) / calls / 1e3


def build(sides, features, labels, order):
    """Each side's leave-one-out evaluator, built in ``order``."""
    evaluators = [None, None]
    for side in order:
        pnn = sides[side]
        evaluators[side] = pnn.DensityEvaluator(
            pnn.Dataset(features, labels), features, exclude_self=True)
    return evaluators


def compare(sides, features, labels, kind, blocks):
    """Check bit-equality, then time; returns the median us of each side
    and this side's win count."""
    g, n = int(labels.max()) + 1, features.shape[1]
    smoothings = [[pnn.Smoothing(kind, v) for v in candidates(kind, g, n)]
                  for pnn in sides]
    evaluators = build(sides, features, labels, (0, 1))
    for i in range(CANDIDATES):
        mine, theirs = (e.class_densities(s[i])
                        for e, s in zip(evaluators, smoothings))
        if not np.array_equal(mine, theirs):
            raise SystemExit(f"class densities differ for {kind} "
                             f"candidate {i}")
    per_call = time_calls(evaluators[0], smoothings[0], CANDIDATES)
    calls = max(1, round(BLOCK_SECONDS * 1e6 / per_call))
    times = ([], [])
    for block in range(blocks):
        # where an evaluator's arrays land in memory moves its speed by a
        # few percent, so each block builds both anew, in alternating order
        order = (0, 1) if block % 2 else (1, 0)
        evaluators = build(sides, features, labels, order)
        for side in order:
            evaluators[side].class_densities(smoothings[side][0])
        for side in order:
            times[side].append(time_calls(evaluators[side], smoothings[side],
                                          calls))
    wins = sum(a < b for a, b in zip(*times))
    return statistics.median(times[0]), statistics.median(times[1]), wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path,
                        help="the checkout to compare with")
    parser.add_argument("--shapes", default=",".join(SHAPES),
                        help="comma-separated registry dataset names")
    parser.add_argument("--blocks", type=int, default=11)
    args = parser.parse_args(argv)
    sides = (load_pnn(ROOT, "pnn_this"), load_pnn(args.other, "pnn_other"))
    print(f"this: {ROOT}\nother: {args.other.resolve()}\n"
          f"numpy {np.__version__}, {args.blocks} blocks, CPU time")
    print(f"{'shape':<10}{'kind':<19}{'P':>6}{'G':>3}{'N':>4}"
          f"{'this_us':>11}{'other_us':>11}{'ratio':>8}{'wins':>7}")
    for shape in args.shapes.split(","):
        features, labels = train_set(shape)
        for kind in KINDS:
            mine, theirs, wins = compare(sides, features, labels, kind,
                                         args.blocks)
            print(f"{shape:<10}{kind:<19}{len(labels):>6}"
                  f"{labels.max() + 1:>3}{features.shape[1]:>4}"
                  f"{mine:>11.1f}{theirs:>11.1f}{theirs / mine:>8.2f}"
                  f"{wins:>4}/{args.blocks}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
