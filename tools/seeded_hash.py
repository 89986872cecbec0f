"""SHA-256 over a fixed set of seeded iris training results.

Two checkouts that print the same digest train to the same bandwidths, errors,
evaluation counts, stop reasons and traces, bit for bit. The script imports
the ``swarmpnn`` of its own checkout, so a second copy of the repository can
be compared with this one by running each copy's script:

    python tools/seeded_hash.py

It trains 48 results: split seeds 0-5, each of the four smoothing kinds, and
both ``train_hybrid`` and ``train_single("pso")``, with 2 iterations and
probing and fit multipliers 3 and 10. Each result enters the hash as sorted
JSON of its smoothing values, train and test error, evaluations, stop reason
and trace; Python writes floats in their shortest round-trip form.
"""

import hashlib
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import swarmpnn  # noqa: E402
from swarmpnn.datasets import (  # noqa: E402
    REGISTRY,
    SplitSpec,
    load_csv,
    stratified_split,
)
from swarmpnn.hybrid import HybridConfig, train_hybrid, train_single  # noqa: E402
from swarmpnn.pnn import Smoothing  # noqa: E402

SEEDS = range(6)


def results():
    iris = load_csv(Path(swarmpnn.__file__).parent / "data" / "iris.csv",
                    REGISTRY["iris"])
    for seed in SEEDS:
        train, test = stratified_split(iris, SplitSpec(0.2, seed=seed))
        for kind in Smoothing.KINDS:
            cfg = HybridConfig(iterations=2, probing_multiplier=3,
                               fit_multiplier=10, seed=seed,
                               smoothing_kind=kind)
            yield train_hybrid(train, test, cfg)
            yield train_single(train, test, "pso", cfg)


def main() -> int:
    if Path(swarmpnn.__file__).resolve().parent.parent != SRC:
        print(f"swarmpnn imported from {swarmpnn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    digest = hashlib.sha256()
    count = 0
    for result in results():
        record = {"smoothing": result.smoothing.values.tolist(),
                  "train_error": result.train_error,
                  "test_error": result.test_error,
                  "evaluations": result.evaluations,
                  "stop_reason": result.stop_reason,
                  "trace": [r.to_jsonable() for r in result.trace]}
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()}  ({count} seeded iris results)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
