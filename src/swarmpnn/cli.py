"""Command-line harness: dataset fetching, training runs and the full
benchmark grid with its tables and figure data.

Outputs carry no timestamps and all randomness derives from the configured
seed, so re-running a command with the same inputs reproduces every file
byte for byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
import traceback
import warnings
from dataclasses import dataclass, replace

from . import datasets as data_mod
from .datasets import (
    REGISTRY,
    FetchError,
    SplitSpec,
    dataset_path,
    load_benchmark,
    load_csv,
    stratified_split,
    zscore_standardize,
)
from .hybrid import HybridConfig, train_hybrid, train_single
from .metrics import (
    REPORT_DECIMALS,
    RunMetrics,
    aggregate_runs,
    compute_metrics,
    rank,
)
from .optimizers import METHOD_NAMES
from .pnn import Dataset

PORTFOLIO = "hybrid"
# default table column order mirrors the published comparison tables
DEFAULT_METHODS = (PORTFOLIO, "bat", "bfo", "pso", "fpa", "sa")
METRIC_TABLES = ("avg_accuracy", "max_accuracy", "avg_precision", "avg_recall")


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: a (dataset, method, run) triple with its loaded data
    and the run's seeded settings."""

    dataset: str
    method: str
    run_index: int
    data: Dataset
    hybrid: HybridConfig
    split: SplitSpec
    zscore: bool


def default_config() -> dict:
    return {
        "datasets": ["iris"],
        "methods": list(DEFAULT_METHODS),
        "runs": 10,
        "seed": 0,
        "jobs": 1,
        "data_dir": None,
        "paths": {},
        "split": {"test_fraction": 0.2},
        "zscore": False,
        "hybrid": {},
        **{method: {} for method in METHOD_NAMES},
    }


# what a config value must be, by the type of its default
_SETTING_WORDS = {int: "an integer", bool: "true or false",
                  list: "a list of names", dict: "an object",
                  type(None): "a path or null"}


def load_config(path) -> dict:
    """The default config updated from the JSON file at ``path``; each value
    has its default's type (``data_dir`` may also be a path, ``datasets``
    also ``"all"``), runs, jobs and lists count at least one, and ``paths``
    maps names to path strings."""
    cfg = default_config()
    with open(path, encoding="utf-8") as fh:
        user = json.load(fh)
    for key, value in user.items():
        if key not in cfg:
            raise SystemExit(f"config: unknown key {key!r}")
        if key == "datasets" and value == "all":
            value = sorted(REGISTRY)
        kind, count = type(cfg[key]), key in ("runs", "jobs")
        words = _SETTING_WORDS[kind] + (" >= 1" if count else "")
        if (type(value) not in (kind, str if cfg[key] is None else kind)
                or count and value < 1):
            raise SystemExit(f"config: {key!r} must be {words}, got {value!r}")
        if value == []:
            raise SystemExit(f"config: {key!r} must name at least one entry")
        if key == "paths" and not all(type(v) is str for v in value.values()):
            raise SystemExit("config: 'paths' must map each name to a file "
                             f"path, got {value!r}")
        if kind is dict:
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def _cells(config: dict, where: str) -> list[CellSpec]:
    """The run's cells in grid order, one per (dataset, method, run).

    Names and settings are checked first, then each dataset is fetched and
    loaded once and split at each run's seed, so that a bad value, an
    unreadable dataset or a split it cannot make stops the command before any
    output exists instead of failing every cell.
    """
    try:
        seed = config["seed"]
        overrides = dict(config["hybrid"])
        for key in ("methods", "init_range", "bounds"):
            if isinstance(overrides.get(key), list):
                overrides[key] = tuple(overrides[key])
        cfg = HybridConfig(seed=seed, **overrides, method_params={
            m: config[m] for m in METHOD_NAMES})
        split = SplitSpec(**config["split"], seed=seed)
        paths = config["paths"]
        for key in ("datasets", "methods"):
            if len(set(config[key])) != len(config[key]):
                raise ValueError(f"{key!r} repeats a name: {config[key]!r}")
        for name in config["datasets"]:
            if name not in REGISTRY and name not in paths:
                raise ValueError(f"unknown dataset {name!r}")
        for method in config["methods"]:
            if method != PORTFOLIO and method not in METHOD_NAMES:
                raise ValueError(f"unknown method {method!r}")
        data = {name: load_csv(paths[name], REGISTRY.get(name))
                if name in paths else load_benchmark(name, config["data_dir"])
                for name in config["datasets"]}
        for name in config["datasets"]:
            for run in range(config["runs"]):
                # via datasets: a wrap of cli.stratified_split sees only cells
                data_mod.stratified_split(data[name],
                                          replace(split, seed=seed + run))
    except (AttributeError, TypeError, ValueError, OSError, FetchError) as exc:
        raise SystemExit(f"{where}: {exc}") from None
    return [CellSpec(name, method, run, data[name],
                     replace(cfg, seed=seed + run),
                     replace(split, seed=seed + run), config["zscore"])
            for name in config["datasets"]
            for method in config["methods"]
            for run in range(config["runs"])]


def run_cell(spec: CellSpec) -> dict:
    """Train one (dataset, method, run) cell and measure it on the test split."""
    train, test = stratified_split(spec.data, spec.split)
    if spec.zscore:
        train, test = zscore_standardize(train, test)
    if spec.method == PORTFOLIO:
        result = train_hybrid(train, test, spec.hybrid)
    else:
        result = train_single(train, test, spec.method, spec.hybrid)
    run_metrics = compute_metrics(result.test_predictions, test.labels,
                                  train.n_classes, seed=spec.hybrid.seed)
    return {
        "dataset": spec.dataset,
        "method": spec.method,
        "run_index": spec.run_index,
        "seed": spec.hybrid.seed,
        "metrics": run_metrics.to_jsonable(),
        "train_error": result.train_error,
        "test_error": result.test_error,
        "evaluations": result.evaluations,
        "stop_reason": result.stop_reason,
        "smoothing": result.smoothing.to_jsonable(),
        "trace": [r.to_jsonable() for r in result.trace],
    }


def _dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path, trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fetch(args) -> int:
    names = args.dataset or sorted(REGISTRY)
    failures = {}
    for name in names:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", data_mod.DatasetValidationWarning)
                load_benchmark(name, args.data_dir)
            status = "ok" if not caught else "ok (with validation warnings)"
            for w in caught:
                print(f"  warning: {w.message}", file=sys.stderr)
            print(f"{name}: {status} -> {dataset_path(name, args.data_dir)}")
        except Exception as exc:
            failures[name] = str(exc)
            print(f"{name}: FAILED ({exc})", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(names)} datasets failed", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    config = default_config()
    config["datasets"], config["methods"] = [args.dataset], [args.method]
    config["seed"] = args.seed
    config["runs"] = args.runs
    config["data_dir"] = args.data_dir
    if args.dataset_path:
        config["paths"] = {args.dataset: args.dataset_path}
    hybrid_overrides = {}
    for key in ("iterations", "population_size", "probing_multiplier",
                "fit_multiplier"):
        value = getattr(args, key)
        if value is not None:
            hybrid_overrides[key] = value
    config["hybrid"] = hybrid_overrides
    config["zscore"] = args.zscore
    if args.test_fraction is not None:
        config["split"] = {"test_fraction": args.test_fraction}
    specs = _cells(config, "train")

    out_dir = os.path.join(args.out, f"{args.dataset}_{args.method}")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    for spec in specs:
        cell = run_cell(spec)
        stem = f"run_{spec.run_index:03d}"
        trace = cell.pop("trace")
        _dump_json(os.path.join(out_dir, f"{stem}.json"), cell)
        if args.method == PORTFOLIO:
            _write_trace(os.path.join(out_dir, f"trace_{stem}.jsonl"), trace)
        runs.append(RunMetrics(**cell["metrics"]))
    summary = aggregate_runs(runs)
    _dump_json(os.path.join(out_dir, "summary.json"), summary.to_jsonable())
    lines = [f"{args.dataset} / {args.method} over {args.runs} runs"]
    for metric in ("accuracy", "precision", "recall"):
        lines.append(f"  {metric}: avg {summary.rounded('avg_' + metric):.3f}"
                     f"  max {summary.rounded('max_' + metric):.3f}")
    text = "\n".join(lines)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _selection_counts(cells) -> dict:
    counts = {}
    for cell in cells:
        for record in cell["trace"]:
            key = (record["selected"], record["iteration"])
            counts[key] = counts.get(key, 0) + 1
    return counts


def _write_selection_csv(path, counts) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,iteration,count\n")
        for (method, iteration), count in sorted(counts.items()):
            fh.write(f"{method},{iteration},{count}\n")


def _selection_chart_svg(dataset: str, counts) -> str:
    """Minimal bar chart of per-method selection totals."""
    totals = {}
    for (method, _), count in sorted(counts.items()):
        totals[method] = totals.get(method, 0) + count
    width, height, pad = 480, 240, 40
    bar_zone = width - 2 * pad
    peak = max(totals.values()) if totals else 1
    bars = []
    step = bar_zone / max(len(totals), 1)
    for i, (method, total) in enumerate(sorted(totals.items())):
        h = (height - 2 * pad) * total / peak
        x = pad + i * step + step * 0.15
        y = height - pad - h
        bars.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{step * 0.7:.1f}" '
                    f'height="{h:.1f}" fill="#4878a8"/>')
        bars.append(f'<text x="{x + step * 0.35:.1f}" y="{height - pad + 14}" '
                    f'font-size="11" text-anchor="middle">{method}</text>')
        bars.append(f'<text x="{x + step * 0.35:.1f}" y="{y - 4:.1f}" '
                    f'font-size="11" text-anchor="middle">{total}</text>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}">'
            f'<text x="{width / 2}" y="18" font-size="13" text-anchor="middle">'
            f'optimizer selections: {dataset}</text>'
            + "".join(bars) + "</svg>\n")


def _write_metric_table(path, table_metric, datasets, methods,
                        per_cell_summaries) -> None:
    datasets = [ds for ds in datasets
                if any((ds, m) in per_cell_summaries for m in methods)]
    scores = {m: {ds: getattr(per_cell_summaries[(ds, m)], table_metric)
                  for ds in datasets if (ds, m) in per_cell_summaries}
              for m in methods}
    complete = all(len(scores[m]) == len(datasets) for m in methods)
    ranks = rank(scores) if complete and datasets else None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dataset," + ",".join(methods) + "\n")
        for ds in datasets:
            row = [ds]
            for m in methods:
                summary = per_cell_summaries.get((ds, m))
                row.append("" if summary is None
                           else f"{getattr(summary, table_metric):.{REPORT_DECIMALS}f}")
            fh.write(",".join(row) + "\n")
        if ranks is not None:
            fh.write("Rank," + ",".join(str(ranks[m]) for m in methods) + "\n")


def cmd_benchmark(args) -> int:
    config = load_config(args.config)
    if args.jobs is not None:
        config["jobs"] = args.jobs
    specs = _cells(config, "config")
    out = args.out
    for sub in ("tables", "selection") + (("charts",) if args.charts else ()):
        os.makedirs(os.path.join(out, sub), exist_ok=True)

    grouped, failures = {}, {}  # (dataset, method) -> cells, in spec order
    # the pool forks all its workers at the first submit: no idle ones
    jobs = min(config["jobs"], len(specs))
    with (concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
          if jobs > 1 else contextlib.nullcontext()) as pool:
        futures = [pool.submit(run_cell, spec) if pool else None
                   for spec in specs]
        for spec, future in zip(specs, futures):
            try:
                cell = future.result() if pool else run_cell(spec)
            except Exception as exc:  # a worker's traceback is its __cause__
                failures[f"{spec.dataset}/{spec.method}/run{spec.run_index}"] = {
                    "type": type(exc).__name__, "message": str(exc),
                    "traceback": traceback.format_exc()}
            else:
                grouped.setdefault((spec.dataset, spec.method), []).append(cell)

    summaries, raw = {}, {}
    for (ds, method), cells in grouped.items():
        summary = summaries[ds, method] = aggregate_runs(
            [RunMetrics(**c["metrics"]) for c in cells])
        entry = raw.setdefault(ds, {})[method] = {
            "summary": summary.to_jsonable(),
            "runs": [{k: c[k] for k in
                      ("run_index", "seed", "metrics", "train_error",
                       "test_error", "evaluations", "stop_reason")}
                     for c in cells],
        }
        if method != PORTFOLIO:
            continue
        entry["iterations_executed"] = [len(c["trace"]) for c in cells]
        counts = _selection_counts(cells)
        _write_selection_csv(os.path.join(out, "selection", f"{ds}.csv"), counts)
        if args.charts:
            with open(os.path.join(out, "charts", f"{ds}.svg"), "w",
                      encoding="utf-8") as fh:
                fh.write(_selection_chart_svg(ds, counts))

    for table_metric in METRIC_TABLES:
        _write_metric_table(os.path.join(out, "tables", f"{table_metric}.csv"),
                            table_metric, config["datasets"],
                            config["methods"], summaries)
    _dump_json(os.path.join(out, "summary.json"),
               {"config": {k: v for k, v in config.items() if k != "paths"},
                "results": raw})
    if failures:
        _dump_json(os.path.join(out, "failures.json"), failures)
        print(f"{len(failures)} cells failed; see failures.json", file=sys.stderr)
        return 1
    print(f"benchmark complete: {len(specs)} cells -> {out}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmpnn",
        description="Train PNN classifiers with a portfolio of swarm optimizers")
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="download benchmark datasets")
    fetch.add_argument("--dataset", action="append", choices=sorted(REGISTRY),
                       help="dataset name (repeatable); default: all")
    fetch.add_argument("--data-dir", default=None)
    fetch.set_defaults(fn=cmd_fetch)

    train = sub.add_parser("train", help="train one dataset with one method")
    train.add_argument("--dataset", required=True)
    train.add_argument("--method", default=PORTFOLIO,
                       choices=(PORTFOLIO,) + METHOD_NAMES)
    train.add_argument("--runs", type=_positive_int, default=10)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default="runs")
    train.add_argument("--data-dir", default=None)
    train.add_argument("--dataset-path", default=None,
                       help="use a local canonical CSV instead of the registry")
    train.add_argument("--iterations", type=int, default=None)
    train.add_argument("--population-size", type=int, default=None)
    train.add_argument("--probing-multiplier", type=int, default=None)
    train.add_argument("--fit-multiplier", type=int, default=None)
    train.add_argument("--test-fraction", type=float, default=None)
    train.add_argument("--zscore", action="store_true",
                       help="standardize features with training-split stats")
    train.set_defaults(fn=cmd_train)

    bench = sub.add_parser("benchmark", help="run the dataset x method grid")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--jobs", type=_positive_int, default=None)
    bench.add_argument("--charts", action="store_true",
                       help="emit SVG bar charts of optimizer selections")
    bench.set_defaults(fn=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
