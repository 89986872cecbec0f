import concurrent.futures
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from swarmpnn import cli, datasets
from swarmpnn.cli import load_config, main
from swarmpnn.datasets import (
    REGISTRY,
    DatasetValidationWarning,
    load_csv,
    write_canonical_csv,
)


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.4, size=(24, 2))
    b = rng.normal(8.0, 0.4, size=(24, 2))
    features = np.vstack([a, b])
    labels = ["low"] * 24 + ["high"] * 24
    path = tmp_path / "toy.csv"
    write_canonical_csv(path, features, labels)
    return str(path)


def tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def bench_config(tmp_path, toy_csv, **overrides):
    cfg = {
        "datasets": ["toy"],
        "methods": ["hybrid", "pso", "sa"],
        "runs": 2,
        "seed": 0,
        "paths": {"toy": toy_csv},
        "hybrid": {"iterations": 2, "population_size": 6,
                   "probing_multiplier": 2, "fit_multiplier": 4},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


ROOT = Path(__file__).resolve().parents[1]

# One smoke cell on the bundled iris, as a benchmark worker runs it.
SMOKE_CELL = """
import json, os, sys
import swarmpnn
from swarmpnn.cli import _cells, default_config, run_cell

config = default_config()
config["methods"], config["runs"] = ["hybrid"], 1
config["paths"] = {"iris": os.path.join(os.path.dirname(swarmpnn.__file__),
                                        "data", "iris.csv")}
config["hybrid"] = {"iterations": 1, "probing_multiplier": 1,
                    "fit_multiplier": 1}
(spec,) = _cells(config, "smoke")
cell = run_cell(spec)
print(json.dumps({"evaluations": cell["evaluations"],
                  "modules": sorted(sys.modules)}))
"""


def test_training_process_loads_no_network_stack():
    """Only a download needs urllib, and with it ssl, http and email."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", SMOKE_CELL], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["evaluations"] > 0
    network = {"urllib.request", "http.client", "ssl", "email"}
    assert sorted(network & set(report["modules"])) == []


def count_parses(monkeypatch):
    """The base name of every file parsed from now on, in order."""
    parsed = []
    read_table = datasets._read_table

    def counting(lines, layout):
        parsed.append(os.path.basename(lines.name))
        return read_table(lines, layout)

    monkeypatch.setattr(datasets, "_read_table", counting)
    return parsed


class TestFetchCommand:
    def test_each_dataset_parsed_once(self, tmp_path, monkeypatch):
        # once when the bundled copy is materialized, once when it is cached
        parsed = count_parses(monkeypatch)
        for _ in range(2):
            assert main(["fetch", "--dataset", "iris",
                         "--data-dir", str(tmp_path)]) == 0
        assert parsed == ["iris.csv", "iris.csv"]

    def test_fetch_local_provider(self, tmp_path, capsys):
        rc = main(["fetch", "--dataset", "iris", "--data-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "iris.csv").exists()
        assert "iris: ok" in capsys.readouterr().out

    def test_fetch_cached_is_noop(self, tmp_path):
        main(["fetch", "--dataset", "iris", "--data-dir", str(tmp_path)])
        before = (tmp_path / "iris.csv").read_bytes()
        assert main(["fetch", "--dataset", "iris", "--data-dir", str(tmp_path)]) == 0
        assert (tmp_path / "iris.csv").read_bytes() == before

    def test_fetch_failure_continues_and_reports(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(datasets, "_default_opener", offline)
        rc = main(["fetch", "--dataset", "banknote", "--dataset", "iris",
                   "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc != 0
        assert "banknote: FAILED" in captured.err
        assert (tmp_path / "iris.csv").exists()

    def test_unknown_dataset_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fetch", "--dataset", "irsi", "--data-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'irsi'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def offline(url):
    raise OSError(f"offline: {url}")


class TestTrainCommand:
    def args(self, toy_csv, out, method="hybrid", runs=2, seed=3):
        return ["train", "--dataset", "toy", "--dataset-path", toy_csv,
                "--method", method, "--runs", str(runs), "--seed", str(seed),
                "--out", out, "--iterations", "2", "--population-size", "6",
                "--probing-multiplier", "2", "--fit-multiplier", "4"]

    def test_hybrid_outputs(self, tmp_path, toy_csv):
        out = str(tmp_path / "runs")
        assert main(self.args(toy_csv, out)) == 0
        cell_dir = Path(out) / "toy_hybrid"
        run0 = json.loads((cell_dir / "run_000.json").read_text())
        assert {"metrics", "smoothing", "stop_reason", "seed"} <= run0.keys()
        assert run0["metrics"]["accuracy"] == 1.0
        assert (cell_dir / "trace_run_000.jsonl").exists()
        summary = json.loads((cell_dir / "summary.json").read_text())
        assert {"avg_accuracy", "max_accuracy"} <= summary.keys()

    def test_single_method_has_no_trace(self, tmp_path, toy_csv):
        out = str(tmp_path / "runs")
        assert main(self.args(toy_csv, out, method="pso")) == 0
        cell_dir = Path(out) / "toy_pso"
        assert (cell_dir / "run_000.json").exists()
        assert not list(cell_dir.glob("trace_*"))

    def test_byte_identical_reruns(self, tmp_path, toy_csv):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(self.args(toy_csv, out1))
        main(self.args(toy_csv, out2))
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_zero_runs_is_a_usage_error(self, tmp_path, toy_csv, capsys):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(self.args(toy_csv, str(out), runs=0))
        assert exc.value.code != 0
        assert "--runs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--iterations", "0", "iterations"),
        ("--population-size", "0", "population_size"),
        ("--probing-multiplier", "0", "multipliers"),
        ("--fit-multiplier", "0", "multipliers"),
        ("--test-fraction", "1.5", "test_fraction"),
    ])
    def test_bad_setting_stops_before_any_work(self, tmp_path, toy_csv,
                                               flag, value, message):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit, match=f"train: {message}"):
            main(self.args(toy_csv, str(out)) + [flag, value])
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--dataset", "irsi"], "train: unknown dataset 'irsi'"),
        (["--dataset", "iris", "--method", "cmaes"], "invalid choice: 'cmaes'"),
        (["--dataset", "banknote"], "train: banknote: download failed"),
    ], ids=["dataset", "method", "unfetchable"])
    def test_unknown_name_stops_before_any_work(self, tmp_path, capsys,
                                                monkeypatch, argv, message):
        monkeypatch.setattr(datasets, "_default_opener", offline)
        monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path / "data"))
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(out)] + argv)
        assert exc.value.code != 0
        assert message in f"{exc.value.code}\n{capsys.readouterr().err}"
        assert not out.exists()

    def test_bad_setting_exit_status_and_stderr(self, tmp_path, toy_csv):
        out = tmp_path / "runs"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "swarmpnn.cli"]
            + self.args(toy_csv, str(out)) + ["--population-size", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode != 0
        assert "train: population_size must be >= 2" in run.stderr
        assert "Traceback" not in run.stderr
        assert not out.exists()

    def test_zscore_flag(self, tmp_path, toy_csv):
        out = str(tmp_path / "runs")
        assert main(self.args(toy_csv, out) + ["--zscore"]) == 0
        run0 = json.loads(
            (Path(out) / "toy_hybrid" / "run_000.json").read_text())
        assert run0["metrics"]["accuracy"] == 1.0


class TestBenchmarkCommand:
    def test_grid_outputs(self, tmp_path, toy_csv):
        cfg = bench_config(tmp_path, toy_csv)
        out = str(tmp_path / "bench")
        assert main(["benchmark", "--config", cfg, "--out", out]) == 0
        tables = Path(out) / "tables"
        for name in ("avg_accuracy", "max_accuracy", "avg_precision",
                     "avg_recall"):
            text = (tables / f"{name}.csv").read_text().splitlines()
            assert text[0] == "dataset,hybrid,pso,sa"
            assert text[1].startswith("toy,")
            assert text[-1].startswith("Rank,")
        selection = (Path(out) / "selection" / "toy.csv").read_text().splitlines()
        assert selection[0] == "method,iteration,count"
        counts = sum(int(line.split(",")[2]) for line in selection[1:])
        summary = json.loads((Path(out) / "summary.json").read_text())
        executed = summary["results"]["toy"]["hybrid"]["iterations_executed"]
        assert counts == sum(executed)

    def test_byte_identical_reruns(self, tmp_path, toy_csv):
        cfg = bench_config(tmp_path, toy_csv)
        out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
        assert main(["benchmark", "--config", cfg, "--out", out1]) == 0
        assert main(["benchmark", "--config", cfg, "--out", out2]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_parallel_matches_serial(self, tmp_path, toy_csv):
        cfg = bench_config(tmp_path, toy_csv)
        serial, parallel = str(tmp_path / "s"), str(tmp_path / "p")
        assert main(["benchmark", "--config", cfg, "--out", serial]) == 0
        assert main(["benchmark", "--config", cfg, "--out", parallel,
                     "--jobs", "2"]) == 0
        a, b = tree_bytes(serial), tree_bytes(parallel)
        a.pop("summary.json"), b.pop("summary.json")  # embeds the jobs setting
        assert a == b

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, toy_csv, capsys,
                                             jobs):
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--config", bench_config(tmp_path, toy_csv),
                  "--out", str(out), "--jobs", jobs])
        assert exc.value.code != 0
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods, runs, jobs, pools", [
        (["pso"], 2, "8", [2]),        # two cells: no idle workers
        (["pso", "sa"], 2, "3", [3]),  # four cells
        (["pso"], 1, "2", []),         # one cell runs serially
    ], ids=["more-jobs-than-cells", "fewer-jobs-than-cells", "one-cell"])
    def test_pool_sized_to_cells(self, tmp_path, toy_csv, monkeypatch,
                                 methods, runs, jobs, pools):
        sizes = []

        class InlinePool:
            """Runs each cell at submit; starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        cfg = bench_config(tmp_path, toy_csv, methods=methods, runs=runs)
        assert main(["benchmark", "--config", cfg, "--out",
                     str(tmp_path / "bench"), "--jobs", jobs]) == 0
        assert sizes == pools

    def test_partial_failure_reported(self, tmp_path, toy_csv, monkeypatch):
        # every ghostly cell fails while it runs; the config checks pass
        run_cell = cli.run_cell

        def failing(spec):
            if spec.dataset == "ghostly":
                raise MemoryError("ghostly ran out of memory")
            return run_cell(spec)

        monkeypatch.setattr(cli, "run_cell", failing)
        cfg = bench_config(tmp_path, toy_csv,
                           datasets=["toy", "ghostly"],
                           paths={"toy": toy_csv, "ghostly": toy_csv})
        out = str(tmp_path / "bench")
        rc = main(["benchmark", "--config", cfg, "--out", out])
        assert rc == 1
        failures = json.loads((Path(out) / "failures.json").read_text())
        assert any(key.startswith("ghostly/") for key in failures)
        # the healthy dataset still produced its rows
        table = (Path(out) / "tables" / "avg_accuracy.csv").read_text()
        assert "toy," in table

    def test_charts_emitted_on_request(self, tmp_path, toy_csv):
        cfg = bench_config(tmp_path, toy_csv, methods=["hybrid"])
        out = str(tmp_path / "bench")
        assert main(["benchmark", "--config", cfg, "--out", out,
                     "--charts"]) == 0
        svg = (Path(out) / "charts" / "toy.svg").read_text()
        assert svg.startswith("<svg") and "optimizer selections" in svg

    @pytest.mark.parametrize("overrides, message", [
        ({"runs": 0}, "'runs' must be an integer >= 1"),
        ({"runs": 2.5}, "'runs' must be an integer >= 1"),
        ({"jobs": -3}, "'jobs' must be an integer >= 1"),
        ({"jobs": True}, "'jobs' must be an integer >= 1"),
        ({"hybrid": {"population_size": 0}}, "population_size"),
        ({"hybrid": {"iteration": 2}}, "iteration"),
        ({"split": {"test_fraction": 1.5}}, "test_fraction"),
        ({"split": {"tset_fraction": 0.5}}, "'tset_fraction'"),
        ({"split": {"seed": 3}}, "'seed'"),
        ({"zscore": "false"}, "'zscore' must be true or false, got 'false'"),
        ({"zscore": 1}, "'zscore' must be true or false, got 1"),
        ({"seed": "zero"}, "zero"),
        ({"seed": 1.7}, "'seed' must be an integer, got 1.7"),
        ({"seed": True}, "'seed' must be an integer, got True"),
        ({"hybrid": {"population_size": 8.0}},
         "population_size must be an integer, got 8.0"),
        ({"hybrid": {"iterations": 2.5, "population_size": 6,
                     "probing_multiplier": 2, "fit_multiplier": 4}},
         "iterations must be an integer, got 2.5"),
        ({"datasets": "toy"}, "'datasets' must be a list of names, got 'toy'"),
        ({"methods": "pso"}, "'methods' must be a list of names, got 'pso'"),
        ({"datasets": ["toy", "irsi"]}, "unknown dataset 'irsi'"),
        ({"methods": ["hybrid", "cmaes"]}, "unknown method 'cmaes'"),
        ({"pso": {"omega2": 1.0}}, "bad parameters for pso: .*'omega2'"),
        ({"datasets": ["toy", "toy"]}, "'datasets' repeats a name"),
        ({"methods": ["hybrid", "pso", "pso"]}, "'methods' repeats a name"),
        ({"datasets": ["toy", "banknote"]}, "banknote: download failed"),
        ({"paths": {"toy": "missing/toy.csv"}}, "missing/toy.csv"),
        ({"datasets": ["iris"], "split": {"test_fraction": 0.001}},
         "test_fraction 0.001 of 150 rows leaves an empty test split"),
        ({"hybrid": {"bounds": [0, 1e400]}},
         r"bounds: expected finite numbers, got \(0, inf\)"),
        ({"hybrid": {"fitness_threshold": "0.1"}},
         "fitness_threshold: expected finite numbers, got '0.1'"),
        ({"hybrid": {"init_range": [0, float("nan")]}},
         r"init_range: expected finite numbers, got \(0, nan\)"),
        ({"pso": {"c2": 1e400}},
         "bad parameters for pso: c2 must be a finite number, got inf"),
        ({"bat": {"max_f": float("nan")}},
         "bad parameters for bat: max_f must be a finite number, got nan"),
        ({"bfo": {"n_c": 1e400}},
         "bad parameters for bfo: n_c must be a finite number, got inf"),
        ({"bfo": {"n_c": 4.5}},
         "bad parameters for bfo: n_c must be an integer, got 4.5"),
        ({"bfo": {"n_s": True}},
         "bad parameters for bfo: n_s must be an integer, got True"),
        ({"pso": {"adjust_omega": 0.5}},
         "bad parameters for pso: adjust_omega must be true or false, got 0.5"),
        ({"bat": {"alpha": True}},
         "bad parameters for bat: alpha must be a number, got True"),
        ({"pso": {"c2": 10 ** 400}},
         "bad parameters for pso: c2 must be a finite number, got 1000"),
        ({"hybrid": {"fitness_threshold": 10 ** 400}},
         "fitness_threshold: expected finite numbers, got 1000"),
        ({"hybrid": {"fitness_threshold": True}},
         "fitness_threshold: expected finite numbers, got True"),
        ({"hybrid": {"init_range": [0, True]}},
         r"init_range: expected finite numbers, got \(0, True\)"),
        ({"split": {"test_fraction": "0.2"}},
         r"test_fraction must be a number in \(0, 1\), got '0.2'"),
        ({"bfo": {"n_c": 0}},
         "bad parameters for bfo: need n_c >= 1 and n_s >= 0, got 0 and 4"),
        ({"bfo": {"n_s": -1}},
         "bad parameters for bfo: need n_c >= 1 and n_s >= 0, got 4 and -1"),
        ({"datasets": []}, "'datasets' must name at least one entry"),
        ({"methods": []}, "'methods' must name at least one entry"),
        ({"hybrid": []}, r"'hybrid' must be an object, got \[\]"),
        ({"pso": []}, r"'pso' must be an object, got \[\]"),
        ({"split": 0.3}, "'split' must be an object, got 0.3"),
        ({"data_dir": 5}, "'data_dir' must be a path or null, got 5"),
        ({"paths": {"toy": 0}},
         r"'paths' must map each name to a file path, got \{'toy': 0\}"),
        ({"paths": {"toy": ["a"]}},
         r"'paths' must map each name to a file path, got \{'toy': \['a'\]\}"),
    ], ids=["runs-0", "runs-float", "jobs-negative", "jobs-bool",
            "hybrid-population", "hybrid-unknown-key", "split-fraction",
            "split-unknown-key", "split-seed", "zscore-string", "zscore-int",
            "seed", "seed-float", "seed-bool", "hybrid-population-float",
            "hybrid-iterations-float", "datasets-string", "methods-string",
            "unknown-dataset", "unknown-method", "method-unknown-key",
            "repeated-dataset", "repeated-method", "unfetchable-dataset",
            "unreadable-path", "unmakeable-split", "bounds-infinite",
            "threshold-string", "init-range-nan", "pso-param-infinite",
            "bat-param-nan", "bfo-param-infinite", "bfo-param-fraction",
            "bfo-param-bool", "pso-param-number", "bat-param-bool",
            "pso-param-huge-int", "threshold-huge-int", "threshold-bool",
            "init-range-bool", "split-string", "bfo-chemotaxis-zero",
            "bfo-swims-negative", "datasets-empty", "methods-empty",
            "hybrid-list", "pso-list", "split-number", "data-dir-number",
            "paths-number", "paths-list"])
    def test_bad_setting_stops_before_any_work(self, tmp_path, toy_csv,
                                               monkeypatch, overrides, message):
        monkeypatch.setattr(datasets, "_default_opener", offline)
        monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path / "data"))
        out = tmp_path / "bench"
        with pytest.raises(SystemExit, match=f"config: .*{message}"):
            main(["benchmark", "--config",
                  bench_config(tmp_path, toy_csv, **overrides),
                  "--out", str(out)])
        assert not out.exists()

    def test_registry_dataset_resolved_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(name, data_dir=None):
            calls.append(name)
            return datasets.load_benchmark(name, data_dir)

        monkeypatch.setattr(cli, "load_benchmark", counting)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "datasets": ["iris"], "methods": ["pso", "sa"], "runs": 2,
            "data_dir": str(tmp_path / "data"),
            "hybrid": {"iterations": 1, "population_size": 4,
                       "probing_multiplier": 1, "fit_multiplier": 1}}))
        assert main(["benchmark", "--config", str(cfg), "--out",
                     str(tmp_path / "bench")]) == 0
        assert calls == ["iris"]

    def test_each_dataset_loaded_once(self, tmp_path, toy_csv, monkeypatch):
        loaded = count_parses(monkeypatch)
        cfg = bench_config(tmp_path, toy_csv, datasets=["toy", "iris"],
                           methods=["pso", "sa"],
                           data_dir=str(tmp_path / "data"))
        assert main(["benchmark", "--config", cfg, "--out",
                     str(tmp_path / "bench")]) == 0
        assert loaded == ["toy.csv", "iris.csv"]

    def test_validation_warning_emitted_once(self, tmp_path, toy_csv):
        # a CSV under a registry name that disagrees with the registry
        cfg = bench_config(tmp_path, toy_csv, datasets=["iris"],
                           methods=["pso", "sa"], paths={"iris": toy_csv})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DatasetValidationWarning)
            assert main(["benchmark", "--config", cfg, "--out",
                         str(tmp_path / "bench")]) == 0
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, DatasetValidationWarning)]
        assert len(messages) == 1
        assert messages[0].startswith("iris (")

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": ["iris"]}))
        with pytest.raises(SystemExit, match="unknown key"):
            load_config(str(path))


def registry_shape_csvs(root):
    """A seeded synthetic canonical CSV at each registry dataset's shape and
    class balance, with raw-like feature scales from 1e-2 to 1e3."""
    paths = {}
    for index, (name, d) in enumerate(sorted(REGISTRY.items())):
        rng = np.random.default_rng(index)
        g, n = len(d.expected_balance), d.expected_features
        labels = np.repeat(np.arange(g), d.expected_balance)
        rng.shuffle(labels)
        scales = 10.0 ** np.linspace(-2.0, 3.0, n)
        features = scales * (rng.standard_normal((g, n))[labels]
                             + rng.standard_normal((len(labels), n)))
        paths[name] = str(root / f"{name}.csv")
        write_canonical_csv(paths[name], features,
                            [f"c{label}" for label in labels])
    return paths


@pytest.mark.parametrize("kind", ["per_feature", "per_class_feature"])
def test_smoke_grid_at_every_registry_shape(tmp_path, kind):
    """Every method trains end to end on every registry shape."""
    paths = registry_shape_csvs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DatasetValidationWarning)
        for name, path in paths.items():
            load_csv(path, REGISTRY[name])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "datasets": sorted(paths), "methods": list(cli.DEFAULT_METHODS),
        "runs": 1, "paths": paths,
        "hybrid": {"iterations": 1, "population_size": 4,
                   "probing_multiplier": 1, "fit_multiplier": 1,
                   "smoothing_kind": kind}}))
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                 "--jobs", "2"]) == 0
    assert not (out / "failures.json").exists()
    results = json.loads((out / "summary.json").read_text())["results"]
    assert sorted(results) == sorted(REGISTRY)
    assert all(len(methods) == 6 for methods in results.values())
