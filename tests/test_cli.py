import json
from pathlib import Path

import numpy as np
import pytest

from swarmpnn import datasets
from swarmpnn.cli import load_config, main
from swarmpnn.datasets import write_canonical_csv


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


class TestFetchCommand:
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
        def offline(url):
            raise OSError(f"offline: {url}")

        monkeypatch.setattr(datasets, "_default_opener", offline)
        rc = main(["fetch", "--dataset", "banknote", "--dataset", "iris",
                   "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc != 0
        assert "banknote: FAILED" in captured.err
        assert (tmp_path / "iris.csv").exists()


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

    def test_partial_failure_reported(self, tmp_path, toy_csv):
        cfg = bench_config(tmp_path, toy_csv,
                           datasets=["toy", "ghostly"],
                           paths={"toy": toy_csv,
                                  "ghostly": str(tmp_path / "missing.csv")})
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

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": ["iris"]}))
        with pytest.raises(SystemExit, match="unknown key"):
            load_config(str(path))
