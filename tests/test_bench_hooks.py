"""The benchmark's tracer still sees the density engine.

``bench/tracer.py`` replaces ``DensityEvaluator.__init__`` with a wrapper of
a fixed signature and times ``DensityEvaluator.error_rate``. A refactor that
changes the signature, or an objective that bypasses ``error_rate``, would
break the benchmark's runs or leave its per-layer figures empty. The tracer
also wraps each optimizer's ``run`` and charges every objective call to the
method whose ``run`` encloses it, so no objective call may happen outside
``run``. The run happens in a child process, so the tracer's patches stay
out of this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from swarmpnn.optimizers import METHOD_NAMES

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, os
import swarmpnn, tracer
from swarmpnn.datasets import REGISTRY, SplitSpec, load_csv, stratified_split
from swarmpnn.hybrid import HybridConfig, train_hybrid

spans = tracer.Tracer()
tracer.install(spans)
iris = load_csv(os.path.join(os.path.dirname(swarmpnn.__file__), "data",
                             "iris.csv"), REGISTRY["iris"])
train, test = stratified_split(iris, SplitSpec(seed=0))
cfg = HybridConfig(iterations=1, probing_multiplier=1, fit_multiplier=1,
                   smoothing_kind="per_class_feature")
result = train_hybrid(train, test, cfg, observer=spans.observer)
print(json.dumps({"n_t": train.n_samples, "evaluations": result.evaluations,
                  **tracer.layer_metrics([spans.spans], cfg.methods)}))
"""


def test_tracer_sees_every_objective_call():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    metrics = json.loads(run.stdout.splitlines()[-1])
    assert metrics["pnn.objective_calls"] > 0
    assert (metrics["pnn.objective_calls"] * metrics["n_t"]
            == metrics["evaluations"])
    # every objective call happens inside some method's traced ``run``
    calls = [metrics[f"optimizers.{m}.calls"] for m in METHOD_NAMES]
    assert min(calls) > 0
    assert sum(calls) == metrics["pnn.objective_calls"]
    assert metrics["pnn.error_rate_us.p50"] > 0
    assert metrics["pnn.bytes_per_call"] > 0
