"""The third, fourth and fifth digests of ``tools/seeded_hash.py``: every
training result and direct optimizer run, the bytes of the leave-one-out
class densities and error rates, and every file the command line writes,
including a registry dataset loaded into its cache."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HASH_TWO = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import seeded_hash
for parts in (seeded_hash.loo_densities(), seeded_hash.cli_outputs()):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    print(digest.hexdigest())
"""

HASH_TRAINING = """
import sys
sys.path.insert(0, sys.argv[1])
import seeded_hash
print(seeded_hash.training_digests()[2].hexdigest())
"""

TRAINING = ("d1417cb14aadc7de3c61df2d6c77ed54f1f9634b9ebf3ef80275292a2c01"
            "5531")
LOO_DENSITIES = ("b85ef76cbe8e0aebd07c802e389b48a1b3996f84db11f56c8698e32f"
                 "1177ae41")
CLI_OUTPUTS = ("a36c5f5c154eea77726f8d5067411b38c92d221deb65f58d5288252c0e9"
               "dedad")


def digests(script, tmp_path):
    run = subprocess.run([sys.executable, "-c", script, str(ROOT / "tools")],
                         env=dict(os.environ, TMPDIR=str(tmp_path)),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_loo_density_and_cli_output_digests(tmp_path):
    assert digests(HASH_TWO, tmp_path) == [LOO_DENSITIES, CLI_OUTPUTS]


def test_training_digest(tmp_path):
    # train_hybrid and every train_single method, and direct Optimizer.run
    # calls, at iris, glass, wide-raw, banknote and ecoli shapes
    assert digests(HASH_TRAINING, tmp_path) == [TRAINING]


def test_readme_gives_every_pinned_digest():
    # the corpus digest is pinned in tests/test_datasets.py; README gives
    # its first 8 hex digits
    tree = ast.parse((ROOT / "tests" / "test_datasets.py").read_text())
    corpus, = (ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [ast.unparse(t) for t in node.targets] == ["CORPUS_DIGEST"])
    readme = (ROOT / "README.md").read_text()
    for digest in (TRAINING, LOO_DENSITIES, CLI_OUTPUTS, corpus[:8]):
        assert digest in readme
