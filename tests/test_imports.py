"""The pipeline's commands run on numpy alone: scipy is a test-time oracle only.

Importing ``scipy.special`` costs a fresh process about 0.3 s and 25 MB, and
every command is a fresh process, so no command may load it, at the top of
a module or lazily inside a function.  The modules that the timed commands
(``adapt``, ``finetune``, ``evaluate``) use load with ``replyrank.cli`` or
during ``build-vocab``, the end of set-up, so no import falls in their time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "data" / "toy"

PIPELINE = """
import json, sys
from replyrank.cli import main

loaded_by = []

def run(*argv):
    before = set(sys.modules)
    code = main([str(a) for a in argv])
    loaded_by.append(sorted(set(sys.modules) - before))
    return code

work, data = sys.argv[1], sys.argv[2]
codes = [
    run("build-vocab", "--input", work + "/train.tsv", "--out", work + "/vocab.txt"),
    run("adapt", "--data", work + "/train.tsv", "--vocab", work + "/vocab.txt", "--config", work + "/config.json",
        "--checkpoint-out", work + "/adapted.npz", "--validation", work + "/train.tsv"),
    run("finetune", "--data", work + "/train.tsv", "--vocab", work + "/vocab.txt", "--config", work + "/config.json",
        "--checkpoint-in", work + "/adapted.npz", "--checkpoint-out", work + "/tuned.npz",
        "--validation", data + "/valid_pools.jsonl"),
    run("evaluate", "--pools", data + "/test_pools.jsonl", "--checkpoint", work + "/tuned.npz",
        "--vocab", work + "/vocab.txt", "--threshold-sweep"),
]
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy_modules": loaded, "loaded_after_set_up": loaded_by[1:]}))
"""


def test_pipeline_commands_import_no_scipy_and_timed_commands_import_nothing(tmp_path):
    config = {
        "model": {"hidden_dim": 16, "num_layers": 1, "num_heads": 2, "ffn_dim": 24, "max_seq_len": 64},
        "train": {"learning_rate": 3e-3, "batch_size": 8, "max_epochs": 1},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "train.tsv").write_text("".join((DATA_DIR / "train.tsv").read_text().splitlines(True)[:24]))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE, str(tmp_path), str(DATA_DIR)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy_modules": [], "loaded_after_set_up": [[], [], []]}
