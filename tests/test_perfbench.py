"""The benchmark under perfbench/ calls the program by name: trace mode
wraps `cli.load_scene`, `pipeline.recover_pose`, `geometry.umeyama_align`
and others, and its checks read prediction fields. These tests run it,
and its self-check, on a copy of `src/` and `perfbench/`, so a rename or
deletion in `src/` that the benchmark depends on fails here and nothing
is written under the repository."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from families import C8_FAMILY

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(REPO / name, root / name, ignore=skip)
    return root


def run_script(checkout, *argv):
    # The benchmark imports yoeo from the copy's src/ and refuses any other.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *map(str, argv)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


# Layer metrics each traced workload must reach. A wrapped name that the
# program no longer calls reads 0, so these catch a broken trace wiring.
REACHED_LAYERS = {
    "net_4k": ["network.point_features.ms", "network.heads.ms",
               "instance.cluster_instances.ms", "npcs.recover_pose.ms"],
    "oracle_noisy_4k": ["network.oracle_predict.ms", "npcs.recover_pose.ms",
                        "geometry.umeyama_align.ms"],
    "batch_cli": ["synthetic.load_scene.ms", "synthetic.save_scene.ms",
                  "metrics.evaluate_scenes.ms", "cli.infer.ms", "cli.eval.ms"],
}


@pytest.mark.parametrize("workload", list(REACHED_LAYERS))
def test_traced_workload_runs_and_checks_out(checkout, workload):
    last = run_script(checkout, "perfbench/run.py", "--workload", workload,
                      "--seed", 3, "--seconds", 0.3, "--trace", 1)
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    unreached = [name for name in REACHED_LAYERS[workload]
                 if not result["metrics"][name]["value"] > 0]
    assert not unreached, unreached


def test_selfcheck_catches_every_corruption(checkout):
    last = run_script(checkout, "perfbench/selfcheck.py")
    found = re.fullmatch(r"(\d+)/(\d+) checks behave", last)
    assert found and found.group(1) == found.group(2), last


def test_c8_family_matches_the_benchmark_copy():
    # perfbench/workloads.py writes C8_FAMILY as dict(key=literal, ...).
    tree = ast.parse((REPO / "perfbench/workloads.py").read_text())
    family = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["C8_FAMILY"]
    )
    assert {kw.arg: ast.literal_eval(kw.value) for kw in family.keywords} == C8_FAMILY
