"""The three closed-loop workloads: one client, one scene (or one CLI
cycle) in flight at a time, each run in its own process.

A workload has `setup()`, repeated by the runner and timed as set-up,
and `round(tally)`, one pass over the same operations, repeated until
the run's seconds are used. Every operation's output is checked right
after it is timed; checking is not part of any timed interval.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks

# The C8 scene family: 4096 points, two drawers, one lid, one handle.
C8_FAMILY = dict(
    points_per_scene=4096,
    drawer_count=(2, 2), lid_count=(1, 1), handle_count=(1, 1),
    body_extents_range=(0.45, 0.6),
)
WEIGHT_SEED = 0  # init_params seed; fixed so the net's behaviour is the same on every run
NET_ROUND = 4  # fresh scenes per net_4k round
ORACLE_ROUND = 16  # fresh scenes per oracle_noisy_4k round
ORACLE_SIGMAS = (0.005, 0.01)  # offset sigma (m), npcs sigma (unit cube)
CYCLE_SCENES = 4  # scenes per batch_cli cycle
A10_FLOOR = 90.0  # C7's bound on noisy oracle input


def mean_file_kb(paths) -> float:
    sizes = [os.path.getsize(p) for p in paths]
    return sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0


def scene_seeds(seed: int, count: int, stream: int = 0) -> list[int]:
    """`count` scene seeds derived from the benchmark seed."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


class Tally:
    """Latency samples, operation counts and check failures of one run."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds per scene, one per sample
        self.scenes = 0
        self.busy = 0.0  # seconds the samples cover
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def sample(self, seconds: float, scenes: int) -> None:
        self.latencies.append(seconds / scenes)
        self.scenes += scenes
        self.busy += seconds

    def fail(self, scenes: int, what: str) -> None:
        self.failed += scenes
        print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)

    def check(self, errors: list[str], where: str) -> None:
        self.errors.extend(f"{where}: {e}" for e in errors)


class Workload:
    def __init__(self, seed: int, tracer, out_dir: Path):
        from yoeo import cli, network, pipeline, synthetic

        self.cli, self.network = cli, network
        self.pipeline, self.synthetic = pipeline, synthetic
        self.seed = seed
        self.tracer = tracer
        self.out_dir = out_dir

    def finish(self, tally: Tally) -> None:
        """Checks over the whole run, after the last round."""


class SceneWorkload(Workload):
    """One scene at a time through the path; every round renders fresh
    scenes (untimed) so a run covers many scene geometries, not a pool."""

    round_size = 1

    def setup(self, warmup: Tally) -> None:
        self.rounds = 0
        with self.tracer.span("setup"):
            self.scenes = self.render_round(0)
        self.one(*self.scenes[0], warmup)

    def render_round(self, index: int) -> list:
        scenes = []
        for s in scene_seeds(self.seed, self.round_size, stream=index):
            cfg = self.synthetic.GenConfig(rng_seed=s, **C8_FAMILY)
            scenes.append((s, self.synthetic.render_scene(self.synthetic.generate_object(s, cfg), cfg)))
        return scenes

    def round(self, tally: Tally) -> None:
        if self.rounds:  # round 0 runs on the scenes set-up rendered
            self.scenes = self.render_round(self.rounds)
        self.rounds += 1
        for scene_seed, scene in self.scenes:
            self.one(scene_seed, scene, tally)

    def one(self, scene_seed: int, scene, tally: Tally) -> None:
        tally.attempted += 1
        try:
            with self.tracer.span("scene"):
                start = time.perf_counter()
                pred, instances = self.path(scene_seed, scene)
                elapsed = time.perf_counter() - start
        except Exception:
            tally.fail(1, f"scene {scene_seed}")
            return
        tally.sample(elapsed, 1)
        labels = pred.semantic_probs.argmax(axis=1)
        where = f"scene {scene_seed}"
        tally.check(checks.check_instances(len(scene.points), labels, instances), where)
        self.check(scene, pred, instances, tally, where)


class Net4k(SceneWorkload):
    """forward (k-NN features, MLP heads) + run_scene_pipeline."""

    round_size = NET_ROUND

    def setup(self, warmup: Tally) -> None:
        self.params = self.network.init_params(rng_seed=WEIGHT_SEED)
        super().setup(warmup)

    def path(self, scene_seed, scene):
        pred = self.network.forward(self.params, scene.points)
        return pred, self.pipeline.run_scene_pipeline(scene.points, pred)

    def check(self, scene, pred, instances, tally, where) -> None:
        tally.check(checks.check_forward(self.params, scene.points, pred), where)

    def finish(self, tally: Tally) -> None:
        # check_forward covers the features inside forward; this checks the
        # public point_features layer on its own, on the last round's scenes.
        for scene_seed, scene in self.scenes:
            features = self.network.point_features(scene.points, self.params.k)
            tally.check(
                checks.check_features(scene.points, self.params.k, features),
                f"scene {scene_seed} point_features",
            )


class OracleNoisy4k(SceneWorkload):
    """oracle_predict (sigma 5 mm / 0.01) + run_scene_pipeline."""

    round_size = ORACLE_ROUND

    def setup(self, warmup: Tally) -> None:
        self.pose_errors: list[tuple[float, float]] = []
        self.gt_parts = 0
        super().setup(warmup)
        self.pose_errors, self.gt_parts = [], 0  # the warm-up scene is not counted

    def path(self, scene_seed, scene):
        noise = self.network.OracleNoise(*ORACLE_SIGMAS, rng_seed=scene_seed)
        # Built per scene: one prediction holds 9.8 MB of logits.
        pred = self.network.oracle_predict(scene, noise)
        return pred, self.pipeline.run_scene_pipeline(scene.points, pred)

    def check(self, scene, pred, instances, tally, where) -> None:
        errors, pose_errors = checks.check_oracle_scene(scene, instances)
        tally.check(errors, where)
        self.pose_errors.extend(pose_errors)
        self.gt_parts += len(scene.instances)

    def finish(self, tally: Tally) -> None:
        a10 = checks.accuracy(self.pose_errors, self.gt_parts, 10.0, 0.10)
        if a10 < A10_FLOOR:
            tally.check([f"A10 {a10:.2f} below {A10_FLOOR}"], "oracle_noisy_4k")


class BatchCli(Workload):
    """yoeo generate -> infer --oracle -> eval through yoeo.cli.main."""

    def setup(self, warmup: Tally) -> None:
        self.base_seed = scene_seeds(self.seed, 1)[0]
        self.cycles = 0
        # Set-up is one warm-up cycle on scenes the timed cycles never use.
        warm_seed = scene_seeds(self.seed, 1, stream=1)[0]
        with self.tracer.span("setup"):
            self.cycle(warm_seed, self.out_dir / "warmup", warmup)

    def round(self, tally: Tally) -> None:
        seed = self.base_seed + self.cycles * CYCLE_SCENES
        self.cycle(seed, self.out_dir / f"cycle_{self.cycles:05d}", tally)
        self.cycles += 1

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def cycle(self, seed: int, work: Path, tally: Tally) -> None:
        tally.attempted += CYCLE_SCENES
        data, preds, report = work / "data", work / "preds", work / "eval"
        commands = [
            ("cli.generate", ["generate", "--seed", str(seed),
                              "--count", str(CYCLE_SCENES), "--out", str(data)]),
            ("cli.infer", ["infer", "--oracle", "--data", str(data), "--out", str(preds)]),
            ("cli.eval", ["eval", "--data", str(data), "--preds", str(preds),
                          "--out", str(report)]),
        ]
        codes = []
        try:
            with self.tracer.span("cycle") as cycle_span:
                start = time.perf_counter()
                for name, argv in commands:
                    with self.tracer.span(name):
                        codes.append(self._main(argv))
                elapsed = time.perf_counter() - start
        except Exception:
            tally.fail(CYCLE_SCENES, f"batch_cli cycle seed {seed}")
        else:
            where = f"batch_cli cycle seed {seed}"
            if codes != [0, 0, 0]:
                tally.check([f"exit codes {codes}"], where)
            else:
                tally.sample(elapsed, CYCLE_SCENES)
                tally.check(checks.check_batch_cycle(data, preds, report, CYCLE_SCENES), where)
                if cycle_span is not None:
                    cycle_span.attrs["pred_file_kb"] = mean_file_kb(preds.glob("pred_*.json"))
        finally:
            shutil.rmtree(work, ignore_errors=True)

WORKLOADS = {"net_4k": Net4k, "oracle_noisy_4k": OracleNoisy4k, "batch_cli": BatchCli}
