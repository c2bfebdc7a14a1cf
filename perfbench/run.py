#!/usr/bin/env python3
"""Benchmark for the replyrank pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (see ``workloads.py``).
The run then starts fresh worker processes one after another for about
``--seconds`` seconds; each imports ``replyrank.cli`` from ``src/``, runs
``build-vocab`` (the end of set-up) and the workload's timed stages through
``replyrank.cli.main``.  Every worker of a run repeats the same stages on the
same inputs, so their loss logs and checkpoints must be identical: that is
the replay check.  Extra set-up-only workers bring the ``setup_s`` samples
up to ``MIN_SETUPS``.

``--trace 0`` reports the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced and traced workers; the traced ones wrap
each module's functions where another module calls them and report per-layer
self times and counts, each stage's self-time residual, and the tracing
overhead (traced minus untraced ``pipeline_s``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 on a completed run, 1 when a worker could not run, 2 when the
current directory holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import layer_metrics  # noqa: E402

OUT_DIR = ".perfbench"
HARD_LIMIT_S = 140.0  # start no worker after this, whatever --seconds says
MIN_SETUPS = 12
RESIDUAL_TOLERANCE_S = 1e-6
RECALL = "10:1,10:2,10:5"
# At this model size one BLAS thread is as fast as two on a 2-core machine,
# and a run's time then does not depend on what runs on the other core.
BLAS_THREADS = 1
REPORT_KEYS = ("R@10,1", "R@10,2", "R@10,5", "MAP", "MRR", "P@1")

# Epochs per phase: a fixed number of optimizer steps, so the logged losses
# are "loss after N steps" and repeat bit for bit for a seed.
EPOCHS = {
    "train-short": {"adapt": 2, "finetune": 1},
    "train-long": {"adapt": 2, "finetune": 1},
    "rank-multiparty": {"adapt": 8, "finetune": 1},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "adapt_examples_per_s": "1/s",
    "finetune_examples_per_s": "1/s",
    "evaluate_candidates_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "adapt_loss": "nat",
    "finetune_loss": "nat",
}


# --- environment --------------------------------------------------------------


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(root: Path, blas_threads: int | None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "unknown"), blas.get("version", "")),
        "blas_threads": blas_threads,
        "nproc": nproc,
        "blas_threads_over_nproc": blas_threads is not None and blas_threads > nproc,
        "commit": commit,
    }


# --- workers ------------------------------------------------------------------


class Plan:
    """Input files, config and stage lists of one run."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        toy = json.loads((root / "configs" / "toy.json").read_text(encoding="utf-8"))
        config = {"model": toy["model"], "train": toy["train"]}
        for phase, epochs in EPOCHS[workload].items():
            config[phase] = {"max_epochs": epochs}
        self.config = work / "bench_config.json"
        self.config.write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.inputs = work / "inputs"
        self.props = workloads.generate(workload, seed, self.inputs, toy["model"]["max_seq_len"])
        batch = toy["train"]["batch_size"]
        self.steps_per_epoch = {
            phase: math.ceil(self.props["%s_instances" % phase] / batch) for phase in ("adapt", "finetune")
        }
        multiparty = workload == "rank-multiparty"
        self.format, self.data = ("jsonl", "train_pools.jsonl") if multiparty else ("tsv", "train.tsv")
        self.model = work / "prep0" / "model.npz" if multiparty else None

    def spec(self, role: str, out: Path) -> dict:
        """Stages for one worker: ``prep`` trains, ``pipeline`` is timed, ``setup`` only sets up."""
        stages = [{"name": "build-vocab", "argv": ["build-vocab", "--input", str(self.inputs / self.data),
                                                   "--format", self.format, "--out", str(out / "vocab.txt")]}]
        artifacts = {"vocab": str(out / "vocab.txt")}
        model = self.model
        if role == "prep" or (role == "pipeline" and model is None):
            common = ["--data", str(self.inputs / self.data), "--format", self.format,
                      "--vocab", str(out / "vocab.txt"), "--config", str(self.config), "--seed", str(self.seed)]
            stages.append({"name": "adapt", "argv": ["adapt", *common, "--checkpoint-out", str(out / "adapted.npz"),
                                                     "--loss-log", str(out / "adapt.csv")]})
            stages.append({"name": "finetune", "argv": ["finetune", *common,
                                                        "--checkpoint-in", str(out / "adapted.npz"),
                                                        "--checkpoint-out", str(out / "model.npz"),
                                                        "--loss-log", str(out / "finetune.csv")]})
            for name in ("adapt.csv", "finetune.csv", "adapted.npz", "model.npz"):
                artifacts[name] = str(out / name)
            model = out / "model.npz"
        if role == "pipeline":
            stages.append({"name": "evaluate", "argv": ["evaluate", "--pools", str(self.inputs / "test_pools.jsonl"),
                                                        "--checkpoint", str(model), "--vocab", str(out / "vocab.txt"),
                                                        "--recall", RECALL, "--out", str(out / "report.txt")]})
        return {"stages": stages, "artifacts": artifacts}


def spawn(spec: dict, out: Path, trace: bool, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    out.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, trace=trace, result_out=str(out / "result.json"), spans_out=str(out / "spans.json"))
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    spawned_at = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(spawned_at)],
        env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(trace=trace, out=out, stderr_tail=proc.stderr.strip().splitlines()[-1:])
    return result


# --- checks and metrics -------------------------------------------------------


class Checks:
    """Output checks; each one counts as an attempt and, if false, a failure."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def lines(self) -> list[str]:
        """One line per check name: how many passed, and the detail of the last failure."""
        grouped: dict[str, list[tuple[bool, str]]] = {}
        for name, ok, detail in self.results:
            grouped.setdefault(name, []).append((ok, detail))
        lines = []
        for name, outcomes in grouped.items():
            passed = sum(1 for ok, _ in outcomes if ok)
            failures = [detail for ok, detail in outcomes if not ok]
            detail = failures[-1] if failures else outcomes[-1][1]
            lines.append("check %s %s %d/%d %s" % (name, "ok" if not failures else "FAILED", passed, len(outcomes), detail))
        return lines


def read_losses(path: Path) -> list[float]:
    return [float(line.split(",")[2]) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def read_report(path: Path) -> dict[str, float]:
    if not path.exists():
        return {}
    report = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        report[key] = float(value)
    return report


def stage_seconds(result: dict, name: str) -> float | None:
    for stage in result["stages"]:
        if stage["name"] == name and stage["exit"] == 0:
            return stage["seconds"]
    return None


def timed_seconds(result: dict) -> float:
    return sum(s["seconds"] for s in result["stages"] if s["name"] != "build-vocab")


def check_outputs(checks: Checks, props: dict, workers: list[dict]) -> None:
    for r in workers:
        for log in ("adapt.csv", "finetune.csv"):
            if log in r["digests"]:
                path = r["out"] / log
                losses = read_losses(path) if path.exists() else []
                checks.add("loss_log_finite:%s" % log, losses and all(math.isfinite(x) for x in losses),
                           "%d steps" % len(losses))
        if any(s["name"] == "evaluate" for s in r["stages"]):
            report = read_report(r["out"] / "report.txt")
            for key in REPORT_KEYS:
                checks.add("report_key:%s" % key, key in report and 0.0 <= report[key] <= 1.0, str(report.get(key)))
            # each pool has one positive, so a recall is a whole number of pools
            for key in REPORT_KEYS[:3]:
                hits = report.get(key, -1.0) * props["pools"]
                checks.add("report_pool_count:%s" % key, abs(hits - round(hits)) <= 5e-7 * props["pools"] + 1e-9,
                           "%d pools x %s" % (props["pools"], report.get(key)))
    for name in sorted({n for r in workers for n in r["digests"]}):
        digests = [r["digests"][name] for r in workers if name in r["digests"]]
        checks.add("replay:%s" % name, len(digests) >= 2 and None not in digests and len(set(digests)) == 1,
                   "%d workers, %d distinct" % (len(digests), len(set(digests))))


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(plan: Plan, pipeline: list[dict], trained: list[dict], setups: list[float]) -> dict[str, dict]:
    """Median, quartiles and sample count of every end-to-end metric."""
    props = plan.props
    samples = {name: [] for name in END_TO_END_UNITS}
    samples["setup_s"] = setups
    for r in trained:
        for phase in ("adapt", "finetune"):
            seconds = stage_seconds(r, phase)
            if seconds:
                examples = props["%s_instances" % phase] * EPOCHS[plan.workload][phase]
                samples["%s_examples_per_s" % phase].append(examples / seconds)
    for r in pipeline:
        samples["pipeline_s"].append(timed_seconds(r))
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        seconds = stage_seconds(r, "evaluate")
        if seconds:
            samples["evaluate_candidates_per_s"].append(props["pools"] * props["candidates_per_pool"] / seconds)
    for phase in ("adapt", "finetune"):
        path = trained[0]["out"] / ("%s.csv" % phase) if trained else None
        if path is not None and path.exists():
            losses = read_losses(path)
            steps = plan.steps_per_epoch[phase]
            if len(losses) >= steps:
                samples["%s_loss" % phase] = [statistics.fmean(losses[-steps:])]
    return {name: quartiles(values) for name, values in samples.items() if values}


def traced_layers(traced: list[dict], props: dict, checks: Checks):
    """Median per-layer metrics over the traced workers, with their residual and count checks."""
    per_worker = []
    residuals: dict[str, float] = {}
    missing = []
    for r in traced:
        dump = json.loads((r["out"] / "spans.json").read_text(encoding="utf-8"))
        layers, stage_res = layer_metrics(dump)
        per_worker.append(layers)
        missing = dump["missing"]
        for stage, value in stage_res.items():
            residuals[stage] = max(residuals.get(stage, 0.0), value, key=abs)
        scored = int(dump["counts"].get("model.scored_rows", 0))
        expected = props["pools"] * props["candidates_per_pool"]
        checks.add("candidates_scored", scored == expected, "%d scored, %d generated" % (scored, expected))
    for stage, value in residuals.items():
        checks.add("residual:%s" % stage, abs(value) < RESIDUAL_TOLERANCE_S, "%.3e s" % value)
    layers = {name: statistics.median(w[name] for w in per_worker) for name in per_worker[0]}
    return layers, residuals, missing


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "model.head_logit_bytes":
        return "B/row"
    if name == "training.param_bytes_updated":
        return "B"
    if name.endswith("_ratio") or name in ("eval_mrr", "eval_r10_1"):
        return "ratio"
    return "count"


def _fmt(value) -> str:
    return "%.6g" % value if isinstance(value, float) else str(value)


# --- run ----------------------------------------------------------------------


def run(args, root: Path, work: Path) -> tuple[dict, list[str]]:
    started = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    plan = Plan(root, work, args.workload, args.seed)

    # rank-multiparty: the checkpoint is an input, trained outside pipeline_s
    # (twice, for the replay check); its stage times still count in --seconds
    prep = []
    if plan.model is not None:
        for i in range(2):
            out = work / ("prep%d" % i)
            prep.append(spawn(plan.spec("prep", out), out, False, remaining()))

    pipeline_start = time.monotonic()
    pipeline: list[dict] = []
    min_workers = 4 if args.trace else 3
    while True:
        out = work / ("w%d" % len(pipeline))
        traced = bool(args.trace) and len(pipeline) % 2 == 1
        pipeline.append(spawn(plan.spec("pipeline", out), out, traced, remaining()))
        if any(s["exit"] != 0 for s in pipeline[-1]["stages"]):
            break
        now = time.monotonic()
        per_worker = (now - pipeline_start) / len(pipeline)
        if remaining() < 2 * per_worker:
            break
        if len(pipeline) >= min_workers and now - started + per_worker > args.seconds:
            break
    untraced = [r for r in pipeline if not r["trace"]]
    setups = []
    while len(untraced) + len(setups) < MIN_SETUPS and remaining() > 10:
        out = work / ("s%d" % len(setups))
        setups.append(spawn(plan.spec("setup", out), out, False, remaining()))

    workers = prep + pipeline + setups
    stage_attempts = sum(len(r["stages"]) for r in workers)
    stage_failures = sum(1 for r in workers for s in r["stages"] if s["exit"] != 0)
    failing = ["%s exited %s: %s" % (s["name"], s["exit"], " ".join(r["stderr_tail"]))
               for r in workers for s in r["stages"] if s["exit"] != 0]
    checks = Checks()
    check_outputs(checks, plan.props, workers)
    trained = prep or untraced
    e2e = end_to_end(plan, untraced, trained, [r["setup_s"] for r in untraced + setups if r["setup_s"]])
    report = read_report(pipeline[0]["out"] / "report.txt")
    quality = {
        "eval_mrr": report.get("MRR", float("nan")),
        "eval_r10_1": report.get("R@10,1", float("nan")),
        "stage_failure_ratio": stage_failures / stage_attempts,
    }
    env = environment(root, max((r["blas_threads"] for r in workers if r["blas_threads"] is not None), default=None))
    vocab_size = len((pipeline[0]["out"] / "vocab.txt").read_text(encoding="utf-8").splitlines())

    lines = [
        "workload=%s seed=%d trace=%d seconds=%s pipeline_workers=%d setup_workers=%d prep_workers=%d"
        % (args.workload, args.seed, args.trace, _fmt(args.seconds), len(pipeline), len(setups), len(prep)),
        "input vocab_size=%d " % vocab_size + " ".join("%s=%s" % (k, _fmt(v)) for k, v in plan.props.items()),
        "env " + " ".join("%s=%s" % (k, str(v).replace(" ", "_")) for k, v in env.items()),
    ]
    if env["blas_threads_over_nproc"]:
        lines.append("WARNING: BLAS thread count %s exceeds nproc %s" % (env["blas_threads"], env["nproc"]))
    for name, s in e2e.items():
        lines.append("end_to_end %s median=%s q1=%s q3=%s n=%d unit=%s"
                     % (name, _fmt(s["median"]), _fmt(s["q1"]), _fmt(s["q3"]), s["n"], END_TO_END_UNITS[name]))
    for name, value in quality.items():
        lines.append("quality %s=%s unit=ratio" % (name, _fmt(value)))

    traced = [r for r in pipeline if r["trace"]]
    if args.trace and not traced:
        checks.add("traced_workers", False, "no traced worker ran")
        metrics = {}
    elif args.trace:
        layers, residuals, missing = traced_layers(traced, plan.props, checks)
        overhead = statistics.median(timed_seconds(r) for r in traced) - e2e["pipeline_s"]["median"]
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_ratio"] = overhead / e2e["pipeline_s"]["median"]
        layers["trace.wrapper_cost_s"] = statistics.median(r["wrapper_cost_s"] for r in traced)
        layers["trace.residual_max_s"] = max(abs(v) for v in residuals.values())
        layers.update(quality)
        for stage, value in residuals.items():
            lines.append("residual stage=%s seconds=%.3e" % (stage, value))
        if missing:
            lines.append("WARNING: boundaries not found, their metrics read 0: %s" % ", ".join(missing))
        for name, value in layers.items():
            lines.append("per_layer %s=%s unit=%s" % (name, _fmt(value), per_layer_unit(name)))
        shutil.copyfile(traced[0]["out"] / "spans.json", root / OUT_DIR / ("spans-%s.json" % args.workload))
        metrics = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": s["median"], "unit": END_TO_END_UNITS[name]} for name, s in e2e.items()}
    # a value that is not finite has no JSON form; leaving it out marks the metric missing
    metrics = {name: m for name, m in metrics.items() if math.isfinite(m["value"])}

    lines.append("stages %d attempted, %d failed%s"
                 % (stage_attempts, stage_failures, "; first: " + failing[0] if failing else ""))
    lines.extend(checks.lines())
    summary = {
        "correct": stage_failures == 0 and checks.failed == 0,
        "attempted": stage_attempts + len(checks.results),
        "failed": stage_failures + checks.failed,
        "metrics": metrics,
    }
    return summary, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting workers")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for required in ("src/replyrank/cli.py", "configs/toy.json"):
        if not (root / required).is_file():
            print("perfbench: %s not found: run from the root of a replyrank checkout" % required, file=sys.stderr)
            return 2
    work = root / OUT_DIR / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        summary, lines = run(args, root, work)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print("perfbench: run failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    result_path = root / OUT_DIR / ("result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))
    result_path.write_text(json.dumps({"lines": lines, "summary": summary}, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
