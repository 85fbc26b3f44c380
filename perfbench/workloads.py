"""The three benchmark workloads.

Each workload has a ``setup`` (inputs and models, built from the seed and
repeated so that its median can be reported), a ``measure`` loop for the
untraced run that keeps going until its time is up, and a fixed-size
``core`` for the traced run. Loops
are closed with one caller: each call starts after the previous returned.
Every call goes through the prunecast module attributes so that the traced
run's wrappers see it.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from prunecast import checkpoint, cli, data, model, pruning, slicing, training

from stats import summarize

AGREE_TOL = 1e-9
MAX_PARAM_FRACTION = 0.70


class Recorder:
    """Counts operations and failures and keeps timing samples.

    An operation is a CLI stage, a forward or a training/pruning step. It
    fails when it raises or when the check of its output fails. While
    ``count_faults`` is set, the minor page faults of the operations named
    in ``STEP_OPS`` are summed, with the steps they cover.
    """

    STEP_OPS = ("dense_fwd", "sliced_fwd", "prune", "finetune")

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.count_faults = False
        self.step_faults = 0
        self.steps = 0

    def fail(self, name: str, problem: str, steps: int = 1) -> None:
        self.failed += steps
        self.errors.append(f"{name}: {problem}")

    def timed(self, name: str, fn, check=None, steps: int = 1):
        """Run ``fn`` as ``steps`` operations; return (result, seconds).

        ``check(result)`` returns None when the output is right, otherwise a
        description of what is wrong. A failed operation returns (None, None).
        """
        self.attempted += steps
        counting = self.count_faults and name in self.STEP_OPS
        faults0 = _minflt() if counting else 0
        t0 = time.perf_counter()
        try:
            result = fn()
            elapsed = time.perf_counter() - t0
            if counting:
                self.step_faults += _minflt() - faults0
                self.steps += steps
            problem = check(result) if check else None
        except Exception as exc:  # a failed operation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(name, problem, steps)
            return None, None
        return result, elapsed


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _finite(values, what: str):
    bad = [v for v in values if not math.isfinite(v)]
    return f"non-finite {what}: {bad[:3]}" if bad else None


def _pred(fp) -> np.ndarray:
    return fp.pred_norm.data


def forward_pair(rec: Recorder, dense, sliced, batch: np.ndarray,
                 keep: bool = True) -> None:
    """Forward the batch through the masked model and its sliced twin.

    Both outputs must be finite and agree within AGREE_TOL. With ``keep``
    the two times are kept as samples.
    """
    def finite(fp):
        return None if np.isfinite(_pred(fp)).all() else "non-finite prediction"

    a, t_dense = rec.timed("dense_fwd", lambda: dense.forward_batch(batch), finite)
    b, t_sliced = rec.timed("sliced_fwd", lambda: sliced.forward_batch(batch), finite)
    if a is not None and b is not None:
        gap = float(np.abs(_pred(a) - _pred(b)).max())
        if gap > AGREE_TOL:
            rec.fail("sliced_vs_masked", f"max gap {gap:.3e} > {AGREE_TOL}", 2)
    if keep:
        if t_dense is not None:
            rec.samples["dense_fwd_s"].append(t_dense)
        if t_sliced is not None:
            rec.samples["sliced_fwd_s"].append(t_sliced)


def checkpoint_roundtrip(rec: Recorder, net, batch: np.ndarray, path: Path) -> None:
    """save -> load must reproduce the predictions bit for bit."""
    def run():
        checkpoint.save_checkpoint(net, str(path))
        return checkpoint.load_checkpoint(str(path))

    def same(loaded):
        if np.array_equal(_pred(loaded.forward_batch(batch)), _pred(net.forward_batch(batch))):
            return None
        return "predictions differ after save/load"

    rec.timed("checkpoint_roundtrip", run, same)


def mask_half(net, rng: np.random.Generator) -> None:
    """Mask half the heads (Q/K/V outputs and O inputs) and half the FFN
    channels (up outputs and down inputs) of every block."""
    cfg = net.cfg
    for block in net.blocks:
        for h in rng.choice(cfg.heads, cfg.heads // 2, replace=False):
            g = net.head_group(int(h))
            for layer in (block.wq, block.wk, block.wv):
                layer.m_out[g] = 0.0
            block.wo.m_in[g] = 0.0
        channels = rng.choice(cfg.d_ffn, cfg.d_ffn // 2, replace=False)
        block.ffn_up.m_out[channels] = 0.0
        block.ffn_down.m_in[channels] = 0.0


def fwd_metrics(rec: Recorder, out: dict) -> None:
    for kind in ("dense", "sliced"):
        if not rec.samples[f"{kind}_fwd_s"]:
            continue  # every forward failed; the failures are counted
        s = summarize(rec.samples[f"{kind}_fwd_s"])
        for q in ("p50", "p90"):
            if q in s:
                out[f"{kind}_fwd_ms.{q}"] = (s[q] * 1e3, "ms", s["n"])


WIDE = dict(heads=8, d_model=256, d_ffn=1024, patch_len=8, context_len=512,
            horizon=96)


# --------------------------------------------------------------- pipeline

class PipelineSmall:
    """The demos/06 CLI chain at d=32, stages run through ``cli.main``."""

    name = "pipeline_small"
    min_pairs = 100
    model_cfg = {"layers": 2, "heads": 4, "d_model": 32, "d_ffn": 64,
                 "patch_len": 8, "context_len": 96, "horizon": 24}
    n_points, n_channels = 2600, 8
    prune_batch = 128
    bench_forwards = 2 * (50 + 3)  # cmd_bench: two models, repeats + warm-up

    def setup(self, seed: int, out: Path) -> SimpleNamespace:
        mc = self.model_cfg
        run = {"model": mc,
               "data": {"synth": {"kind": "planted_redundancy", "seed": seed,
                                  "n_points": self.n_points,
                                  "n_channels": self.n_channels},
                        "split": {"train": 0.7, "val": 0.15, "test": 0.15}},
               "prune": {"variant": "importance", "ratio_per_epoch": 0.15,
                         "epochs": 4, "batch_size": self.prune_batch, "alpha": 0.5,
                         "target_param_fraction": MAX_PARAM_FRACTION},
               "train": {"lr": 0.002, "batch_size": 128, "max_epochs": 1,
                         "patience": 1},
               "out_dir": str(out / "pretrain"), "seed": seed}
        task_a = json.loads(json.dumps(run))
        task_a["data"]["channel_prefix"] = "taskA"
        (out / "run.json").write_text(json.dumps(run), encoding="utf-8")
        (out / "task_a.json").write_text(json.dumps(task_a), encoding="utf-8")

        table = data.synth_dataset("planted_redundancy", seed,
                                   (self.n_points, self.n_channels))
        spec = data.SplitSpec(0.7, 0.15, 0.15, context_len=mc["context_len"],
                              horizon=mc["horizon"])
        task = table.select([n for n in table.names if n.startswith("taskA")])
        test = data.make_windows(task, spec, "test")
        # cmd_bench's batch: one window per channel at one timestep
        per_channel = len(test) // task.n_channels
        batch = test.contexts[::per_channel][:task.n_channels]
        return SimpleNamespace(out=out, batch=batch,
                     n_train_mix=len(data.make_windows(table, spec, "train")),
                     n_train=len(data.make_windows(task, spec, "train")),
                     n_test=len(test))

    # stage -> (config, checkpoint, out dir)
    def _stages(self, st: SimpleNamespace):
        o = st.out
        pre, pruned, tuned = (o / "pretrain/model.ckpt", o / "prune/pruned_alpha0.5.ckpt",
                              o / "finetune/finetuned.ckpt")
        return [("pretrain", "run.json", None, "pretrain"),
                ("analyze", "task_a.json", pre, "analyze"),
                ("prune", "task_a.json", pre, "prune"),
                ("finetune", "task_a.json", pruned, "finetune"),
                ("eval", "task_a.json", tuned, "eval"),
                ("bench", "task_a.json", tuned, "bench")]

    def _check(self, stage: str, d: Path, st: SimpleNamespace):
        """Return (problem or None, windows the stage processed)."""
        def load(name):
            return json.loads((d / name).read_text(encoding="utf-8"))

        if stage == "pretrain":
            hist = load("pretrain_report.json")["history"]
            losses = [h["train_loss"] for h in hist] + [h["val_mse"] for h in hist]
            return _finite(losses, "pretrain loss"), len(hist) * st.n_train_mix
        if stage == "analyze":
            means = load("analysis_summary.json")["mean_head_norm_per_layer"]
            return _finite(means, "head norm"), st.n_train
        if stage == "prune":
            recs = [json.loads(line) for line in
                    (d / "trace_alpha0.5.jsonl").read_text(encoding="utf-8").splitlines()]
            per_epoch = math.ceil(st.n_train / self.prune_batch)
            scored = sum(min(self.prune_batch,
                             st.n_train - ((r["j"] - 1) % per_epoch) * self.prune_batch)
                         for r in recs)
            frac = load("prune_report.json")["runs"][0]["param_fraction"]
            problem = _finite([r["loss"] for r in recs], "prune loss")
            if problem is None and frac > MAX_PARAM_FRACTION:
                problem = f"param_fraction {frac} > {MAX_PARAM_FRACTION}"
            return problem, scored
        if stage == "finetune":
            hist = load("finetune_history.json")["history"]
            losses = [h["train_loss"] for h in hist] + [h["val_mse"] for h in hist]
            return _finite(losses, "finetune loss"), len(hist) * st.n_train
        if stage == "eval":
            rep = load("eval_report.json")
            st.test_mse = rep["mse"]
            problem = _finite([rep["mse"], rep["mae"]], "test error")
            if problem is None and rep["param_fraction"] > MAX_PARAM_FRACTION:
                problem = f"param_fraction {rep['param_fraction']} > {MAX_PARAM_FRACTION}"
            return problem, st.n_test
        speedup = load("timings.json")["speedup"]
        return _finite([speedup], "bench speedup"), self.bench_forwards * len(st.batch)

    def _chain(self, st: SimpleNamespace, rec: Recorder) -> dict:
        stage_s, stage_windows = {}, {}
        for stage, config, ckpt, sub in self._stages(st):
            argv = [stage, "--config", str(st.out / config), "--out", str(st.out / sub)]
            if ckpt is not None:
                argv += ["--checkpoint", str(ckpt)]
            found = {}

            def check(rc, stage=stage, sub=sub, found=found):
                if rc != 0:
                    return f"exit code {rc}"
                problem, found["windows"] = self._check(stage, st.out / sub, st)
                return problem

            _, elapsed = rec.timed(f"stage {stage}", lambda argv=argv: cli.main(argv), check)
            if elapsed is not None:
                stage_s[stage] = elapsed
                stage_windows[stage] = found["windows"]
        return {"s": stage_s, "windows": stage_windows}

    def _forwards(self, st: SimpleNamespace, rec: Recorder, deadline: float | None) -> None:
        tuned = st.out / "finetune/finetuned.ckpt"
        dense, _ = rec.timed("load finetuned", lambda: checkpoint.load_checkpoint(str(tuned)))
        if dense is None:
            return
        checkpoint_roundtrip(rec, dense, st.batch, st.out / "roundtrip.ckpt")
        sliced = slicing.slice_pruned(dense)
        st.fwd = (dense, sliced, len(st.batch))
        forward_pair(rec, dense, sliced, st.batch, keep=False)  # warm-up
        pairs = 0
        while pairs < self.min_pairs or (deadline and time.perf_counter() < deadline):
            forward_pair(rec, dense, sliced, st.batch)
            pairs += 1

    def core(self, st: SimpleNamespace, rec: Recorder) -> None:
        self._chain(st, rec)
        self._forwards(st, rec, None)

    def measure(self, st: SimpleNamespace, seconds: float, rec: Recorder) -> dict:
        start = time.perf_counter()
        chain = self._chain(st, rec)
        # Forwards fill the rest of the run, and at least half of it. On a
        # shared host the speed of a d=32 forward can switch between two
        # levels for seconds at a time, and the median of a short window
        # follows whichever level it caught.
        now = time.perf_counter()
        self._forwards(st, rec, max(start + seconds, now + seconds / 2))
        out = {}
        if len(chain["s"]) == len(self._stages(st)):
            total = sum(chain["s"].values())
            out["pipeline_s"] = (total, "s", 1)
            out["windows_per_s"] = (sum(chain["windows"].values()) / total, "1/s", 1)
            for stage in ("pretrain", "finetune", "prune", "analyze"):
                out[f"{stage}_windows_per_s"] = (
                    chain["windows"][stage] / chain["s"][stage], "1/s", 1)
            out["test_mse"] = (st.test_mse, "mse", 1)
        fwd_metrics(rec, out)
        return out


# ------------------------------------------------------------------ wide

def _wide_windows(seed: int, n_points: int, n_channels: int, stride: int,
                  parts: tuple[str, ...]):
    table = data.synth_dataset("planted_redundancy", seed, (n_points, n_channels))
    spec = data.SplitSpec(0.7, 0.15, 0.15, context_len=WIDE["context_len"],
                          horizon=WIDE["horizon"], stride=stride)
    return {part: data.make_windows(table, spec, part) for part in parts}


class InferWide:
    """test_08 shapes: the masked model and its sliced twin, no tape."""

    name = "infer_wide"
    min_pairs = 5
    layers, batch = 12, 4

    def setup(self, seed: int, out: Path) -> SimpleNamespace:
        rng = np.random.default_rng(seed)
        test = _wide_windows(seed, 1024, 4, 1, ("test",))["test"]
        batch = test.contexts[rng.choice(len(test), self.batch, replace=False)]
        net = model.Forecaster(model.ForecasterConfig(layers=self.layers, **WIDE), seed=seed)
        mask_half(net, rng)
        return SimpleNamespace(out=out, batch=batch, dense=net, sliced=slicing.slice_pruned(net))

    def _loop(self, st: SimpleNamespace, rec: Recorder, pairs: int, deadline: float | None):
        st.fwd = (st.dense, st.sliced, len(st.batch))
        forward_pair(rec, st.dense, st.sliced, st.batch, keep=False)  # warm-up
        done = 0
        while done < pairs or (deadline and time.perf_counter() < deadline):
            forward_pair(rec, st.dense, st.sliced, st.batch)
            done += 1

    def core(self, st: SimpleNamespace, rec: Recorder) -> None:
        self._loop(st, rec, 6, None)
        checkpoint_roundtrip(rec, st.dense, st.batch, st.out / "roundtrip.ckpt")

    def measure(self, st: SimpleNamespace, seconds: float, rec: Recorder) -> dict:
        self._loop(st, rec, self.min_pairs, time.perf_counter() + seconds)
        checkpoint_roundtrip(rec, st.dense, st.batch, st.out / "roundtrip.ckpt")
        out = {}
        times = rec.samples["dense_fwd_s"] + rec.samples["sliced_fwd_s"]
        out["windows_per_s"] = (len(times) * self.batch / sum(times), "1/s", len(times))
        fwd_metrics(rec, out)
        return out


class TrainWide:
    """d=256, 4 layers: progressive_prune on the masked model, then finetune
    of its sliced twin, repeated from the same starting model."""

    name = "train_wide"
    min_cycles = 2
    layers, batch = 4, 8
    prune_windows = finetune_windows = 32
    val_windows = 8
    pairs_per_cycle = 2

    def setup(self, seed: int, out: Path) -> SimpleNamespace:
        rng = np.random.default_rng(seed)
        ws = _wide_windows(seed, 1300, 4, 4, ("train", "val", "test"))
        train = ws["train"]
        net = model.Forecaster(model.ForecasterConfig(layers=self.layers, **WIDE), seed=seed)
        mask_half(net, rng)
        return SimpleNamespace(
            out=out, seed=seed, base=net, cycles=[], fwd=None,
            prune_ws=train.subset(rng.choice(len(train), self.prune_windows, replace=False)),
            train_ws=train.subset(rng.choice(len(train), self.finetune_windows, replace=False)),
            val_ws=ws["val"].subset(rng.choice(len(ws["val"]), self.val_windows, replace=False)),
            batch=ws["test"].contexts[rng.choice(len(ws["test"]), self.batch, replace=False)])

    def _cycle(self, st: SimpleNamespace, rec: Recorder) -> None:
        net = st.base.clone()
        schedule = pruning.PruneSchedule(ratio_per_epoch=0.05, epochs=1,
                                         batch_size=self.batch, seed=st.seed)
        prune_steps = math.ceil(self.prune_windows / self.batch)

        def pruned_ok(result):
            _, trace = result
            if len(trace.records) != prune_steps:
                return f"{len(trace.records)} prune batches, expected {prune_steps}"
            return _finite([r.loss for r in trace.records], "prune loss")

        result, t_prune = rec.timed(
            "prune", lambda: pruning.progressive_prune(net, st.prune_ws, schedule, alpha=0.5),
            pruned_ok, prune_steps)
        if result is None:
            return
        sliced = slicing.slice_pruned(net)
        st.fwd = (net, sliced, len(st.batch))
        for _ in range(self.pairs_per_cycle):
            forward_pair(rec, net, sliced, st.batch)

        cfg = training.TrainConfig(lr=1e-3, batch_size=self.batch, max_epochs=1,
                                   patience=1, seed=st.seed)
        steps = math.ceil(self.finetune_windows / self.batch)

        def tuned_ok(result):
            hist = result[1]
            losses = [h["train_loss"] for h in hist] + [h["val_mse"] for h in hist]
            return _finite(losses, "finetune loss")

        tuned, t_tune = rec.timed(
            "finetune", lambda: training.finetune(sliced, st.train_ws, st.val_ws, cfg),
            tuned_ok, steps)
        if tuned is not None:
            st.cycles.append((t_prune, t_tune, len(tuned[1]) * self.finetune_windows))

    def _roundtrip(self, st: SimpleNamespace, rec: Recorder) -> None:
        if st.fwd is not None:  # the last pruned model, with its ledger
            checkpoint_roundtrip(rec, st.fwd[0], st.batch, st.out / "roundtrip.ckpt")

    def core(self, st: SimpleNamespace, rec: Recorder) -> None:
        self._cycle(st, rec)
        self._roundtrip(st, rec)

    def measure(self, st: SimpleNamespace, seconds: float, rec: Recorder) -> dict:
        deadline = time.perf_counter() + seconds
        cycles = 0
        while cycles < self.min_cycles or time.perf_counter() < deadline:
            self._cycle(st, rec)
            cycles += 1
        self._roundtrip(st, rec)
        out = {}
        if st.cycles:
            t_prune, t_tune, tuned = zip(*st.cycles)
            n = len(st.cycles)
            out["windows_per_s"] = (statistics.median(
                (self.prune_windows + w) / (p + f) for p, f, w in st.cycles), "1/s", n)
            out["prune_windows_per_s"] = (statistics.median(
                self.prune_windows / p for p in t_prune), "1/s", n)
            out["finetune_windows_per_s"] = (statistics.median(
                w / f for f, w in zip(t_tune, tuned)), "1/s", n)
        fwd_metrics(rec, out)
        return out


WORKLOADS = {w.name: w for w in (PipelineSmall(), InferWide(), TrainWide())}
