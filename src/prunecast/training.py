"""Fine-tuning of surviving parameters, evaluation, and inference timing."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import slicing
from .autodiff import Tape
from .data import WindowSet
from .errors import ConfigError, Field, TrainingDivergedError, require
from .model import Forecaster

OPTIMIZERS = ("sgd", "adam")

FIELDS = {
    "lr": Field(float, rule=">= 0"),  # 0 is the degenerate no-op run
    "batch_size": Field(int, 32, ">= 1"),
    "max_epochs": Field(int, 10, ">= 0"),
    "patience": Field(int, 1, ">= 1"),
    "optimizer": Field(str, "adam", OPTIMIZERS),
    "update_norm_params": Field(bool, True),
    "normalized_metrics": Field(bool, True),
    # both values run the sliced trainer; the key stays so that every
    # existing config keeps its config_hash
    "mode": Field(str, "sliced", ("sliced", "masked")),
}


@dataclass
class TrainConfig:
    lr: float
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 1
    optimizer: str = "adam"
    seed: int = 0
    clip_norm: float = 1.0
    update_norm_params: bool = True

    def __post_init__(self):
        require({k: v for k, v in vars(self).items() if k in FIELDS}, FIELDS, "train")


@dataclass
class EvalReport:
    horizon: int
    mse: float
    mae: float
    normalized: bool
    param_fraction: float
    n_windows: int
    inference_seconds: float

    def to_dict(self) -> dict:
        """Every field but the timing, which varies from run to run."""
        return {"horizon": self.horizon, "mse": self.mse, "mae": self.mae,
                "normalized": self.normalized,
                "param_fraction": self.param_fraction,
                "n_windows": self.n_windows}


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: list[tuple[str, np.ndarray]],
             grads: dict[str, np.ndarray]) -> None:
        for name, arr in params:
            arr -= self.lr * grads[name]


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: list[tuple[str, np.ndarray]],
             grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, arr in params:
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            arr -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def make_optimizer(cfg: TrainConfig):
    return Sgd(cfg.lr) if cfg.optimizer == "sgd" else Adam(cfg.lr)


def _clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def batch_loss(model, contexts: np.ndarray, targets: np.ndarray,
               tape: Tape | None = None):
    """Instance-normalized MSE over one batch; tape-attached when training."""
    fp = model.forward_batch(contexts, tape=tape)
    t_norm = fp.normalized_targets(targets)
    if tape is None:
        return float(((fp.pred_norm.data - t_norm) ** 2).mean()), fp
    return ad.mse_loss(fp.pred_norm, ad.constant(t_norm)), fp


def _snapshot(model) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in model.named_params()}


def _restore(model, snap: dict[str, np.ndarray]) -> None:
    for name, arr in model.named_params():
        arr[...] = snap[name]


def finetune(model, train_windows: WindowSet, val_windows: WindowSet,
             cfg: TrainConfig):
    """Train surviving parameters; return the model at its best-validation snapshot.

    Training always runs the sliced forward. A SlicedForecaster is trained
    as is. A masked Forecaster is sliced first; its twin is trained,
    restored to its best snapshot and written back, so only surviving
    coordinates change and pruned ones keep their bits. With
    ``update_norm_params`` off the norm gains and offsets stay frozen.
    """
    net = slicing.slice_pruned(model) if isinstance(model, Forecaster) else model
    optimizer = make_optimizer(cfg)
    rng = np.random.default_rng(cfg.seed)
    n = len(train_windows)
    history: list[dict] = []
    best_val = math.inf
    best_snap = _snapshot(net)
    bad_epochs = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        losses = []
        for b in range(0, n, cfg.batch_size):
            idx = order[b:b + cfg.batch_size]
            tape = Tape()
            loss, fp = batch_loss(net, train_windows.contexts[idx],
                                  train_windows.targets[idx], tape=tape)
            if not math.isfinite(loss.item()):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {b // cfg.batch_size}, "
                    f"lr {cfg.lr}")
            tape.backward(loss)
            grads = {name: tape.grad(leaf)
                     for name, leaf in fp.ctx.param_leaves.items()}
            if not cfg.update_norm_params:
                for name, g in grads.items():
                    if name.endswith((".gain", ".offset")):
                        g[...] = 0.0
            _clip_global_norm(grads, cfg.clip_norm)
            optimizer.step(net.named_params(), grads)
            losses.append(loss.item())

        val_mse = evaluate(net, val_windows).mse
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_mse": val_mse})
        if val_mse < best_val:
            best_val = val_mse
            best_snap = _snapshot(net)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    _restore(net, best_snap)
    if net is not model:
        net.write_back(model)
    return model, history


def evaluate(model, windows: WindowSet, normalized: bool = True,
             batch_size: int = 256) -> EvalReport:
    """MSE/MAE over every supplied window and channel."""
    if len(windows) == 0:
        raise ConfigError("cannot evaluate on an empty window set")
    se = 0.0
    ae = 0.0
    count = 0
    start = time.perf_counter()
    for i in range(0, len(windows), batch_size):
        ctx = windows.contexts[i:i + batch_size]
        tgt = windows.targets[i:i + batch_size]
        fp = model.forward_batch(ctx)
        if normalized:
            err = fp.pred_norm.data - fp.normalized_targets(tgt)
        else:
            err = fp.denormalized() - tgt
        se += float((err ** 2).sum())
        ae += float(np.abs(err).sum())
        count += err.size
    elapsed = time.perf_counter() - start
    return EvalReport(horizon=model.cfg.horizon, mse=se / count, mae=ae / count,
                      normalized=normalized, param_fraction=model.param_fraction(),
                      n_windows=len(windows), inference_seconds=elapsed)


def bench_inference(model, windows: np.ndarray, repeats: int = 50,
                    warmup: int = 3) -> dict:
    """Mean/std wall time of forwarding the batch, after warm-up runs."""
    contexts = windows.contexts if isinstance(windows, WindowSet) else np.atleast_2d(windows)
    for _ in range(warmup):
        model.forward_batch(contexts)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.forward_batch(contexts)
        times.append(time.perf_counter() - t0)
    times = np.asarray(times)
    return {"mean_s": float(times.mean()), "std_s": float(times.std()),
            "runs": repeats, "warmup": warmup, "batch": int(contexts.shape[0])}
