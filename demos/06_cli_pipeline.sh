#!/usr/bin/env bash
# End-to-end pipeline through the CLI: pretrain -> analyze -> prune ->
# finetune -> eval -> bench -> transfer. Everything lands under demo_out/cli.
# Run it from the repository root; without an install, with PYTHONPATH=src.
set -euo pipefail

OUT=demo_out/cli
mkdir -p "$OUT"

cat > "$OUT/run.json" <<'JSON'
{
  "model": {"layers": 2, "heads": 4, "d_model": 32, "d_ffn": 64,
            "patch_len": 8, "context_len": 96, "horizon": 24},
  "data": {"synth": {"kind": "planted_redundancy", "seed": 7,
                     "n_points": 2600, "n_channels": 8},
           "split": {"train": 0.7, "val": 0.15, "test": 0.15}},
  "prune": {"variant": "importance", "ratio_per_epoch": 0.15, "epochs": 4,
            "batch_size": 128, "alpha": 0.5, "target_param_fraction": 0.7},
  "train": {"lr": 0.002, "batch_size": 128, "max_epochs": 4, "patience": 2},
  "out_dir": "demo_out/cli/pretrain",
  "seed": 1
}
JSON

# Sub-task config: same run, restricted to the slow-frequency channels.
python3 - "$OUT" <<'PY'
import json, sys
out = sys.argv[1]
cfg = json.load(open(f"{out}/run.json"))
cfg["data"]["channel_prefix"] = "taskA"
json.dump(cfg, open(f"{out}/task_a.json", "w"), indent=2)
cfg["data"]["synth"]["seed"] = 99   # sibling task: same generator, new seed
json.dump(cfg, open(f"{out}/sibling.json", "w"), indent=2)
PY

export PRUNECAST_THREADS=${PRUNECAST_THREADS:-2}

python3 -m prunecast.cli pretrain --config "$OUT/run.json"
python3 -m prunecast.cli analyze  --config "$OUT/task_a.json" --checkpoint "$OUT/pretrain/model.ckpt" --out "$OUT/analyze"
python3 -m prunecast.cli prune    --config "$OUT/task_a.json" --checkpoint "$OUT/pretrain/model.ckpt" --out "$OUT/prune"
python3 -m prunecast.cli finetune --config "$OUT/task_a.json" --checkpoint "$OUT/prune/pruned_alpha0.5.ckpt" --out "$OUT/finetune"
python3 -m prunecast.cli eval     --config "$OUT/task_a.json" --checkpoint "$OUT/finetune/finetuned.ckpt" --out "$OUT/eval"
python3 -m prunecast.cli bench    --config "$OUT/task_a.json" --checkpoint "$OUT/finetune/finetuned.ckpt" --out "$OUT/bench"
python3 -m prunecast.cli transfer --config "$OUT/sibling.json" --checkpoint "$OUT/prune/pruned_alpha0.5.ckpt" --out "$OUT/transfer"

echo
echo "== eval report =="
cat "$OUT/eval/eval_report.json"
echo "== bench timings =="
cat "$OUT/bench/timings.json"
echo "== transfer report =="
cat "$OUT/transfer/transfer_report.json"
