"""Byte-compare two output trees of demos/06_cli_pipeline.sh.

    python3 demos/compare_runs.py OUT_A OUT_B

Every file under either tree is compared by its path relative to the tree
root, except ``timings.json``, which holds wall-clock figures and is outside
the byte-stability contract. Prints each file that differs or exists on one
side only, and exits 1 if there is any, 0 if the trees match. A differing
checkpoint is loaded on both sides (run with ``PYTHONPATH=src``), and the
line says whether its masks match and how far its parameters moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from prunecast.checkpoint import load_checkpoint
from prunecast.errors import PrunecastError

OUT_OF_BAND = {"timings.json"}


def tree_files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and p.name not in OUT_OF_BAND}


def checkpoint_moves(a: Path, b: Path) -> str:
    """Whether two checkpoints' masks match, and the largest |Δ| over their
    parameter vectors."""
    try:
        ma, mb = load_checkpoint(str(a)), load_checkpoint(str(b))
    except PrunecastError as exc:
        return f"unreadable: {exc}"
    if ma.cfg != mb.cfg:
        return "configs differ"
    same = all(np.array_equal(x.m_in, y.m_in) and np.array_equal(x.m_out, y.m_out)
               for x, y in zip(ma.linears(), mb.linears()))
    moved = float(np.abs(ma.params - mb.params).max())
    return f"masks {'match' if same else 'differ'}, max |Δ params| {moved:.3g}"


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ, or that exist under one root only."""
    files_a, files_b = tree_files(a), tree_files(b)
    out = []
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            side = a if rel in files_a else b
            out.append(f"{rel} (only in {side})")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            out.append(f"{rel} ({checkpoint_moves(a / rel, b / rel)})"
                       if rel.suffix == ".ckpt" else str(rel))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_runs.py OUT_A OUT_B", file=sys.stderr)
        return 2
    a, b = Path(argv[0]), Path(argv[1])
    for root in (a, b):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    diffs = differing(a, b)
    for line in diffs:
        print(line)
    n = len(tree_files(a) | tree_files(b))
    print(f"{len(diffs)} of {n} files differ", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
