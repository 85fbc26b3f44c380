"""Byte-compare two output trees of demos/06_cli_pipeline.sh.

    python3 demos/compare_runs.py OUT_A OUT_B

Every file under either tree is compared by its path relative to the tree
root, except ``timings.json``, which holds wall-clock figures and is outside
the byte-stability contract. Prints each file that differs or exists on one
side only, and exits 1 if there is any, 0 if the trees match. A differing
checkpoint is loaded on both sides (run with ``PYTHONPATH=src``), and the
line says whether its masks match and how far its parameters moved. A
differing ``.json``, ``.jsonl`` or ``.csv`` file is parsed on both sides,
and the line gives the largest |Δ| over its numbers and says whether every
other field (names, pruned channel lists, the layout itself) matches.
"""

from __future__ import annotations

import csv
import io
import json
import math
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


def _leaves(value, path=()):
    """(path, leaf) for every leaf of a parsed JSON value, in order."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, path + (key,))
    else:
        yield path, value


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(path: Path) -> list:
    text = path.read_text()
    if path.suffix == ".json":
        value = json.loads(text)
    elif path.suffix == ".jsonl":
        value = [json.loads(line) for line in text.splitlines() if line.strip()]
    else:
        value = [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return list(_leaves(value))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def number_moves(a: Path, b: Path) -> str:
    """The largest |Δ| over two parsed files' numbers, and whether every
    other leaf and every leaf's place match."""
    try:
        la, lb = _parsed(a), _parsed(b)
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        return f"unparsed: {exc}"
    same = [p for p, _ in la] == [p for p, _ in lb]
    moved = 0.0
    for (_, x), (_, y) in zip(la, lb):
        if _is_number(x) and _is_number(y):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                d = abs(float(x) - float(y))  # nan against a number, or inf - inf
                moved = max(moved, math.inf if math.isnan(d) else d)
        else:
            same = same and x == y
    return f"max |Δ numbers| {moved:.3g}, other fields {'match' if same else 'differ'}"


DETAILS = {".ckpt": checkpoint_moves, ".json": number_moves, ".jsonl": number_moves,
           ".csv": number_moves}


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ, or that exist under one root only."""
    files_a, files_b = tree_files(a), tree_files(b)
    out = []
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            side = a if rel in files_a else b
            out.append(f"{rel} (only in {side})")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            detail = DETAILS.get(rel.suffix)
            out.append(f"{rel} ({detail(a / rel, b / rel)})" if detail else str(rel))
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
