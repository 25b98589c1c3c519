"""Print every cell that differs between two run outputs, with both values.

Usage: python tools/celldiff.py A B

A and B are two run directories, such as two ``hbvkit scenario ID --out
DIR`` outputs, or two files. Directories are walked, and files are paired
by their path under A and under B.

* A ``.csv`` file prints each (row, column) cell whose text differs. Rows
  are numbered from 1 after the header row, which is row 0; a column is
  named by A's header. A row on one side only prints each of its cells
  against ``(none)``.
* A ``.json`` file prints each key path whose value differs: keys and list
  indexes joined by dots, the values as JSON. A key on one side only prints
  against ``(none)``. Values compare by their JSON text, so ``1`` and
  ``1.0`` differ and NaN equals NaN.
* Any other file is compared as bytes.
* A file on one side only is named.

The last lines give the count of moved cells per file and in all. The exit
status is 0 when nothing moved, 1 when something did, 2 on a usage error.
The tool uses the standard library only.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

NONE = "(none)"


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def diff_csv(a: Path, b: Path) -> list[str]:
    """One line per differing cell: ``row R COLUMN: A-text -> B-text``."""
    rows_a, rows_b = _csv_rows(a), _csv_rows(b)
    header = (rows_a or rows_b or [[]])[0]
    lines = []
    for r in range(max(len(rows_a), len(rows_b))):
        row_a = rows_a[r] if r < len(rows_a) else None
        row_b = rows_b[r] if r < len(rows_b) else None
        width = max(len(row_a or ()), len(row_b or ()))
        for c in range(width):
            cell_a = row_a[c] if row_a is not None and c < len(row_a) else NONE
            cell_b = row_b[c] if row_b is not None and c < len(row_b) else NONE
            if cell_a != cell_b:
                column = header[c] if c < len(header) else f"column {c}"
                lines.append(f"row {r} {column}: {cell_a} -> {cell_b}")
    return lines


def _leaves(value, path: str, out: dict) -> dict:
    """Each leaf of a JSON value under its dotted key path."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            _leaves(item, f"{path}.{i}" if path else str(i), out)
    else:
        out[path] = json.dumps(value)
    return out


def diff_json(a: Path, b: Path) -> list[str]:
    """One line per differing key path: ``PATH: A-value -> B-value``."""
    leaves_a = _leaves(json.loads(a.read_text(encoding="utf-8")), "", {})
    leaves_b = _leaves(json.loads(b.read_text(encoding="utf-8")), "", {})
    paths = list(leaves_a) + [p for p in leaves_b if p not in leaves_a]
    return [
        f"{p or '(root)'}: {leaves_a.get(p, NONE)} -> {leaves_b.get(p, NONE)}"
        for p in paths
        if leaves_a.get(p) != leaves_b.get(p)
    ]


def diff_file(a: Path, b: Path) -> list[str]:
    if a.suffix == ".csv":
        return diff_csv(a, b)
    if a.suffix == ".json":
        return diff_json(a, b)
    return [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def celldiff(a: Path, b: Path) -> tuple[list[str], list[str]]:
    """The moved cells, one line each, and the counts: per file, then in all."""
    if a.is_file() and b.is_file():
        pairs, only = {a.name: (a, b)}, []
    else:
        files_a, files_b = _files(a), _files(b)
        pairs = {name: (a / name, b / name) for name in sorted(files_a & files_b)}
        only = [f"only in {root}: {name}" for root, names in ((a, files_a - files_b), (b, files_b - files_a))
                for name in sorted(names)]
    moved, counts = [], []
    for name, (file_a, file_b) in pairs.items():
        lines = diff_file(file_a, file_b)
        moved += [f"{name} {line}" for line in lines]
        if lines:
            counts.append(f"{name}: {len(lines)} moved")
    moved += only
    return moved, counts + [f"{len(moved)} moved in all"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/celldiff.py A B", file=sys.stderr)
        return 2
    a, b = map(Path, args)
    if not ((a.is_dir() and b.is_dir()) or (a.is_file() and b.is_file())):
        print(f"error: {a} and {b} must be two directories or two files", file=sys.stderr)
        return 2
    moved, counts = celldiff(a, b)
    print("\n".join(moved + counts))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
