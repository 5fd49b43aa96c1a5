#!/usr/bin/env python3
"""Every leaf in which two riskfuse JSON reports differ.

    python3 scripts/report_diff.py OLD NEW [--expect KEY ...]

Walks both documents and prints each leaf that differs, grouped by
top-level key (weights, potential scores, closeness, ranking, ``p_out``,
intermediates, metadata), with the old value, the new value and, for two
numbers, the relative change.  A key or list item present on one side
only is a difference, shown as ``(absent)`` on the other side.  Exits 0
when the reports are identical and 1 when they differ.

``--expect`` names the dotted key paths a change is meant to move, such
as ``metadata.run_stats``; list indices are not part of a key path.  The
exit code is then 0 only when every difference lies under a listed path.
A file that cannot be read as JSON exits with 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ABSENT = object()  # the side of a key or list item that one report lacks


def leaf_diffs(old, new, path: tuple = ()) -> list[tuple[tuple, object, object]]:
    """``(path, old, new)`` for every leaf that differs, in document order.

    A path holds dict keys and list indices.  Leaves compare by their JSON
    text, so 1 and 1.0, or 0 and false, differ, and NaN equals NaN.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [key for key in new if key not in old]
        return [
            diff
            for key in keys
            for diff in leaf_diffs(old.get(key, ABSENT), new.get(key, ABSENT), path + (key,))
        ]
    if isinstance(old, list) and isinstance(new, list):
        return [
            diff
            for i in range(max(len(old), len(new)))
            for diff in leaf_diffs(
                old[i] if i < len(old) else ABSENT, new[i] if i < len(new) else ABSENT, path + (i,)
            )
        ]
    if old is ABSENT or new is ABSENT or json.dumps(old) != json.dumps(new):
        return [(path, old, new)]
    return []


def is_expected(path: tuple, expected: list[str]) -> bool:
    """True when the leaf lies under one of the dotted key paths, which
    leave out list indices."""
    keys = tuple(part for part in path if isinstance(part, str))
    return any(keys[: len(parts)] == parts for parts in (tuple(e.split(".")) for e in expected))


def format_path(path: tuple) -> str:
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else (f".{part}" if text else part)
    return text


def _format_value(value) -> str:
    if value is ABSENT:
        return "(absent)"
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def relative_change(old, new) -> float | None:
    """(new - old) / |old| for two numbers with old nonzero, else None."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return (new - old) / abs(old) if numbers and old else None


def render(diffs: list, expected: list[str] | None = None) -> list[str]:
    """The printed lines: one block per top-level key, then a summary."""
    lines, groups = [], {}
    for diff in diffs:
        groups.setdefault(diff[0][0] if diff[0] else "(root)", []).append(diff)
    for top, group in groups.items():
        lines.append(f"== {top}: {len(group)} leaves differ")
        for path, old, new in group:
            change = relative_change(old, new)
            rel = "" if change is None else f"  (rel {change:+.3g})"
            flag = "" if expected is None or is_expected(path, expected) else "  UNEXPECTED"
            lines.append(
                f"  {format_path(path)}: {_format_value(old)} -> {_format_value(new)}{rel}{flag}"
            )
    counts = ", ".join(f"{top} {len(group)}" for top, group in groups.items())
    lines.append(f"{len(diffs)} leaves differ" + (f" ({counts})" if diffs else ""))
    if expected is not None:
        outside = sum(not is_expected(path, expected) for path, _, _ in diffs)
        lines.append(f"{outside} outside the expected keys {' '.join(expected)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier report JSON")
    parser.add_argument("new", help="the later report JSON")
    parser.add_argument(
        "--expect", nargs="+", metavar="KEY", help="dotted key paths the change may move"
    )
    args = parser.parse_args(argv)
    try:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.old, args.new))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8 and JSON
        print(f"error: cannot read a report: {exc}", file=sys.stderr)
        return 2
    diffs = leaf_diffs(old, new)
    print("\n".join(render(diffs, args.expect)))
    if args.expect is not None:
        return int(not all(is_expected(path, args.expect) for path, _, _ in diffs))
    return int(bool(diffs))


if __name__ == "__main__":
    sys.exit(main())
