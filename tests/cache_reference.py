"""Reference prefix rule for the tests: a sweep's cache read one line at a time.

`search._Cache` compares bytes or decodes many lines at once and judges a
line on its own only where that fails; this states the rule it must keep,
line by line, with no fast path.
"""

import json

from leinster import search


def prefix_walk(data: bytes, family: str, params: list, lines: list[str]):
    """What a warm sweep over `params`, whose computed lines are `lines`, does
    with a cache file of bytes `data`: (its lines, its warnings, the bytes it appends)."""
    own = f'{{"family": "{family}", '
    file_lines = data.split(b"\n")
    if not file_lines[-1]:
        file_lines.pop()  # the data ends with a newline, or is empty
    taken, warnings, ended = [], [], False
    for lineno, raw in enumerate(file_lines, 1):
        if len(taken) == len(params):
            break
        line = raw.decode("utf-8", "replace")
        if not line.strip() or (not line.startswith(own) and search._ANY_FAMILY_PREFIX.match(line)):
            continue  # blank, or another family's
        fault = search._fault(line)
        if fault is not None:
            warnings.append(f"warning: skipping corrupt cache line {lineno}: {fault}\n")
        elif tuple(json.loads(line)["params"]) != params[len(taken)]:
            ended = True  # other params end the prefix: nothing more is read or appended
            break
        else:
            taken.append(line)
    rest = lines[len(taken) :]
    printed = (lines[: len(taken)] if search.FAMILY[family].recompute else taken) + rest
    appended = b"" if ended or not rest else "".join(line + "\n" for line in rest).encode()
    if appended and data and not data.endswith(b"\n"):
        appended = b"\n" + appended  # a torn last line is ended first
    return printed, warnings, appended
