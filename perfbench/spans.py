"""Span recording for the traced benchmark run, from outside the program.

The toolkit's layers are timed by wrapping their public callables by
dotted name (:func:`wrap_targets`), never by editing ``src/``.  Each
wrapped call records a span: an id, the id of the span that caused it,
a name, start and end (``time.monotonic``, which is one system-wide
clock on Linux, so spans from different processes line up) and a few
attributes.

Processes: the recorder notices when it runs in a forked child (the
report's pool workers, the server's worker slots) and starts an empty
buffer there.  The first span a child records takes the span that was
open in the forking thread as its parent.  A child writes its spans to
its own ``spans-<pid>.jsonl`` whenever its outermost span closes,
because pool workers leave through ``os._exit`` and never run exit
hooks; the root process writes its file once, at the end
(:meth:`SpanRecorder.write`).  :func:`merge_span_files` joins them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

__all__ = [
    "SpanRecorder",
    "Target",
    "covered",
    "merge_span_files",
    "self_times",
    "wrap_targets",
]


class SpanRecorder:
    """Thread-safe, fork-aware in-memory span buffer."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset(fork_parent=None)

    def _reset(self, fork_parent: str | None) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._fork_parent = fork_parent

    def _stack(self) -> list[str]:
        if os.getpid() != self.pid:
            # First use in a forked child: the forking thread's stack
            # was copied with the process; its top caused this child.
            inherited = getattr(self._local, "stack", None) or []
            self._reset(fork_parent=inherited[-1] if inherited else None)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            self._next += 1
            span_id = f"{self.pid}:{self._next}"
        span = {
            "id": span_id,
            "parent": stack[-1] if stack else self._fork_parent,
            "name": name,
            "pid": self.pid,
            "start": time.monotonic(),
        }
        stack.append(span_id)
        return span

    def end(self, span: dict, **attrs) -> None:
        span["end"] = time.monotonic()
        if attrs:
            span["attrs"] = attrs
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()
        with self._lock:
            self.spans.append(span)
        if not stack and self.pid != self.root_pid:
            self.write()

    def write(self) -> Path | None:
        """Append this process's buffered spans to its own file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(s) + "\n" for s in spans))
        return path


def merge_span_files(directory: str | Path) -> list[dict]:
    """All spans from every ``spans-*.jsonl`` in ``directory``, by start.

    Raises ``ValueError`` on a duplicated span id (two processes must
    never share one) or on a span whose parent is missing from the set.
    """
    spans: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    ids = [s["id"] for s in spans]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate span ids across span files")
    known = set(ids)
    for span in spans:
        if span.get("parent") is not None and span["parent"] not in known:
            raise ValueError(f"span {span['id']} has unknown parent")
    spans.sort(key=lambda s: (s["start"], s["id"]))
    return spans


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id → duration minus the part of it its children cover.

    Children may overlap each other (parallel pool workers under one
    suite span) and may stick out of the parent's interval (clock
    skew, a worker outliving its dispatcher): only the union of the
    child intervals clipped to the parent's counts.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent in by_id:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(a, start), min(b, end))
            for a, b in children.get(span["id"], ())
            if min(b, end) > max(a, start)
        ]
        result[span["id"]] = (end - start) - covered(clipped)
    return result


class Target:
    """One public callable to time, named by module and qualified name.

    ``name`` is the span name, or a function of the call's
    ``(args, kwargs)`` returning it.
    ``attrs`` maps ``(args, kwargs, result)`` to span attributes.
    """

    def __init__(self, module: str, qualname: str, name, attrs=None):
        self.module = module
        self.qualname = qualname
        self.name = name
        self.attrs = attrs


def _make_wrapper(recorder: SpanRecorder, target: Target, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        name = target.name(args, kwargs) if callable(target.name) else target.name
        span = recorder.begin(name)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            attrs = {}
            if target.attrs is not None:
                try:
                    attrs = target.attrs(args, kwargs, result) or {}
                except Exception as error:  # noqa: BLE001 - never break the call
                    attrs = {"attrs_error": repr(error)}
            recorder.end(span, **attrs)

    return wrapper


def wrap_targets(recorder: SpanRecorder, targets: list[Target]):
    """Replace every target by a span-recording wrapper, everywhere.

    The defining module (or class) gets the wrapper, and so does every
    loaded ``repro`` module that imported the original by name, so
    ``from x import f`` bindings made before wrapping are timed too.
    Returns a function that puts every original back.
    """
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, object] = {}
    for target in targets:
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_make_wrapper(recorder, target, raw.__func__))
        else:
            wrapped = _make_wrapper(recorder, target, raw)
            if not path:
                replaced[id(raw)] = wrapped
        undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and value is not wrapper:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)

    def restore() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return restore
