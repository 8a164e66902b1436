"""In-memory span tracer that wraps the package's public functions.

Each wrapped call records one span (name, start, end, parent) and, where a
counter hook is given, counts derived from the call's result.  Wrappers are
installed on the attribute the *calling* module looks up (for example
``seshadri.bounds.enumerate_szcor``, not ``seshadri.candidates``), so the
program itself is unchanged and the originals are restored on exit.
"""
from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import seshadri.bounds as bounds
import seshadri.cli as cli
import seshadri.exclusions as exclusions
import seshadri.render as render

# (owner, attribute, span name, counter hook).  The counter hook maps the
# call's result to extra counts; every span also counts one call.
PATCH_POINTS = (
    (bounds, "enumerate_szcor", "candidates.enumerate", lambda r: {"candidates.enumerated": len(r)}),
    (bounds, "e_value", "candidates.e_value", None),
    (bounds, "compute_bound", "bounds.compute_bound", None),
    (bounds, "bounds_for_ns", "bounds.bounds_for_ns", None),
    (cli, "bounds_for_ns", "bounds.bounds_for_ns", None),
    (bounds, "best_known", "bounds.best_known", None),
    (cli, "best_known", "bounds.best_known", None),
    (bounds, "is_excluded", "exclusions.is_excluded",
     lambda r: {"exclusions.excluded": int(r.excluded)}),
    (exclusions.ExclusionDb, "ruling", "exclusions.ruling",
     lambda r: {"exclusions.ruling_hits": int(r is not None)}),
    (exclusions, "alpha_lower_bound", "effectivity.alpha", None),
    (render, "render_report", "render.render_report", None),
    (render, "report_to_json_dict", "render.report_to_json", None),
    (cli, "report_to_json_dict", "render.report_to_json", None),
    (render, "report_from_json_dict", "render.report_from_json", None),
    (cli, "report_from_json_dict", "render.report_from_json", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the span's parent is the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            self.counts[name + ".calls"] += 1

    def wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                self.counts.update(hook(result))
            return result

        return traced

    def layers(self, roots=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) time and self time, only
        under the given root spans if `roots` is a set of span indices.

        Self time is a span's duration minus the durations of its direct
        children, so self times of all spans add up to the roots' durations.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        root: list[int] = []
        for i, (_, start, end, parent) in enumerate(spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner, top in zip(spans, child_time, root):
            if roots is not None and top not in roots:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def dump(self, path, offset: int = 0) -> None:
        """Append the spans as JSON lines; span ids are offset by `offset`."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": offset + i, "name": name, "start": start, "end": end,
                    "parent": offset + parent if parent >= 0 else None,
                }) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every patch point for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, hook in PATCH_POINTS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
