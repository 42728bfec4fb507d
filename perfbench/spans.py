"""In-memory spans around calls into the program's layers.

A span records a layer name, its parent span, start and end times, and
counts taken at the boundary (traversal cost, members, ...). Spans stay in
memory and are summarised when the run ends. Self time is a span's duration
minus the part covered by its child spans; spans nest strictly because
every traced call runs on the driver's main thread.

With a SparkContext, every span also opens its own Spark job group, so the
jobs, tasks and failed tasks each layer caused can be read back from the
status tracker. Jobs are counted against the innermost span that ran them.
"""
import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start_ns: int = 0
    end_ns: int = 0
    counts: dict = field(default_factory=dict)
    job_group: str | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans; pass a SparkContext to also count Spark work."""

    def __init__(self, sc=None):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.overhead_ns = 0  # time spent recording, outside every span

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter_ns()
        idx = len(self.spans)
        sp = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(sp)
        if self.sc is not None:
            sp.job_group = f"perfbench-{idx}"
            self.sc.setJobGroup(sp.job_group, name)
        self._stack.append(idx)
        sp.start_ns = time.perf_counter_ns()
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if self.sc is not None:
                parent = self.spans[self._stack[-1]] if self._stack else None
                if parent is not None:
                    self.sc.setJobGroup(parent.job_group, parent.name)
                else:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                    self.sc.setLocalProperty("spark.job.description", None)
            self.overhead_ns += (
                sp.start_ns - t0 + time.perf_counter_ns() - sp.end_ns
            )

    def self_seconds(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end_ns - sp.start_ns
        return [
            (sp.end_ns - sp.start_ns - c) / 1e9
            for sp, c in zip(self.spans, child)
        ]

    def spark_counts(self) -> list[tuple[int, int, int]]:
        """(jobs, completed tasks, failed tasks) per span, in span order."""
        tracker = self.sc.statusTracker()
        out = []
        for sp in self.spans:
            jobs = tasks = failed = 0
            for job_id in tracker.getJobIdsForGroup(sp.job_group):
                info = tracker.getJobInfo(job_id)
                if info is None:
                    continue
                jobs += 1
                for stage_id in info.stageIds:
                    st = tracker.getStageInfo(stage_id)
                    if st is not None:
                        tasks += st.numCompletedTasks
                        failed += st.numFailedTasks
            out.append((jobs, tasks, failed))
        return out


def timed(tracer: Tracer, name: str, counts=None):
    """Wrapper factory for :func:`patched`: run the call inside a span.

    ``counts`` maps the call's result to a dict added to the span.
    """

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kw):
            with tracer.span(name) as sp:
                result = original(*args, **kw)
                if counts is not None:
                    sp.counts.update(counts(result))
            return result

        return wrapper

    return make


@contextmanager
def patched(targets):
    """Replace program functions while the block runs.

    ``targets`` holds ``(module, attribute, make_wrapper)`` tuples. Every
    ``repro`` module that imported the function by name gets the wrapper
    too, so a call is caught whichever binding the caller uses.
    """
    restore = []
    for module, attr, make_wrapper in targets:
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapper)
                restore.append((mod, attr, original))
    try:
        yield
    finally:
        for mod, attr, original in restore:
            setattr(mod, attr, original)
