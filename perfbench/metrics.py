"""Pure helpers of the campaign benchmark: summaries, the correctness tally
and span arithmetic.  No process handling here, so test_perfbench.py can pin
every rule on synthetic data."""

import statistics
from collections import defaultdict

# Units of every metric the benchmark reports (end-to-end, then per layer).
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "attack.score_s": "s",
    "attack.score_calls": "count",
    "attack.simulate_s": "s",
    "attack.trials": "count",
    "attack.merge_s": "s",
    "isa.run_s": "s",
    "isa.instructions": "count",
    "isa.ns_per_instr": "ns",
    "cache.accesses": "count",
    "cache.misses": "count",
    "cache.ns_per_access": "ns",
    "core.lease_s": "s",
    "core.leases": "count",
    "stats.iid_s": "s",
    "stats.fit_s": "s",
    "stats.gof_s": "s",
    "mbpta.convergence_s": "s",
    "runner.stage_s": "s",
    "runner.task_p50_s": "s",
    "runner.task_p90_s": "s",
    "runner.worker_idle_frac": "fraction",
    "runner.encode_s": "s",
    "runner.decode_s": "s",
    "runner.payload_bytes": "bytes",
    "runner.checkpoint_s": "s",
    "runner.checkpoint_flushes": "count",
    "runner.checkpoint_bytes": "bytes",
    "runner.serial_tail_s": "s",
    "runner.emit_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
}

# Counts that must repeat exactly across two traced replays of one input.
CANARY_COUNTERS = (
    "cache.accesses",
    "cache.misses",
    "isa.instructions",
    "attack.trials",
    "attack.score_calls",
    "runner.checkpoint_flushes",
    "runner.payload_bytes",
)

# Span self times reported as layer metrics: metric -> span name.
SELF_TIME_METRICS = {
    "attack.score_s": "attack.score",
    "attack.simulate_s": "attack.simulate",
    "attack.merge_s": "attack.merge",
    "isa.run_s": "isa.run",
    "core.lease_s": "core.lease",
    "stats.iid_s": "stats.iid",
    "stats.fit_s": "stats.fit",
    "stats.gof_s": "stats.gof",
    "mbpta.convergence_s": "mbpta.convergence",
    "runner.encode_s": "runner.encode",
    "runner.decode_s": "runner.decode",
    "runner.checkpoint_s": "runner.checkpoint",
    "runner.emit_s": "runner.emit",
}

COUNTER_METRICS = (
    "attack.score_calls",
    "attack.trials",
    "isa.instructions",
    "cache.accesses",
    "cache.misses",
    "runner.payload_bytes",
    "runner.checkpoint_flushes",
    "runner.checkpoint_bytes",
)


def summarize(values):
    """Median, first and third quartile (statistics.quantiles, n=4) and the
    sample count.  A single value is its own median and quartiles."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) == 1:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": 1}
    p25, median, p75 = statistics.quantiles(values, n=4)
    return {"median": median, "p25": p25, "p75": p75, "n": len(values)}


class Tally:
    """Attempted and failed runs.  A run fails when it exits non-zero or its
    output is not byte-identical to the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    @property
    def fail_frac(self):
        if self.attempted == 0:
            raise ValueError("fail_frac of zero attempted runs")
        return self.failed / self.attempted


def output_matches(path, reference):
    """True when the file at `path` holds exactly the bytes `reference`."""
    try:
        with open(path, "rb") as f:
            return f.read() == reference
    except OSError:
        return False


# --- spans ------------------------------------------------------------------
# A span is (id, parent, name, start_ns, end_ns); parent 0 marks a root.


def parse_spans(text):
    spans = []
    for line in text.splitlines():
        if not line:
            continue
        fields = line.split("\t")
        spans.append((int(fields[0]), int(fields[1]), fields[2],
                      int(fields[3]), int(fields[4])))
    return spans


def union_length(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """span id -> self time (ns): the span's duration minus the part of its
    interval its children cover.  Children running in parallel on several
    threads are counted once where they overlap."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _, _, start, end in spans
    }


def coverage(spans):
    """Share of the root span's interval covered by the other spans."""
    roots = [s for s in spans if s[1] == 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    _, _, _, lo, hi = roots[0]
    covered = union_length([(s, e) for _, p, _, s, e in spans if p != 0], lo, hi)
    return covered / (hi - lo)


def layer_metrics(spans, counters, workers):
    """The per-layer metrics of one traced replay (see PER_LAYER_UNITS),
    except trace.overhead_s, which needs the untraced run."""
    own = self_times(spans)
    self_s = defaultdict(float)
    duration_s = defaultdict(float)
    occurrences = defaultdict(int)
    task_s = []
    for sid, _, name, start, end in spans:
        self_s[name] += own[sid] / 1e9
        duration_s[name] += (end - start) / 1e9
        occurrences[name] += 1
        if name == "runner.task":
            task_s.append((end - start) / 1e9)

    m = {metric: self_s[name] for metric, name in SELF_TIME_METRICS.items()}
    for name in COUNTER_METRICS:
        m[name] = counters.get(name, 0)
    m["core.leases"] = occurrences["core.lease"]
    instructions = m["isa.instructions"]
    m["isa.ns_per_instr"] = (m["isa.run_s"] * 1e9 / instructions
                             if instructions else 0.0)
    accesses = m["cache.accesses"]
    m["cache.ns_per_access"] = (
        (m["attack.simulate_s"] + m["isa.run_s"]) * 1e9 / accesses
        if accesses else 0.0)
    m["runner.stage_s"] = duration_s["runner.stage"]
    tasks = summarize(task_s) if task_s else {"median": 0.0}
    m["runner.task_p50_s"] = tasks["median"]
    m["runner.task_p90_s"] = (statistics.quantiles(task_s, n=10)[-1]
                              if len(task_s) > 1 else tasks["median"])
    capacity = duration_s["runner.stage"] * workers
    m["runner.worker_idle_frac"] = (1 - sum(task_s) / capacity
                                    if capacity else 0.0)
    m["runner.serial_tail_s"] = duration_s["runner.serial_tail"]
    m["trace.coverage"] = coverage(spans)
    return m


def span_table(spans):
    """span name -> (count, total self seconds), for the human report."""
    own = self_times(spans)
    table = defaultdict(lambda: [0, 0.0])
    for sid, _, name, _, _ in spans:
        table[name][0] += 1
        table[name][1] += own[sid] / 1e9
    return dict(table)
