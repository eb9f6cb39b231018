"""Observability for the analysis pipeline: spans, metrics, traces.

The paper's whole argument is a cost profile — per-cutset quantification
must stay cheap enough that a run is dominated by static cutset
generation (Sections V-C and VI).  This package makes that profile
*measurable* on every run:

* :mod:`repro.obs.trace` — nested context-manager **spans** recording
  wall and CPU time plus attributes, no-op by default;
* :mod:`repro.obs.metrics` — a **metrics registry** of counters and
  histograms fed by every pipeline stage (MOCUS expansions and cutoff
  drops, dedup hits/misses, uniformization series terms, pool queue
  waits, ladder descents, budget charges);
* :mod:`repro.obs.core` — the :class:`~repro.obs.core.Observability`
  bundle threaded through the pipeline (``NULL_OBS`` when disabled);
* :mod:`repro.obs.export` — the JSONL trace format and its schema
  validator;
* :mod:`repro.obs.report` — the ``sdft trace`` cost-table renderer and
  the run-summary metric highlights.

Disabled observability is the default and costs nearly nothing: hot
loops aggregate into local counters and emit once per solve or per run,
and the null tracer/registry are shared singletons whose methods are
empty (``tests/obs/test_overhead.py`` asserts the ≤2% bound on
the quantification hot loop).
"""

from repro.obs.core import NULL_OBS, Observability
from repro.obs.export import (
    TRACE_SCHEMA,
    validate_trace_file,
    validate_trace_lines,
    write_trace,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.report import metric_highlights, render_trace_report
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "MetricsRegistry",
    "Observability",
    "SpanRecord",
    "TRACE_SCHEMA",
    "Tracer",
    "metric_highlights",
    "render_trace_report",
    "validate_trace_file",
    "validate_trace_lines",
    "write_trace",
]
