"""repro.pipeline — the incremental analysis DAG.

Declares the paper pipeline (corpus → matrix → NMF → typing/flavors →
agreement → anchors → report) as an explicit dependency DAG of
content-addressed nodes, executed in the calling process and memoized
in the checksummed result cache, so re-running after a small corpus
change recomputes only the affected nodes.

* :mod:`~repro.pipeline.core` — the engine: :class:`Pipeline`,
  :class:`PipelineNode`, content keys with early cutoff, execution in
  registration order.
* :mod:`~repro.pipeline.report` — the report DAG:
  :func:`build_report_pipeline`.
"""

from repro.pipeline.core import (
    PIPELINE_FORMAT,
    NodeRecord,
    Pipeline,
    PipelineNode,
    PipelineRun,
    params_digest,
    value_digest,
)
from repro.pipeline.report import build_report_pipeline

__all__ = [
    "PIPELINE_FORMAT",
    "NodeRecord",
    "Pipeline",
    "PipelineNode",
    "PipelineRun",
    "build_report_pipeline",
    "params_digest",
    "value_digest",
]
