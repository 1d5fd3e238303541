"""The trace CSV writer before it formatted column by column.

``write_trace_csv`` is kept verbatim, on ``csv.writer`` with its default
dialect, as the oracle of the differential test in
``tests/test_trace_writer.py``: ``tierplan.simulator.write_trace_csv`` must
write the same bytes.
"""

from __future__ import annotations

import csv
from typing import IO

_TRACE_COLUMNS = (
    "source", "worker", "index", "generated_s", "preprocess_s", "transfer_s",
    "propagation_s", "queue_wait_s", "service_s", "end_to_end_s", "completed_s", "phase",
)


def write_trace_csv(report, stream: IO[str]) -> None:
    """One CSV row per element, completed or not, in generation order; the
    end-to-end latency is empty for elements that did not complete."""
    writer = csv.writer(stream)
    writer.writerow(_TRACE_COLUMNS)
    writer.writerows(
        (source, worker, index, generated, pre, tx, prop, wait, svc,
         pre + tx + prop + wait + svc if phase == "done" else None, completed, phase)
        for source, worker, index, generated, pre, tx, prop, wait, svc, completed, phase in report.columns.rows()
    )
