"""The one CSV writer behind every CSV file and stream the simulator emits.

Rows go through the stdlib ``csv`` module with ``\\n`` line endings, so a
field holding a comma, a quote or a line break is quoted.  ``None`` becomes
an empty field and floats are written with ``repr`` (their shortest
round-trip form), so reading a file back recovers every value exactly.
"""

from __future__ import annotations

import csv
from typing import Any, Iterable, Sequence, TextIO


def write_csv(
    handle: TextIO, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """Write ``header`` and then ``rows`` to ``handle`` as CSV.

    Open file handles with ``newline=""`` so line endings stay ``\\n``.
    """
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(value) if isinstance(value, float) else value for value in row]
        for row in rows
    )
