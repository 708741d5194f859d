"""The one CSV writer behind every CSV file and stream the simulator emits.

Rows go through the stdlib ``csv`` module with ``\\n`` line endings, so a
field holding a comma, a quote or a line break is quoted.  ``None`` becomes
an empty field and floats are written with ``repr`` (their shortest
round-trip form), so reading a file back recovers every value exactly.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Iterable, Sequence, TextIO


def write_csv(
    handle: TextIO, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """Write ``header`` and then ``rows`` to ``handle`` as CSV.

    Open file handles with ``newline=""`` so line endings stay ``\\n``.
    """
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        fields = [repr(value) if isinstance(value, float) else value for value in row]
        if any(isinstance(value, str) and "\r" in value for value in fields):
            # Some Python versions quote a field only for the line-break
            # characters of the writer's own terminator, so a bare "\r"
            # would go out unquoted and split the row on reading.  A "\r\n"
            # writer quotes it; the row still ends in "\n".
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(fields)
            handle.write(line.getvalue()[:-2] + "\n")
        else:
            writer.writerow(fields)
