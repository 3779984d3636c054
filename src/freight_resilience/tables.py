"""The CSV dialect of every table the package reads or writes.

Input tables are UTF-8, with or without a leading byte-order mark (as
Excel writes them). Blank rows are skipped but counted: rows are
numbered by record from 1. A file that is not valid UTF-8 or holds a
malformed record raises DataError naming the file and the physical line
of the fault, which is the record number unless a quoted field spans
lines before it.

Output tables are UTF-8 with ``\\n`` line endings. ``csv.writer`` writes
``None`` as an empty cell and a float as its shortest round-trip form
(``repr``), so writers pass values through unformatted.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError

Rows = Iterator[tuple[int, list[str]]]


@contextmanager
def read_rows(path) -> Iterator[Rows]:
    """Open ``path`` for a ``with`` block that iterates the ``(line, row)``
    pairs of its non-blank records, header included."""
    p = Path(path)
    if not p.is_file():
        raise DataError("file not found", path=p)
    with p.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:  # errors raised while the with block iterates arrive at the yield
            yield filter(itemgetter(1), enumerate(reader, start=1))
        except UnicodeDecodeError as exc:
            line = _undecodable_line(p)
            raise DataError(f"not valid UTF-8: {exc.reason}", path=p, line=line) from exc
        except csv.Error as exc:
            raise DataError(str(exc), path=p, line=reader.line_num) from exc


def _undecodable_line(path: Path) -> int | None:
    # the text layer decodes several KB ahead of the csv reader, so the
    # record being read says nothing about where the bad byte is; no
    # UTF-8 sequence contains a newline byte, so each line decodes alone
    with path.open("rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line
    return None


@contextmanager
def read_table(path, header: Sequence[str]) -> Iterator[Rows]:
    """``read_rows`` after the header: the first record must be ``header``."""
    with read_rows(path) as rows:
        line, first = next(rows, (1, None))
        if first != list(header):
            raise DataError(f"unexpected header {first}", path=path, line=line)
        yield rows


def write_table(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
