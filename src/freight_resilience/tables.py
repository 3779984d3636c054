"""The CSV dialect of every table the package reads or writes.

Input tables are UTF-8, with or without a leading byte-order mark (as
Excel writes them). Blank rows are skipped but counted: rows are
numbered by record from 1. A file that is not valid UTF-8 or holds a
malformed record raises DataError naming the file and the physical line
of the fault, which is the record number unless a quoted field spans
lines before it. A record with a cell too many or too few raises
DataError "expected N fields, got M" at its line (``row_error``).

A long table without quoted cells can be read in pieces: ``split_table``
cuts the records after its header into byte ranges that end at line
ends, and ``read_range`` reads one of them, as ``read_rows`` would.
``fork_map`` runs such pieces of work, or any others, in worker
processes forked from this one (``pool_size`` says how many), and it is
the only place that starts processes.

Output tables are UTF-8 with ``\\n`` line endings. A cell is written as
``csv.writer`` writes it: ``None`` as an empty cell, an int as ``str``, a
float as its shortest round-trip form (``repr``), and text quoted when it
holds a comma, a quote or a line break. A carriage return counts as a
line break too, which ``csv.writer`` quotes only when it is part of the
line terminator (``render_record``). ``write_table`` takes rows of
unformatted values. The long tables (curves, removal sequences and
synthetic daily series) are rendered by their writers, one block of
records per curve, sequence or node series, and written with
``write_blocks``: their text cells go through ``render_record`` and their
numeric cells follow the same rule.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
from contextlib import contextmanager
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError

Rows = Iterator[tuple[int, list[str]]]
R = TypeVar("R")
T = TypeVar("T")

# Measured on a 2-CPU host with the climate count: 4 and 8 workers gained
# nothing over 2, and each worker adds about 25 MB.
_MAX_WORKERS = 2


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


def split_table(path, header: Sequence[str], parts: int) -> list[tuple[int, int]] | None:
    """At most ``parts`` byte ranges ``(start, end)`` of about equal size that
    cover the records after the header of ``path``, each ending at a line end; None
    for a file that does not open, whose first line is not the header
    alone, or that has a line too long to cut. It reads the header line
    and one line per cut, nothing else."""
    head = render_record(header).encode()
    try:
        with Path(path).open("rb") as fh:
            first = fh.readline(len(head) + 5).removeprefix(codecs.BOM_UTF8)
            if first not in (head + b"\n", head + b"\r\n"):
                return None
            start, total = fh.tell(), os.fstat(fh.fileno()).st_size
            size = -(-(total - start) // parts)
            ranges = []
            while start < total:
                fh.seek(start + size - 1)  # the range ends after the line holding this byte
                line = fh.readline(1 << 16)
                end = min(fh.tell(), total)
                if end < total and not line.endswith(b"\n"):
                    return None
                ranges.append((start, end))
                start = end
            return ranges
    except OSError:
        return None


@contextmanager
def read_range(path, start: int, end: int) -> Iterator[Rows]:
    """``read_rows`` over the bytes ``start:end`` of ``path``, a range from
    ``split_table``, numbering records from 1 within the range. Any fault
    raises ValueError without a line: a byte that is not UTF-8, a malformed
    record, and a quote byte, since a quoted cell may hold a line end."""
    with Path(path).open("rb") as fh:
        fh.seek(start)
        reader = csv.reader(chain.from_iterable(_range_blocks(fh, end - start)))
        try:
            yield filter(itemgetter(1), enumerate(reader, start=1))
        except csv.Error as exc:
            raise ValueError(str(exc)) from exc


def _range_blocks(fh, size: int, block: int = 1 << 18) -> Iterator[io.TextIOWrapper]:
    # whole lines, so that each block splits into lines as the whole file does
    while chunk := fh.read(min(block, size)):
        if not chunk.endswith(b"\n"):
            chunk += fh.readline(size - len(chunk))
        size -= len(chunk)
        if b'"' in chunk:
            raise ValueError("quoted cell")
        yield io.TextIOWrapper(io.BytesIO(chunk), encoding="utf-8", newline="")


def pool_size(size: int, serial_below: int) -> int:
    """How many workers ``fork_map`` gets for a job of ``size`` (in the
    caller's unit): one per usable CPU, at most ``_MAX_WORKERS``, and 0 when
    ``size`` is below the caller's cutoff ``serial_below``. Under 2, the
    caller works in-process."""
    if size < serial_below:
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cpus, _MAX_WORKERS)


class _TaskFailed(Exception):
    pass


_task: Callable | None = None  # set in fork_map's workers only


def _set_task(task: Callable) -> None:
    global _task
    _task = task


def _run(args: tuple):
    try:
        return _task(*args)
    except Exception:  # the caller's in-process pass raises it again, with its message
        return None


def _checked(results: Iterator[R]) -> Iterator[R]:
    for result in results:
        if result is None:
            raise _TaskFailed
        yield result


def fork_map(
    task: Callable[..., R],
    tasks: Sequence[tuple],
    consume: Callable[[Iterator[R]], T],
    workers: int,
) -> T | None:
    """``consume(results)``, where ``results`` yields ``task(*args)`` for
    each ``args`` of ``tasks``, in order, each computed in one of ``workers``
    processes forked from this one (the ``fork`` start method). The workers
    inherit ``task`` and all it refers to, so only ``tasks`` and the results
    are pickled; the workers fork before ``consume`` is called, and each
    result is dropped once ``consume`` has moved past it.

    None, for the caller to do the work in-process, where there are fewer
    than two workers or tasks, where ``fork`` is not available, where the
    pool cannot start or loses a worker, or where a task raises (a task
    must not return None): the in-process pass alone builds the errors the
    caller reports. Also what ``consume`` returns where that is None. No
    worker outlives the call."""
    if workers < 2 or len(tasks) < 2:
        return None
    import multiprocessing  # here, not at the top: the imports cost about 1.5 MB
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    fork = multiprocessing.get_context("fork")
    pool = None
    try:  # a forked worker gets the initializer's arguments without pickling
        pool = ProcessPoolExecutor(
            min(workers, len(tasks)), mp_context=fork, initializer=_set_task, initargs=(task,)
        )
        return consume(_checked(pool.map(_run, tasks)))
    except (OSError, ImportError, BrokenExecutor, _TaskFailed):
        return None
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def row_error(exc: Exception, row: list[str], width: int, path, line: int) -> DataError:
    """The DataError for a record that failed to parse: a record that is
    not ``width`` fields wide is named as such, whatever it raised. Readers
    unpack each record inside their ``try``, which checks its width at no
    cost per row."""
    if len(row) != width:
        return DataError(f"expected {width} fields, got {len(row)}", path=path, line=line)
    return DataError(str(exc), path=path, line=line)


def render_record(cells: Sequence[object]) -> str:
    """``cells`` as one record of the output dialect, without the line ending.

    ``csv.writer`` quotes a cell holding a character of its line
    terminator, so a ``\\r\\n`` terminator quotes a carriage return too (a
    reader ends the record there otherwise); it is cut off again here.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2]


def _render(rows: Iterable[Sequence[object]], chunk: int = 4096) -> Iterator[str]:
    """``rows`` as records of the output dialect, a block of ``chunk`` rows
    at a time: one ``writerows`` call per block, and ``render_record`` per
    row for the rare block with a carriage return in a cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = iter(rows)
    while block := list(islice(rows, chunk)):
        writer.writerows(block)
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        yield text if "\r" not in text else "".join([render_record(row) + "\n" for row in block])


def write_blocks(path, header: Sequence[str], blocks: Iterable[str]) -> None:
    """Write ``header`` and then ``blocks``, rows already rendered: each
    block is whole records, line endings included."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(render_record(header) + "\n")
        fh.writelines(blocks)


def write_table(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    write_blocks(path, header, _render(rows))
