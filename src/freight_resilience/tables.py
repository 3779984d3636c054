"""The CSV dialect of every table the package reads or writes.

Input tables are UTF-8, with or without a leading byte-order mark (as
Excel writes them). Blank rows are skipped. A record is numbered by the
physical line it ends on, counted from 1, so a quoted cell that holds a
line end moves no later record's number. A file that is not valid UTF-8
or holds a malformed record raises DataError naming the file and the
physical line of the fault. A record with a cell too many or too few
raises DataError "expected N fields, got M" at its line (``row_error``).

A long table without quoted cells can be read in pieces: ``split_table``
cuts the records after its header into byte ranges that end at line
ends, or only where a key of leading cells changes, and ``read_range``
reads one of them, as ``read_rows`` would. ``fork_map`` runs pieces of
work in worker processes forked from this one, as many as it finds
CPUs and tasks for, and it is the only place that starts processes;
``map_ranges`` runs a reader over the ranges of tables in it, and it is
the only place that decides whether and where tables are cut for it.
``fork_map`` has four callers, each with its own size cutoff below which
it works in-process: through ``map_ranges`` the climate count and the
curves reader, and directly the replay that writes curves.csv
(``metrics.replay_to_csv``) and the writer of synthetic daily series
(``synth.generate_synthetic``).

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
import math
import os
from contextlib import contextmanager
from functools import partial
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

# Measured on a 2-CPU host, each read timed in a fresh process with the
# pool's start and imports included, in-process and pooled in turn (two
# rounds of 9 and 11 pairs per size): pooled, the curves reader of
# 2,000-node trials took a median 1.24-1.60x the in-process time at 6 MB
# and 0.62-0.87x at 8-12 MB, and the climate count 0.54-0.80x at 6-12 MB,
# so tables under 8 MB in all are read in-process. 2 and 4 ranges per
# worker took the same time within the host's noise for both readers, as
# did 4 to 64 for the curves reader at 15 MB.
_SERIAL_BELOW_BYTES = 8 << 20
_RANGES_PER_WORKER = 4

# where fork_map reads this process's cgroup CPU quota, read-only
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


@contextmanager
def read_rows(path) -> Iterator[Rows]:
    """Open ``path`` for a ``with`` block that iterates the ``(line, row)``
    pairs of its non-blank records, header included, ``line`` being the
    physical line where the record ends."""
    p = Path(path)
    if not p.is_file():
        raise DataError("file not found", path=p)
    with p.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:  # errors raised while the with block iterates arrive at the yield
            yield ((reader.line_num, row) for row in reader if row)
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


def split_table(
    path, header: Sequence[str], parts: int, key_cells: int = 0
) -> list[tuple[int, int]] | None:
    """At most ``parts`` byte ranges ``(start, end)`` of about equal size that
    cover the records after the header of ``path``, each ending at a line end.
    With ``key_cells``, a range ends only where the first ``key_cells`` cells
    change: it runs on over the lines after the cut that share the first
    such line's cells. None for a file that does not open, whose first line
    is not the header alone, or where a line read at a cut is too long or
    holds a quote. It reads the header line and the lines at each cut,
    nothing else."""
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
                line, key = fh.readline(1 << 16), None
                while True:
                    end = min(fh.tell(), total)
                    if b'"' in line or end < total and not line.endswith(b"\n"):
                        return None
                    if not key_cells or end == total:
                        break
                    # read on to the end of the run of the first whole line's key
                    line = fh.readline(1 << 16)
                    cells = line.split(b",", key_cells)[:key_cells]
                    if key not in (None, cells):
                        break
                    key = cells
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


def map_ranges(
    read: Callable[[Rows, object], R],
    paths: Sequence,
    header: Sequence[str],
    consume: Callable[[Iterator[R]], T],
    key_cells: int = 0,
) -> T | None:
    """``fork_map`` over byte ranges of the tables at ``paths``:
    ``consume(results)``, where ``results`` yields ``read(records, path)`` for
    the records of each range (``read_range``) of each file, in file and
    range order. Each file is cut by ``split_table``, with ``key_cells``,
    into ranges of about one size, about ``_RANGES_PER_WORKER`` of them for
    each of ``_MAX_WORKERS`` workers. None, for the caller to read
    in-process, where the files are missing or under
    ``_SERIAL_BELOW_BYTES`` in all, where one cannot be split, and wherever
    ``fork_map`` gives None."""
    try:
        sizes = [os.path.getsize(path) for path in paths]
    except OSError:
        return None
    if sum(sizes) < _SERIAL_BELOW_BYTES:
        return None
    range_bytes = -(-sum(sizes) // (_RANGES_PER_WORKER * _MAX_WORKERS)) or 1
    tasks = []
    for path, size in zip(paths, sizes):
        ranges = split_table(path, header, -(-size // range_bytes), key_cells)
        if ranges is None:
            return None
        tasks += [(path, start, end) for start, end in ranges]
    return fork_map(partial(_read_in_range, read), tasks, consume)


def _read_in_range(read: Callable[[Rows, object], R], path, start: int, end: int) -> R:
    with read_range(path, start, end) as records:
        return read(records, path)


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
) -> T | None:
    """``consume(results)``, where ``results`` yields ``task(*args)`` for
    each ``args`` of ``tasks``, in order, each computed in one of several
    processes forked from this one (the ``fork`` start method): one per
    usable CPU, at most ``_MAX_WORKERS`` and at most one per task. The CPUs
    usable are those of the affinity mask, and at most the cgroup CPU quota
    rounded up where one is set (``_cpu_quota``). The workers
    inherit ``task`` and all it refers to, so only ``tasks`` and the results
    are pickled; the workers fork before ``consume`` is called, and each
    result is dropped once ``consume`` has moved past it. Results that
    finish ahead of ``consume`` are held, unpickled, in this process until
    it reaches them, so a task should return its result in a compact form.

    None, for the caller to do the work in-process, where that makes fewer
    than two workers, where ``fork`` is not available, where the
    pool cannot start or loses a worker, or where a task raises (a task
    must not return None): the in-process pass alone builds the errors the
    caller reports. Also what ``consume`` returns where that is None. No
    worker outlives the call."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, _MAX_WORKERS, len(tasks))
    if workers >= 2 and (quota := _cpu_quota()) is not None:
        workers = min(workers, math.ceil(quota))
    if workers < 2:
        return None
    import multiprocessing  # here, not at the top: the imports cost about 1.5 MB
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    fork = multiprocessing.get_context("fork")
    pool = None
    try:  # a forked worker gets the initializer's arguments without pickling
        pool = ProcessPoolExecutor(
            workers, mp_context=fork, initializer=_set_task, initargs=(task,)
        )
        return consume(_checked(pool.map(_run, tasks)))
    except (OSError, ImportError, BrokenExecutor, _TaskFailed):
        return None
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _cpu_quota() -> float | None:
    """The CPUs that this process's cgroup may use by its CPU quota: cgroup
    v2 ``cpu.max``, or v1 ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us``,
    of the group that ``/proc/self/cgroup`` names. None where no quota is
    set (``max``, ``-1``) or none can be read."""
    try:
        groups = _PROC_CGROUP.read_text(encoding="ascii").splitlines()
    except (OSError, ValueError):
        return None
    for line in groups:
        try:
            _, controllers, group = line.split(":", 2)
            if not controllers:  # v2: "0::<group>"
                quota, period = (_CGROUP_ROOT / group.lstrip("/") / "cpu.max").read_text().split()
            elif "cpu" in controllers.split(","):
                v1 = _CGROUP_ROOT / "cpu" / group.lstrip("/")
                quota = (v1 / "cpu.cfs_quota_us").read_text().strip()
                period = (v1 / "cpu.cfs_period_us").read_text().strip()
            else:
                continue
            if quota not in ("max", "-1"):
                return int(quota) / int(period)
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return None


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
