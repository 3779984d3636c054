"""The output dialect: records rendered whole agree with ``csv.writer``.

``write_curves_csv`` and ``write_sequences_csv`` write each curve or
sequence as one block of pre-rendered text. Their oracle is the generic
path, ``write_table`` fed the same rows cell by cell, and the curves must
read back equal through ``read_curves_csv``.
"""

import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from freight_resilience import tables
from freight_resilience.disruption import (
    RANKING_MODES,
    SCENARIOS,
    TARGETED_SCENARIOS,
    RemovalSequence,
    write_sequences_csv,
)
from freight_resilience.metrics import (
    _CURVE_HEADER,
    RobustnessCurve,
    read_curves_csv,
    write_curves_csv,
)
from freight_resilience.tables import read_rows, render_record, write_table

# text cells that need quoting or must survive exactly: delimiters,
# quotes, line breaks, edge spaces, non-ASCII and the empty string
AWKWARD_TEXT = st.one_of(
    st.sampled_from(
        ["", "mA", "a,b", 'say "hi"', "a\rb", "a\nb", "a\r\nb", "\r", " lead", "trail ", "ü-mA"]
    ),
    st.text(alphabet=',"\r\n abé模', max_size=8),
)
SEEDS = st.one_of(st.none(), st.sampled_from([0, -1, 2**63, -(10**30)]), st.integers())
NODE_IDS = st.integers(-(10**12), 10**12)
UNIT_FLOATS = st.one_of(st.floats(0.0, 1.0), st.just(-0.0))


@st.composite
def curves(draw):
    """A valid curve with awkward text cells and arbitrary columns."""
    n = draw(st.integers(1, 12))
    tf = draw(st.integers(1, n))
    k = draw(st.integers(0, n))
    if k == 0:
        n = tf  # a file holds no node count: a lone intact row reads back with n = tf
    order = draw(st.lists(NODE_IDS, min_size=k, max_size=k, unique=True))
    ff = [tf]
    for j in range(1, k + 1):
        ff.append(max(0, min(ff[-1], n - j) - draw(st.integers(0, 2))))
    ton = sorted(draw(st.lists(UNIT_FLOATS, min_size=k + 1, max_size=k + 1)), reverse=True)
    gcc = draw(st.lists(UNIT_FLOATS, min_size=k + 1, max_size=k + 1))
    scenario = draw(st.one_of(st.sampled_from(SCENARIOS), AWKWARD_TEXT))
    model = draw(st.one_of(st.none(), AWKWARD_TEXT))
    return RobustnessCurve(
        scenario, model, draw(SEEDS), n, tf, tuple(order), tuple(ff), tuple(ton), tuple(gcc)
    )


@st.composite
def sequences(draw):
    """A valid removal sequence with awkward model names and seeds."""
    scenario = draw(st.sampled_from(SCENARIOS))
    order = tuple(draw(st.lists(NODE_IDS, max_size=12, unique=True)))
    model = draw(AWKWARD_TEXT if scenario == "hot_days" else st.one_of(st.none(), AWKWARD_TEXT))
    seed = draw(st.integers() if scenario == "random" else SEEDS)
    beyond = frozenset()
    if scenario == "hot_days" and order:
        beyond = frozenset(draw(st.sets(st.sampled_from(order))))
    mode = draw(st.sampled_from(RANKING_MODES)) if scenario in TARGETED_SCENARIOS else "static"
    return RemovalSequence(scenario, order, mode, model, seed, beyond)


def curve_rows(curves):
    """The rows of a curves CSV, cell by cell."""
    for c in curves:
        columns = (c.ff, c.scf, c.tonnage_fraction, c.tonnage_fraction_gcc)
        for j, node, *values in zip(range(len(c.ff)), (None, *c.order), *columns):
            yield (c.scenario, c.model, c.seed, j, node, c.fraction_removed[j], *values)


def sequence_rows(sequences):
    """The rows of a sequences CSV, cell by cell."""
    for seq in sequences:
        for j, node in enumerate(seq.order, 1):
            flag = "true" if node in seq.beyond_criterion else "false"
            yield (j, node, seq.scenario, seq.model, seq.seed, flag)


@settings(max_examples=200, deadline=None)
@given(st.lists(curves(), max_size=4, unique_by=lambda c: (c.scenario, c.model or None, c.seed)))
def test_curves_writer_matches_cell_by_cell_rows(curves):
    with tempfile.TemporaryDirectory() as tmp:
        blocks, cells = Path(tmp, "blocks.csv"), Path(tmp, "cells.csv")
        write_curves_csv(curves, blocks)
        write_table(cells, _CURVE_HEADER, curve_rows(curves))
        assert blocks.read_bytes() == cells.read_bytes()
        # an empty model cell reads back as None
        assert read_curves_csv(blocks) == [replace(c, model=c.model or None) for c in curves]


@settings(max_examples=200, deadline=None)
@given(st.lists(sequences(), max_size=4))
def test_sequences_writer_matches_cell_by_cell_rows(sequences):
    header = ("step", "node_id", "scenario", "model", "seed", "beyond_criterion")
    with tempfile.TemporaryDirectory() as tmp:
        blocks, cells = Path(tmp, "blocks.csv"), Path(tmp, "cells.csv")
        write_sequences_csv(sequences, blocks)
        write_table(cells, header, sequence_rows(sequences))
        assert blocks.read_bytes() == cells.read_bytes()


CELLS = st.one_of(AWKWARD_TEXT, st.none(), st.integers(), st.floats(allow_nan=False))


def cell_text(cell):
    return "" if cell is None else cell if isinstance(cell, str) else repr(cell)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=8),
    chunk=st.integers(1, 3),
)
def test_tables_read_back_what_write_table_wrote(rows, chunk):
    """Every block of rows renders as its rows one by one, and the file
    reads back cell for cell, carriage returns included."""
    rendered = "".join(render_record(row) + "\n" for row in rows)
    assert "".join(tables._render(rows, chunk)) == rendered
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "table.csv")
        write_table(path, ("h",), rows)
        with read_rows(path) as records:
            assert [row for _, row in records] == [["h"]] + [list(map(cell_text, r)) for r in rows]


def test_carriage_return_is_quoted():
    assert render_record(["a\rb", "c", None, 1, 0.5]) == '"a\rb",c,,1,0.5'


@settings(max_examples=300, deadline=None)
@given(
    body=st.text(alphabet="ab,1 é\r\n", max_size=300),
    bom=st.booleans(),
    crlf=st.booleans(),
    parts=st.integers(1, 40),
    block=st.integers(1, 64),
)
def test_ranges_read_the_records_of_the_whole_file(body, bom, crlf, parts, block):
    """The ranges of a table without quotes cover its records after the
    header, each once and in order, whatever the line endings (a lone
    carriage return included) and however the ranges are read in blocks."""
    head = "a,b\r\n" if crlf else "a,b\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "table.csv")
        path.write_bytes((("﻿" if bom else "") + head + body).encode())
        ranges = tables.split_table(path, ("a", "b"), parts)
        assert ranges[0][0] == len(head) + 3 * bom if body else ranges == []
        assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))
        assert len(ranges) <= parts
        with read_rows(path) as records:
            whole = [row for _, row in records][1:]
        pieces = []
        blocks = partial(tables._range_blocks, block=block)
        with mock.patch.object(tables, "_range_blocks", blocks):
            for start, end in ranges:
                with tables.read_range(path, start, end) as records:
                    pieces += [row for _, row in records]
    assert pieces == whole


def test_split_table_refuses_what_it_cannot_cut(tmp_path):
    path = tmp_path / "table.csv"
    # a blank line before the header, lone carriage returns, another
    # header, and a line end more than 64 KB past the cut
    long_line = "1," + "2" * 200_000 + "\n"
    for text in ["\na,b\n1,2\n", "a,b\r1,2\r", "a,b,c\n1,2\n", "a,b\n" + long_line + "3,4\n"]:
        path.write_text(text)
        assert tables.split_table(path, ("a", "b"), 2) is None
    assert tables.split_table(tmp_path / "absent.csv", ("a", "b"), 2) is None
