"""The one fork pool (``tables.fork_map``) and its four callers: the climate
count, the replay that writes curves.csv (``metrics.replay_to_csv``), the
curves reader and the writer of synthetic daily series (``synth``).

Pooled, each gives the results, bytes and errors of one process; on any
pool fault it works in one process instead, and no child process outlives
it.
"""

import errno
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent import futures
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import er_edges, fork_map_returns, make_net
from freight_resilience import metrics, pipeline, synth, tables
from freight_resilience.climate import PeriodSpec, count_series_csv
from freight_resilience.cli import main
from freight_resilience.disruption import (
    RemovalSequence,
    hot_day_sequence,
    random_sequence,
    targeted_sequence,
)
from freight_resilience.errors import DataError
from freight_resilience.metrics import (
    RobustnessCurve,
    read_curves_csv,
    replay,
    replay_to_csv,
    write_curves_csv,
)
from freight_resilience.pipeline import load_config, run
from freight_resilience.synth import SynthSpec, build_network, generate_synthetic


def exit_in_worker(args):
    """A task that ends its worker process, as an out-of-memory kill would."""
    os._exit(1)


def seven_curves(n=40, seed=4):
    net = make_net(n, er_edges(n, 0.1, random.Random(seed)), tons={1: 5.5, 2: 0.25})
    seqs = [random_sequence(net, s) for s in range(5)]
    seqs.append(targeted_sequence(net, "degree"))
    seqs.append(RemovalSequence("random", seqs[0].order[:9], seed=99))
    return [replay(net, s) for s in seqs]


# ---------------------------------------------------------------------------
# the four callers, each as (work, module, constants): ``work()`` is what
# is compared pooled and in one process


def count_caller(tmp_path):
    path = tmp_path / "series.csv"
    rows = (
        f"m1,{node},2000-07-{day:02},{30 + day % 9}.5\n" for node in (1, 2) for day in range(1, 31)
    )
    path.write_text("model,node_id,date,tmax_c\n" + "".join(rows))
    periods = (PeriodSpec("a", 2000, 2000), PeriodSpec("b", 1999, 2001))
    return lambda: count_series_csv([path], periods), tables, {"_SERIAL_BELOW_BYTES": 0}


def simulate_config(tmp_path, n=30, seeds=6) -> Path:
    data = tmp_path / "data"
    generate_synthetic(SynthSpec(n_nodes=n, avg_degree=3.0, seed=2, models=()), data)
    config = {
        "nodes": "data/nodes.csv",
        "edges": "data/edges.csv",
        "out_dir": "out",
        "seeds": seeds,
        "scenarios": ["random", "targeted_degree", "targeted_betweenness"],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path / "config.json"


def simulate_caller(tmp_path):
    config = load_config(simulate_config(tmp_path))

    def work():
        bundle = run(config)
        return {name: (bundle.out_dir / name).read_bytes() for name in bundle.files}

    # tasks of two or three sequences
    return work, metrics, {"_REPLAY_SERIAL_BELOW_ROWS": 0, "_TASK_ROWS": 64}


def read_caller(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves_csv(seven_curves(), path)
    return lambda: read_curves_csv(path), tables, {"_SERIAL_BELOW_BYTES": 0}


# 5 nodes and 2 models over a leap year: 3,660 rows in 10 blocks of 366 rows,
# two blocks a task, so the third task holds the last block of one model
# and the first of the next
SYNTH_SPEC = SynthSpec(n_nodes=5, avg_degree=2.0, seed=3, models=("m1", "m2"), end_year=2000)
SYNTH_ROWS = 3_660


def synth_caller(tmp_path):
    def work():
        paths = generate_synthetic(SYNTH_SPEC, tmp_path / "synth")
        return {role: path.read_bytes() for role, path in paths.items()}

    return work, synth, {"_SERIES_SERIAL_BELOW_ROWS": 0, "_SERIES_TASK_ROWS": 800}


CALLERS = {
    "count": count_caller,
    "simulate": simulate_caller,
    "read": read_caller,
    "synth": synth_caller,
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_pooled_equals_one_process(tmp_path, caller):
    work, module, constants = CALLERS[caller](tmp_path)
    expected = work()
    with fork_map_returns(module, **constants) as returns:
        assert work() == expected
    assert len(returns) == 1 and returns[0] is not None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "pool, task",
    [
        (mock.Mock(side_effect=OSError(errno.EAGAIN, "fork failed")), None),
        (mock.Mock(side_effect=ImportError("no semaphores")), None),
        (None, exit_in_worker),
    ],
    ids=["pool-not-started", "no-semaphores", "worker-killed"],
)
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_pool_failure_works_in_one_process(tmp_path, caller, pool, task):
    work, module, constants = CALLERS[caller](tmp_path)
    expected = work()
    if pool:
        fault = mock.patch.object(futures, "ProcessPoolExecutor", pool)
    else:
        fault = mock.patch.object(tables, "_run", task)
    with fault, fork_map_returns(module, **constants) as returns:
        assert work() == expected
    assert returns == [None]
    assert multiprocessing.active_children() == []


def test_small_runs_never_import_the_pool(tmp_path):
    # a run of static-500's size (26,052 curve rows here, a 1.9 MB curves
    # file) stays below every cutoff: the pool's imports would cost it
    # about 1.5 MB. So do synthetic series below synth's cutoff (3 models,
    # 40 nodes, 2 years: 87,720 rows) and the series-free set-ups of
    # static-500, adaptive-rail-84 and replay-2000
    config = simulate_config(tmp_path, n=500, seeds=50)
    small = SynthSpec(n_nodes=40, avg_degree=4.0, seed=1, start_year=2000, end_year=2001)
    assert 3 * 40 * 731 < synth._SERIES_SERIAL_BELOW_ROWS
    script = (
        "import sys\n"
        "from freight_resilience.pipeline import load_config, run\n"
        "from freight_resilience.metrics import read_curves_csv\n"
        "from freight_resilience.synth import SynthSpec, generate_synthetic\n"
        f"bundle = run(load_config({str(config)!r}))\n"
        "read_curves_csv(bundle.out_dir / 'curves.csv')\n"
        f"generate_synthetic({small!r}, {str(tmp_path / 'small')!r})\n"
        f"generate_synthetic(SynthSpec(2000, 4.0, 1, models=()), {str(tmp_path / 'bare')!r})\n"
        "print(sorted({'multiprocessing', 'concurrent'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("caller", ["count", "read", "synth"])
def test_inputs_from_the_cutoff_up_are_pooled(tmp_path, caller):
    # both range readers share tables' one cutoff, in bytes of input; the
    # series writer has its own, in rows written
    work, module, constants = CALLERS[caller](tmp_path)
    if caller == "synth":
        cutoff, size = "_SERIES_SERIAL_BELOW_ROWS", SYNTH_ROWS
    else:
        [path] = tmp_path.glob("*.csv")
        cutoff, size = "_SERIAL_BELOW_BYTES", path.stat().st_size
    with fork_map_returns(module, **{**constants, cutoff: size}) as returns:
        work()
    assert len(returns) == 1 and returns[0] is not None
    with fork_map_returns(module, **{**constants, cutoff: size + 1}) as returns:
        work()
    assert returns == []


# ---------------------------------------------------------------------------
# the pool's size under a cgroup CPU quota


def square(x):
    return x * x


# /proc/self/cgroup (None: absent), the files under the cgroup root, and
# the workers of a pool on two usable CPUs (None: in-process)
CGROUPS = {
    "v1-one-cpu": (
        "4:cpu,cpuacct:/job\n1:memory:/job\n0::/\n",
        {"cpu/job/cpu.cfs_quota_us": "100000\n", "cpu/job/cpu.cfs_period_us": "100000\n"},
        None,
    ),
    "v1-one-and-a-half": (
        "4:cpu,cpuacct:/job\n",
        {"cpu/job/cpu.cfs_quota_us": "150000\n", "cpu/job/cpu.cfs_period_us": "100000\n"},
        2,
    ),
    "v1-no-quota": (
        "4:cpu,cpuacct:/job\n",
        {"cpu/job/cpu.cfs_quota_us": "-1\n", "cpu/job/cpu.cfs_period_us": "100000\n"},
        2,
    ),
    "v2-half": ("0::/job\n", {"job/cpu.max": "50000 100000\n"}, None),
    "v2-one-and-a-half": ("0::/job\n", {"job/cpu.max": "150000 100000\n"}, 2),
    "v2-max": ("0::/job\n", {"job/cpu.max": "max 100000\n"}, 2),
    "v2-unreadable": ("0::/job\n", {"job/cpu.max": "150000\n"}, 2),
    "no-files": ("0::/job\n4:cpu:/job\n", {}, 2),
    "no-cgroup-file": (None, {}, 2),
}


@pytest.mark.parametrize("tree", sorted(CGROUPS))
def test_workers_capped_at_the_cgroup_cpu_quota(tmp_path, tree):
    groups, files, workers = CGROUPS[tree]
    if groups is not None:
        (tmp_path / "cgroup").write_text(groups)
    for name, text in files.items():
        (tmp_path / "fs" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / name).write_text(text)
    pool = mock.Mock(wraps=futures.ProcessPoolExecutor)
    with (
        mock.patch.multiple(tables, _PROC_CGROUP=tmp_path / "cgroup", _CGROUP_ROOT=tmp_path / "fs"),
        mock.patch.object(futures, "ProcessPoolExecutor", pool),
        mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True),
    ):
        result = tables.fork_map(square, [(k,) for k in range(5)], list)
    if workers is None:
        assert result is None and not pool.called
    else:
        assert result == [0, 1, 4, 9, 16]
        assert pool.call_args.args[0] == workers
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the replay's one writer, pooled or not


@st.composite
def removal_sequences(draw, net):
    """Random, targeted and hot-day sequences over ``net``: whole, partial
    or empty orders, hot-day ones with their beyond_criterion nodes."""
    sequences = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "targeted", "hot_days"]))
        if kind == "random":
            seq = random_sequence(net, i)
        elif kind == "targeted":
            seq = targeted_sequence(net, draw(st.sampled_from(["degree", "betweenness"])))
        else:
            deltas = draw(st.lists(st.integers(-2, 3), min_size=net.node_count,
                                   max_size=net.node_count))
            seq = hot_day_sequence(net, dict(zip(net.node_ids, deltas)), f"m{i}")
        cut = draw(st.one_of(st.none(), st.integers(0, net.node_count)))
        if cut is not None:
            order = seq.order[:cut]
            beyond = seq.beyond_criterion & set(order)
            seq = RemovalSequence(seq.scenario, order, seq.model, seq.seed, beyond)
        sequences.append(seq)
    return sequences


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 12),
    p=st.floats(0.0, 0.6),
    task_rows=st.sampled_from([1, 64, 4096]),
    pooled=st.booleans(),
)
def test_replay_to_csv_writes_what_replay_gives(tmp_path_factory, data, n, p, task_rows, pooled):
    net = make_net(n, er_edges(n, p, random.Random(n)), tons={1: 5.5, 2: 0.25})
    sequences = data.draw(removal_sequences(net))
    expected = [replay(net, s) for s in sequences]
    tmp = tmp_path_factory.mktemp("replay")
    write_curves_csv(expected, tmp / "oracle.csv")
    constants = {"_REPLAY_SERIAL_BELOW_ROWS": 0 if pooled else float("inf"), "_TASK_ROWS": task_rows}
    with fork_map_returns(metrics, **constants) as returns:
        curves = replay_to_csv(net, sequences, tmp / "curves.csv")
    assert curves == expected
    assert all(c.order is s.order for c, s in zip(curves, sequences))
    assert (tmp / "curves.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
    # one sequence per task at _TASK_ROWS 1: from two sequences up, the
    # workers' blocks are the ones written
    assert len(returns) == pooled
    if pooled and task_rows == 1 and len(sequences) > 1:
        assert returns[0] is not None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("pooled", [False, True])
def test_replayed_curves_hold_their_sequences_order(tmp_path, pooled):
    # a worker's curves come back without ``order``: each curve holds its
    # sequence's own tuple, not an unpickled copy
    net = make_net(40, er_edges(40, 0.1, random.Random(4)))
    sequences = [random_sequence(net, s) for s in range(6)]
    constants = {"_REPLAY_SERIAL_BELOW_ROWS": 0 if pooled else float("inf"), "_TASK_ROWS": 41}
    with fork_map_returns(metrics, **constants) as returns:
        curves = replay_to_csv(net, sequences, tmp_path / "curves.csv")
    assert [r is curves for r in returns] == ([True] if pooled else [])
    assert len(curves) == len(sequences)
    assert all(c.order is s.order for c, s in zip(curves, sequences))
    assert curves == [replay(net, s) for s in sequences]


# ---------------------------------------------------------------------------
# the curves reader over byte ranges


def read_both(path, ranges_per_worker):
    """``read_curves_csv(path)`` in one process and over about
    ``2 * ranges_per_worker`` byte ranges in 2 workers: the same curves, or
    the same error, which is raised again. Either way the curves share one
    int object per node id. Returns the curves and whether the workers'
    curves were used."""
    outcomes = []
    for pooled in (False, True):
        constants = {
            "_SERIAL_BELOW_BYTES": 0 if pooled else float("inf"),
            "_RANGES_PER_WORKER": ranges_per_worker,
        }
        with fork_map_returns(tables, **constants) as returns:
            try:
                outcomes.append(read_curves_csv(path))
            except DataError as exc:
                outcomes.append(exc)
    serial, split = outcomes
    assert multiprocessing.active_children() == []
    if isinstance(serial, Exception):
        assert str(split) == str(serial)
        raise serial
    assert split == serial
    for curves in outcomes:
        ids = [v for c in curves for v in c.order]
        assert len(set(map(id, ids))) == len(set(ids))
    return serial, bool(returns) and returns[-1] is not None


def test_ids_beyond_64_bits_read_as_in_one_process(tmp_path):
    # a worker sends a curve's order as an array('q') where its ids fit in
    # 64 bits and as a tuple where one does not
    ton, gcc = (1.0, 0.75, 0.5, 0.25), (1.0, 0.25, 0.25, 0.25)
    orders = [(2**63, 1000, -(2**63) - 1), (1000, 2**63 - 1, -(2**63)), (-(2**63) - 1, 7, 2**63)]
    curves = [
        RobustnessCurve("random", None, seed, 4, 4, order, (4, 1, 1, 1), ton, gcc)
        for seed, order in enumerate(orders * 3)
    ]
    path = tmp_path / "curves.csv"
    write_curves_csv(curves, path)
    assert read_both(path, 4) == (curves, True)


def kept_by(make):
    """``make()`` and the bytes that its result keeps, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pooled", [False, True])
def test_read_back_curves_keep_about_what_replayed_ones_keep(tmp_path, pooled):
    # a replayed curve keeps its sequence's order, whose ids are the
    # network's ints; curves read back share one int per id, where one int
    # parsed per order cell kept 1.4x in one process and 1.5x pooled here
    net = build_network(SynthSpec(500, 4.0, 1, models=()))
    replay(net, random_sequence(net, 10))  # the network's cached views are not the curves'
    curves, replayed = kept_by(lambda: [replay(net, random_sequence(net, s)) for s in range(10)])
    path = tmp_path / "curves.csv"
    write_curves_csv(curves, path)
    constants = {"_SERIAL_BELOW_BYTES": 0 if pooled else float("inf")}
    with fork_map_returns(tables, **constants) as returns:
        read_curves_csv(path)  # what the pool's first start leaves is not the curves'
        back, kept = kept_by(lambda: read_curves_csv(path))
    assert back == curves
    assert (bool(returns) and returns[-1] is not None) == pooled
    steps = sum(len(c.ff) for c in curves)
    assert kept <= 1.15 * replayed, f"{kept / steps:.1f} B a step against {replayed / steps:.1f}"


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 14),
    p=st.floats(0.0, 0.6),
    cuts=st.lists(st.integers(0, 14), min_size=1, max_size=5),
    ranges_per_worker=st.integers(1, 40),
    model=st.sampled_from([None, "mA"]),
)
def test_ranges_read_back_the_written_curves(
    tmp_path_factory, n, p, cuts, ranges_per_worker, model
):
    # partial and whole curves, the lone intact row among them, in ranges
    # of a line or more
    net = make_net(n, er_edges(n, p, random.Random(n * 100 + len(cuts))))
    scenario = "hot_days" if model else "random"
    orders = [random_sequence(net, s).order[:cut] for s, cut in enumerate(cuts)]
    curves = [
        replay(net, RemovalSequence(scenario, order, model=model, seed=s))
        for s, order in enumerate(orders)
    ]
    path = tmp_path_factory.mktemp("curves") / "curves.csv"
    write_curves_csv(curves, path)
    read, _ = read_both(path, ranges_per_worker)
    columns = [(c.order, c.ff, c.tonnage_fraction, c.tonnage_fraction_gcc) for c in curves]
    assert [(c.order, c.ff, c.tonnage_fraction, c.tonnage_fraction_gcc) for c in read] == columns


def test_curve_longer_than_a_range_is_read_whole(tmp_path):
    # 40 ranges over 7 curves before the cuts move to the curves' ends:
    # each curve is longer than a range
    path = tmp_path / "curves.csv"
    curves = seven_curves()
    write_curves_csv(curves, path)
    assert read_both(path, 20) == (curves, True)


def test_quoted_model_name_falls_back_to_one_process(tmp_path):
    path = tmp_path / "curves.csv"
    net = make_net(30, er_edges(30, 0.2, random.Random(1)))
    curves = [replay(net, RemovalSequence("hot_days", random_sequence(net, 1).order, model="a,b"))]
    curves += seven_curves()
    write_curves_csv(curves, path)
    assert '"a,b"' in path.read_text()
    assert read_both(path, 4) == (curves, False)


@pytest.mark.parametrize("ranges_per_worker", [1, 3, 20])
def test_every_range_starts_at_a_step_0_row(tmp_path, ranges_per_worker):
    path = tmp_path / "curves.csv"
    curves = seven_curves()
    write_curves_csv(curves, path)
    split, cuts = tables.split_table, []

    def record(*args):
        cuts.append(split(*args))
        return cuts[-1]

    constants = {"_SERIAL_BELOW_BYTES": 0, "_RANGES_PER_WORKER": ranges_per_worker}
    with (
        mock.patch.object(tables, "split_table", record),
        fork_map_returns(tables, **constants) as returns,
    ):
        assert read_curves_csv(path) == curves
    assert returns[0] is not None
    [ranges] = cuts
    data = path.read_bytes()
    assert ranges[0][0] == data.index(b"\n") + 1 and ranges[-1][1] == len(data)
    assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))
    assert [data[start:end].split(b",", 4)[3] for start, end in ranges] == [b"0"] * len(ranges)
    assert 2 <= len(ranges) <= min(2 * ranges_per_worker, len(curves))


def set_cell(lines, line, column, text):
    cells = lines[line - 1].split(",")
    cells[column] = text
    lines[line - 1] = ",".join(cells)


# faults in the file of seven_curves, whose curves of 41 rows start at
# lines 2, 43, 84, ...
FAULTS = {
    "bad-cell": (
        lambda lines: set_cell(lines, 151, 6, "x"),
        r"curves\.csv:151: invalid literal for int\(\) with base 10: 'x'",
    ),
    "resumed-curve": (
        lambda lines: lines.append(lines[1]),
        r"curves\.csv:258: curve 'random'/''/'0' resumes after another curve's rows",
    ),
    "step-gap": (
        lambda lines: lines.pop(100),
        r"curves\.csv:101: step 18 where the curve needs step 17",
    ),
    "curve-fault": (
        lambda lines: set_cell(lines, 61, 5, "0.5"),
        r"curves\.csv: curve 'random'/''/'1': fraction_removed is not step/n_nodes",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_faults_give_the_one_process_error(tmp_path, fault):
    edit, message = FAULTS[fault]
    path = tmp_path / "curves.csv"
    write_curves_csv(seven_curves(), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=message):
        read_both(path, 8)


# cells out of place: blanks, bad and extreme numbers, and ids, steps and
# scenario names where another curve or row has them
DAMAGED_CELLS = [
    "", "x", "nan", "inf", "-inf", "-0", "1e309", "0.5", "1.0", "0", "1", "-1",
    "39", "40", "41", "99", "random", "targeted_degree", "hot_days", "mA",
]
# a row after the header (seven_curves' file has 256) or, for a copy, the
# end of the file; taken modulo the rows left
ROW = st.integers(0, 256)
DAMAGE = st.one_of(
    st.tuples(st.just("delete"), ROW),
    st.tuples(st.just("duplicate"), ROW, ROW),
    st.tuples(st.just("swap"), ROW, ROW),
    st.tuples(st.just("set"), ROW, st.integers(0, 9), st.sampled_from(DAMAGED_CELLS)),
)


@settings(max_examples=100, deadline=None)
@given(
    damage=st.lists(DAMAGE, min_size=1, max_size=3),
    ranges_per_worker=st.sampled_from([1, 4, 16]),
)
def test_damaged_files_read_as_in_one_process(tmp_path_factory, damage, ranges_per_worker):
    path = tmp_path_factory.mktemp("curves") / "curves.csv"
    write_curves_csv(seven_curves(), path)
    header, *rows = path.read_text().splitlines()
    for kind, row, *rest in damage:
        row %= len(rows)
        if kind == "delete":
            del rows[row]
        elif kind == "duplicate":  # a copy of the row before another row or at the end
            rows.insert(rest[0] % (len(rows) + 1), rows[row])
        elif kind == "swap":
            other = rest[0] % len(rows)
            rows[row], rows[other] = rows[other], rows[row]
        else:
            column, text = rest
            set_cell(rows, row + 1, column, text)
    path.write_text("\n".join([header, *rows]) + "\n")
    try:  # read_both asserts that both reads agree
        read_both(path, ranges_per_worker)
    except DataError:
        pass


def test_missing_curves_file_exits_three(tmp_path, capsys):
    absent = tmp_path / "none.csv"
    with pytest.raises(DataError, match="file not found"):
        read_both(absent, 4)
    with fork_map_returns(tables, _SERIAL_BELOW_BYTES=0):
        assert main(["report", "--curves", str(absent), "--out", str(tmp_path / "r")]) == 3
    assert "file not found" in capsys.readouterr().err
