"""The one fork pool (``tables.fork_map``) and its three callers: the climate
count, the simulate stage's replay and the curves reader.

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
from concurrent import futures
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import er_edges, make_net
from freight_resilience import climate, metrics, pipeline, tables
from freight_resilience.climate import PeriodSpec, count_series_csv
from freight_resilience.cli import main
from freight_resilience.disruption import RemovalSequence, random_sequence, targeted_sequence
from freight_resilience.errors import DataError
from freight_resilience.metrics import read_curves_csv, replay, write_curves_csv
from freight_resilience.pipeline import load_config, run
from freight_resilience.synth import SynthSpec, generate_synthetic


@contextmanager
def fork_map_returns(module, **constants):
    """Record what ``fork_map`` returns to ``module`` inside the block: what
    the caller made of its workers' results, or None where it fell back to
    one process. ``constants`` patches module constants (a cutoff of 0
    pools inputs of any size), and two CPUs are usable whatever the host
    has."""
    returns = []

    def spy(*args):
        returns.append(tables.fork_map(*args))
        return returns[-1]

    with (
        mock.patch.object(module, "fork_map", spy),
        mock.patch.multiple(module, **constants),
        mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True),
    ):
        yield returns


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
# the three callers, each as (work, module, constants): ``work()`` is what
# is compared pooled and in one process


def count_caller(tmp_path):
    path = tmp_path / "series.csv"
    rows = (
        f"m1,{node},2000-07-{day:02},{30 + day % 9}.5\n" for node in (1, 2) for day in range(1, 31)
    )
    path.write_text("model,node_id,date,tmax_c\n" + "".join(rows))
    periods = (PeriodSpec("a", 2000, 2000), PeriodSpec("b", 1999, 2001))
    return lambda: count_series_csv([path], periods), climate, {"_SERIAL_BELOW_BYTES": 0}


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
    return work, pipeline, {"_REPLAY_SERIAL_BELOW_ROWS": 0, "_TASK_ROWS": 64}


def read_caller(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves_csv(seven_curves(), path)
    return lambda: read_curves_csv(path), metrics, {"_SERIAL_BELOW_BYTES": 0}


CALLERS = {"count": count_caller, "simulate": simulate_caller, "read": read_caller}


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
    # about 1.5 MB
    config = simulate_config(tmp_path, n=500, seeds=50)
    script = (
        "import sys\n"
        "from freight_resilience.pipeline import load_config, run\n"
        "from freight_resilience.metrics import read_curves_csv\n"
        f"bundle = run(load_config({str(config)!r}))\n"
        "read_curves_csv(bundle.out_dir / 'curves.csv')\n"
        "print(sorted({'multiprocessing', 'concurrent'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the curves reader over byte ranges


def read_both(path, ranges_per_worker):
    """``read_curves_csv(path)`` in one process and over about
    ``2 * ranges_per_worker`` byte ranges in 2 workers: the same curves, or
    the same error, which is raised again. Returns the curves and whether
    the workers' curves were used."""
    outcomes = []
    for pooled in (False, True):
        constants = {
            "_SERIAL_BELOW_BYTES": 0 if pooled else float("inf"),
            "_RANGES_PER_WORKER": ranges_per_worker,
        }
        with fork_map_returns(metrics, **constants) as returns:
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
    return serial, bool(returns) and returns[-1] is not None


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


def test_curve_straddling_cuts_is_joined(tmp_path):
    # 40 ranges over 7 curves: each curve is cut at least once, most of
    # them several times
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


def run_of(curve, start, stop, key=("random", "", "0")):
    """Steps ``start`` to ``stop - 1`` of ``curve`` as ``_curve_runs`` yields
    them from rows whose first cells are ``key``."""
    columns = [curve.order[max(start, 1) - 1 : stop - 1]]
    columns += [
        column[start:stop]
        for column in (curve.fraction_removed, curve.ff, curve.scf, curve.tonnage_fraction)
    ]
    columns.append(curve.tonnage_fraction_gcc[start:stop])
    return key, int(key[2]), start, tuple(map(list, columns))


def test_join_takes_only_runs_that_go_on_at_the_cut(tmp_path):
    # the columns agree with each other in every case: only the step
    # cells at the cut, which one process checks row by row, are wrong
    curve = seven_curves()[0]

    def join(head, start):
        key, seed, _, columns = head
        parts = [(run_of(curve, 0, 17), [], None), ((key, seed, start, columns), [], None)]
        return metrics._join_ranges(tmp_path, iter(parts))

    assert join(run_of(curve, 17, 41), 17) == [curve]
    # step cells 18, 19, ... where the curve needs 17, 18, ...
    assert join(run_of(curve, 17, 41), 18) is None
    # the next curve's step cells start at 3
    assert join(run_of(curve, 0, 41, key=("random", "", "1")), 3) is None
    assert len(join(run_of(curve, 0, 41, key=("random", "", "1")), 0)) == 2


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


def test_missing_curves_file_exits_three(tmp_path, capsys):
    absent = tmp_path / "none.csv"
    with pytest.raises(DataError, match="file not found"):
        read_both(absent, 4)
    with fork_map_returns(metrics, _SERIAL_BELOW_BYTES=0):
        assert main(["report", "--curves", str(absent), "--out", str(tmp_path / "r")]) == 3
    assert "file not found" in capsys.readouterr().err
