import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_net, make_node, star_net
from freight_resilience.errors import DataError
from freight_resilience.network import (
    FreightNetwork,
    NodeRecord,
    average_degree,
    filter_mode,
    load_network,
    save_network,
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


NODES_HEADER = ["id", "name", "mode", "lat", "lon", "tonnage"]


class TestNodeRecord:
    def test_valid(self):
        rec = NodeRecord(1, "Hub", "rail", 29.95, -90.07, 1.5e6)
        assert rec.tonnage == 1.5e6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "road"},
            {"lat": 91.0},
            {"lat": -90.5},
            {"lon": 180.5},
            {"tonnage": -1.0},
            {"tonnage": math.inf},
            {"tonnage": math.nan},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(id=1, name="x", mode="rail", lat=0.0, lon=0.0, tonnage=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            NodeRecord(**base)


class TestBuild:
    def test_collapses_duplicate_and_reversed_edges(self):
        net = make_net(3, [(1, 2), (2, 1), (1, 2), (2, 3)])
        assert net.edges == ((1, 2), (2, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_net(2, [(1, 1)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node id"):
            make_net(2, [(1, 9)])

    def test_rejects_duplicate_node_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            FreightNetwork.build([make_node(1), make_node(1)], [])

    def test_constructor_requires_canonical_form(self):
        nodes = (make_node(1), make_node(2))
        with pytest.raises(ValueError, match="min, max"):
            FreightNetwork(nodes, ((2, 1),))
        with pytest.raises(ValueError, match="sorted"):
            FreightNetwork((make_node(2), make_node(1)), ())

    def test_adjacency_is_sorted(self):
        net = make_net(4, [(1, 4), (1, 2), (1, 3)])
        assert net.adjacency[1] == (2, 3, 4)
        assert net.degree(1) == 3

    def test_empty_network_allowed(self):
        net = FreightNetwork((), ())
        assert net.node_count == 0
        with pytest.raises(ValueError):
            average_degree(net)


class TestDerivedQuantities:
    def test_average_degree_star(self):
        assert average_degree(star_net(5)) == 8 / 5

    def test_average_degree_triangle(self):
        assert average_degree(make_net(3, [(1, 2), (2, 3), (1, 3)])) == 2.0

    def test_filter_mode(self):
        nodes = [
            make_node(1, mode="rail"),
            make_node(2, mode="water"),
            make_node(3, mode="rail"),
        ]
        net = FreightNetwork.build(nodes, [(1, 2), (1, 3)])
        rail = filter_mode(net, "rail")
        assert rail.node_ids == (1, 3)
        assert rail.edges == ((1, 3),)
        with pytest.raises(ValueError):
            filter_mode(net, "air")


class TestLoadNetwork:
    def test_round_trip(self, tmp_path):
        net = make_net(4, [(1, 2), (2, 3), (3, 4), (1, 4)], tons={1: 10.5, 2: 0.0})
        save_network(net, tmp_path / "n.csv", tmp_path / "e.csv")
        back = load_network(tmp_path / "n.csv", tmp_path / "e.csv")
        assert back == net

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="file not found"):
            load_network(tmp_path / "absent.csv", tmp_path / "e.csv")

    def test_duplicate_node_id_names_first_line(self, tmp_path):
        write_csv(
            tmp_path / "n.csv",
            [
                NODES_HEADER,
                [1, "a", "rail", 0, 0, 1],
                [1, "b", "rail", 0, 0, 1],
            ],
        )
        write_csv(tmp_path / "e.csv", [["src", "dst"]])
        with pytest.raises(DataError, match=r"n\.csv:3.*first seen on line 2"):
            load_network(tmp_path / "n.csv", tmp_path / "e.csv")

    def test_malformed_row_reports_line(self, tmp_path):
        write_csv(
            tmp_path / "n.csv",
            [NODES_HEADER, [1, "a", "rail", 0, 0, 1], [2, "b", "rail", "north", 0, 1]],
        )
        write_csv(tmp_path / "e.csv", [["src", "dst"]])
        with pytest.raises(DataError, match=r"n\.csv:3"):
            load_network(tmp_path / "n.csv", tmp_path / "e.csv")

    def test_line_is_physical_after_a_quoted_line_end(self, tmp_path):
        # the bad id's record is the fourth, but the first name's quoted
        # line end puts it on line 5
        (tmp_path / "n.csv").write_text(
            "id,name,mode,lat,lon,tonnage\n"
            '1,"two\nlines",rail,0,0,1\n'
            "2,b,rail,0,0,1\n"
            "x,c,rail,0,0,1\n"
        )
        write_csv(tmp_path / "e.csv", [["src", "dst"]])
        with pytest.raises(DataError, match=r"n\.csv:5: "):
            load_network(tmp_path / "n.csv", tmp_path / "e.csv")

    def test_edge_to_unknown_node_reports_line(self, tmp_path):
        write_csv(tmp_path / "n.csv", [NODES_HEADER, [1, "a", "rail", 0, 0, 1]])
        write_csv(tmp_path / "e.csv", [["src", "dst"], [1, 5]])
        with pytest.raises(DataError, match=r"e\.csv:2.*unknown node id 5"):
            load_network(tmp_path / "n.csv", tmp_path / "e.csv")

    @pytest.mark.parametrize("table", ["nodes", "edges"])
    def test_files_close_when_the_loader_raises_partway(self, tmp_path, monkeypatch, table):
        opened = []
        path_open = Path.open

        def recording_open(self, *args, **kwargs):
            fh = path_open(self, *args, **kwargs)
            opened.append(fh)
            return fh

        first = [1, "a", "rail", 0, 0, 1]
        write_csv(tmp_path / "n.csv", [NODES_HEADER, first] + [first] * (table == "nodes"))
        write_csv(tmp_path / "e.csv", [["src", "dst"], [1, 5], [1, 1]])
        monkeypatch.setattr(Path, "open", recording_open)
        # the loader raises while its reader is part way through the table,
        # and excinfo's traceback keeps the loader's frame alive
        with pytest.raises(DataError, match="duplicate node id|unknown node id") as excinfo:
            load_network(tmp_path / "n.csv", tmp_path / "e.csv")
        assert excinfo.value.line == {"nodes": 3, "edges": 2}[table]
        assert len(opened) == {"nodes": 1, "edges": 2}[table]
        assert all(fh.closed for fh in opened)

    def test_duplicate_edges_collapse_regardless_of_order(self, tmp_path):
        write_csv(
            tmp_path / "n.csv",
            [NODES_HEADER, [1, "a", "rail", 0, 0, 1], [2, "b", "rail", 0, 0, 1]],
        )
        write_csv(tmp_path / "e.csv", [["src", "dst"], [1, 2], [2, 1], [1, 2]])
        net = load_network(tmp_path / "n.csv", tmp_path / "e.csv")
        assert net.edges == ((1, 2),)

    def test_column_map_and_extra_columns(self, tmp_path):
        # exports from other tools vary in column naming; extras ignored
        write_csv(
            tmp_path / "n.csv",
            [
                ["facility_id", "name", "mode", "lat", "lon", "tons_2050", "comment"],
                [3, "Depot", "water", 29.9, -90.1, 123.0, "x"],
            ],
        )
        write_csv(tmp_path / "e.csv", [["from_id", "to_id"]])
        net = load_network(
            tmp_path / "n.csv",
            tmp_path / "e.csv",
            column_map={"id": "facility_id", "tonnage": "tons_2050", "src": "from_id", "dst": "to_id"},
        )
        assert net.node_ids == (3,)
        assert net.node_by_id[3].tonnage == 123.0

    def test_missing_column_mentions_header(self, tmp_path):
        write_csv(tmp_path / "n.csv", [["id", "name", "mode", "lat", "lon"]])
        write_csv(tmp_path / "e.csv", [["src", "dst"]])
        with pytest.raises(DataError, match="missing column 'tonnage'"):
            load_network(tmp_path / "n.csv", tmp_path / "e.csv")

    def test_save_is_canonical(self, tmp_path):
        # same graph, different input order -> identical bytes out
        a = make_net(3, [(2, 3), (1, 2)])
        b = make_net(3, [(1, 2), (3, 2)])
        save_network(a, tmp_path / "na.csv", tmp_path / "ea.csv")
        save_network(b, tmp_path / "nb.csv", tmp_path / "eb.csv")
        assert (tmp_path / "na.csv").read_bytes() == (tmp_path / "nb.csv").read_bytes()
        assert (tmp_path / "ea.csv").read_bytes() == (tmp_path / "eb.csv").read_bytes()


@given(
    st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=12).flatmap(
        lambda ids: st.tuples(
            st.just(sorted(ids)),
            st.lists(
                st.tuples(st.sampled_from(sorted(ids)), st.sampled_from(sorted(ids))),
                max_size=30,
            ),
        )
    )
)
def test_build_canonicalizes_any_edge_soup(data):
    ids, raw_edges = data
    edges = [(a, b) for a, b in raw_edges if a != b]
    net = FreightNetwork.build([make_node(i) for i in ids], edges)
    assert list(net.edges) == sorted({(min(a, b), max(a, b)) for a, b in edges})
    assert 2 * net.edge_count == sum(net.degree(v) for v in net.node_ids)
