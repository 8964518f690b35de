import pytest

from qcawalk import (
    Lattice,
    build_cycle_tessellations,
    build_torus_tessellations,
    tessellations_for,
)


def _edge_multiset(tessellations):
    edges = []
    for tess in tessellations:
        edges.extend(tuple(sorted(p)) for p in tess.pairs)
    return edges


class TestCycle:
    def test_four_cycle_pairs(self):
        t0, t1 = build_cycle_tessellations(4)
        assert t0.pairs == ((0, 1), (2, 3))
        assert t1.pairs == ((1, 2), (3, 0))

    def test_eight_cycle_cover(self):
        t0, t1 = build_cycle_tessellations(8)
        assert len(t0.pairs) == 4 and len(t1.pairs) == 4
        assert sorted(_edge_multiset([t0, t1])) == sorted(Lattice("cycle", 8).edges())

    def test_wrap_pair_in_odd_layer(self):
        _, t1 = build_cycle_tessellations(8)
        assert (7, 0) in t1.pairs

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_cycle_tessellations(2)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            build_cycle_tessellations(7)


class TestTorus:
    def test_four_torus_shape(self):
        tess = build_torus_tessellations(4)
        assert [t.label for t in tess] == ["T00", "T01", "T10", "T11"]
        for t in tess:
            assert len(t.pairs) == 8
        edges = _edge_multiset(tess)
        lattice_edges = Lattice("torus", 4).edges()
        assert len(edges) == 32 == len(lattice_edges)
        assert sorted(edges) == sorted(lattice_edges)  # each edge exactly once

    def test_every_vertex_once_per_tessellation(self):
        for t in build_torus_tessellations(4):
            seen = [v for p in t.pairs for v in p]
            assert sorted(seen) == list(range(16))

    def test_wrap_pairs(self):
        lat = Lattice("torus", 4)
        tess = {t.label: t for t in build_torus_tessellations(4)}
        for j in range(4):
            assert (lat.vertex_id(3, j), lat.vertex_id(0, j)) in tess["T10"].pairs
        for i in range(4):
            assert (lat.vertex_id(i, 3), lat.vertex_id(i, 0)) in tess["T11"].pairs

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            build_torus_tessellations(6 + 1)


class TestProperties:
    @pytest.mark.parametrize("kind,N", [("cycle", 4), ("cycle", 6), ("cycle", 10),
                                        ("cycle", 16), ("torus", 4), ("torus", 6)])
    def test_disjoint_and_cover(self, kind, N):
        lat = Lattice(kind, N)
        tess = tessellations_for(lat)
        for t in tess:
            flat = [v for p in t.pairs for v in p]
            assert len(flat) == len(set(flat)) == lat.vertex_count
        assert sorted(_edge_multiset(tess)) == sorted(lat.edges())

    def test_layer_counts(self):
        assert len(tessellations_for(Lattice("cycle", 8))) == 2
        assert len(tessellations_for(Lattice("torus", 4))) == 4

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            Lattice("triangle", 4)
        with pytest.raises(ValueError):
            Lattice("cycle", 1)

    @pytest.mark.parametrize("N,match", [(4.0, "integer"), (True, "integer"), ("4", "integer"),
                                         (1, ">= 2")],
                             ids=["float", "bool", "str", "one"])
    def test_size_must_be_an_integer_of_at_least_2(self, N, match):
        # fails at construction, naming N, not later inside a range() call
        with pytest.raises(ValueError, match=f"N must be .*{match}"):
            Lattice("cycle", N)

    def test_vertex_id_row_major(self):
        lat = Lattice("torus", 4)
        assert lat.vertex_id(3, 0) == 3
        assert lat.vertex_id(0, 1) == 4
        assert lat.vertex_id(2, 3) == 14
        assert lat.right_neighbor(3) == 0  # wraps within the row
