"""Cycle and torus lattices with their minimal tessellation covers.

A tessellation is a perfect matching of the lattice vertices; one
two-qubit gate layer acts on each tessellation.  Cycles are covered by two
tessellations (even and odd bonds), the torus by four (horizontal
even/odd, vertical even/odd).  Periodic boundary conditions put the wrap
pair in the odd layer, acting on the last and first vertex of each
row/column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import require_count


@dataclass(frozen=True)
class Lattice:
    """A cycle of length N or an N x N torus, both with periodic wrap."""

    kind: str  # "cycle" | "torus"
    N: int

    def __post_init__(self):
        if self.kind not in ("cycle", "torus"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        require_count("N", self.N, 2)

    @property
    def vertex_count(self) -> int:
        return self.N if self.kind == "cycle" else self.N * self.N

    def vertex_id(self, i: int, j: int = 0) -> int:
        """Torus coordinates (i, j) -> row-major vertex id i + N*j."""
        if self.kind == "cycle":
            return i % self.N
        return (i % self.N) + self.N * (j % self.N)

    def right_neighbor(self, v: int) -> int:
        """Neighbor of v along the cycle / along the +x torus direction."""
        if self.kind == "cycle":
            return (v + 1) % self.N
        i, j = v % self.N, v // self.N
        return self.vertex_id(i + 1, j)

    def edges(self) -> set:
        """All lattice edges as sorted vertex-id tuples."""
        if self.kind == "cycle":
            return {tuple(sorted((v, (v + 1) % self.N))) for v in range(self.N)}
        out = set()
        for j in range(self.N):
            for i in range(self.N):
                v = self.vertex_id(i, j)
                out.add(tuple(sorted((v, self.vertex_id(i + 1, j)))))
                out.add(tuple(sorted((v, self.vertex_id(i, j + 1)))))
        return out


@dataclass(frozen=True)
class Tessellation:
    """A labelled perfect matching: vertex-disjoint pairs covering the lattice."""

    label: str
    pairs: tuple


def _require_even(N: int, minimum: int = 4) -> None:
    # perfect matchings of the bond layers exist only for even sizes
    if N < minimum:
        raise ValueError(f"lattice size {N} below minimum {minimum}")
    if N % 2:
        raise ValueError(f"tessellation cover needs an even size, got {N}")


def build_cycle_tessellations(N: int) -> list[Tessellation]:
    """Two matchings covering the N-cycle: even bonds, then odd bonds.

    The odd layer contains the wrap pair (N-1, 0).
    """
    _require_even(N)
    t0 = tuple((2 * i, 2 * i + 1) for i in range(N // 2))
    t1 = tuple(((2 * i + 1) % N, (2 * i + 2) % N) for i in range(N // 2))
    return [Tessellation("T0", t0), Tessellation("T1", t1)]


def build_torus_tessellations(N: int) -> list[Tessellation]:
    """Four matchings covering the N x N torus, in application order.

    T00 pairs horizontal even bonds ((2i, j), (2i+1, j)); T01 vertical even
    bonds; T10 horizontal odd bonds (with the ((N-1, j), (0, j)) wrap); T11
    vertical odd bonds.  Together they cover every torus edge exactly once.
    """
    _require_even(N)
    lat = Lattice("torus", N)
    vid = lat.vertex_id
    t00 = tuple((vid(2 * i, j), vid(2 * i + 1, j)) for j in range(N) for i in range(N // 2))
    t01 = tuple((vid(i, 2 * j), vid(i, 2 * j + 1)) for i in range(N) for j in range(N // 2))
    t10 = tuple((vid(2 * i + 1, j), vid(2 * i + 2, j)) for j in range(N) for i in range(N // 2))
    t11 = tuple((vid(i, 2 * j + 1), vid(i, 2 * j + 2)) for i in range(N) for j in range(N // 2))
    return [
        Tessellation("T00", t00),
        Tessellation("T01", t01),
        Tessellation("T10", t10),
        Tessellation("T11", t11),
    ]


def tessellations_for(lattice: Lattice) -> list[Tessellation]:
    if lattice.kind == "cycle":
        return build_cycle_tessellations(lattice.N)
    return build_torus_tessellations(lattice.N)
