"""Die floorplan geometry: tile coordinates, hop counts, wire lengths.

The NoC energy model needs physical routing distance (the paper quotes
a tile pitch of 1.14452 mm in X and 1.053 mm in Y); the routers need
dimension-ordered hop paths. Both are derived here from the mesh shape
in :class:`~repro.arch.params.PitonConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.arch.params import PitonConfig


@dataclass(frozen=True, order=True)
class TileCoord:
    """(x, y) position in the tile grid; tile 0 is the north-west corner.

    Tiles are numbered row-major to match the paper's Figure 2a: tile 0
    through tile 4 across the top row, tile 20 through 24 across the
    bottom.
    """

    x: int
    y: int


@lru_cache(maxsize=16)
def floorplan_tables(config: PitonConfig) -> tuple[tuple, tuple, tuple]:
    """Tile geometry of one mesh, built once per configuration.

    Returns ``(coords, hops, turns)``: ``coords[tile]`` is the tile's
    :class:`TileCoord`, ``hops[src][dst]`` the Manhattan hop count and
    ``turns[src][dst]`` 1 when the dimension-ordered route changes
    dimension, else 0. The memory system prices every message from
    these; :func:`repro.noc.mesh.mesh_tables` builds its routing tables
    on ``coords``.
    """
    width = config.mesh_width
    coords = tuple(
        TileCoord(t % width, t // width) for t in range(config.tile_count)
    )
    hops = tuple(
        tuple(abs(a.x - b.x) + abs(a.y - b.y) for b in coords)
        for a in coords
    )
    turns = tuple(
        tuple(int(a.x != b.x and a.y != b.y) for b in coords)
        for a in coords
    )
    return coords, hops, turns


class Floorplan:
    """Geometry queries over a mesh configuration."""

    def __init__(self, config: PitonConfig | None = None):
        self.config = config or PitonConfig()
        self._coords, self.hop_table, self.turn_table = floorplan_tables(
            self.config
        )

    # --- numbering ----------------------------------------------------------
    def coord_of(self, tile_id: int) -> TileCoord:
        self._check_tile(tile_id)
        return self._coords[tile_id]

    def tile_id_of(self, coord: TileCoord) -> int:
        if not (
            0 <= coord.x < self.config.mesh_width
            and 0 <= coord.y < self.config.mesh_height
        ):
            raise ValueError(f"{coord} outside mesh")
        return coord.y * self.config.mesh_width + coord.x

    def all_tiles(self) -> Iterator[int]:
        return iter(range(self.config.tile_count))

    # --- distance -----------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop count between two tiles."""
        self._check_tile(src)
        self._check_tile(dst)
        return self.hop_table[src][dst]

    def has_turn(self, src: int, dst: int) -> bool:
        """True when the dimension-ordered route changes dimension."""
        self._check_tile(src)
        self._check_tile(dst)
        return bool(self.turn_table[src][dst])

    def route(self, src: int, dst: int) -> list[int]:
        """Dimension-ordered (X then Y) tile path, inclusive of endpoints."""
        a, b = self.coord_of(src), self.coord_of(dst)
        path = [self.tile_id_of(a)]
        x, y = a.x, a.y
        step_x = 1 if b.x > x else -1
        while x != b.x:
            x += step_x
            path.append(self.tile_id_of(TileCoord(x, y)))
        step_y = 1 if b.y > y else -1
        while y != b.y:
            y += step_y
            path.append(self.tile_id_of(TileCoord(x, y)))
        return path

    def wire_length_mm(self, src: int, dst: int) -> float:
        """Physical routing distance of the dimension-ordered path."""
        a, b = self.coord_of(src), self.coord_of(dst)
        return (
            abs(a.x - b.x) * self.config.tile_pitch_x_mm
            + abs(a.y - b.y) * self.config.tile_pitch_y_mm
        )

    def tile_at_hops(self, src: int, hops: int) -> int:
        """A destination tile exactly ``hops`` away from ``src``.

        Mirrors the paper's NoC experiment, which picked tiles along the
        top row then down the east column (tile 1 = 1 hop, tile 2 = 2
        hops, ..., tile 9 = 5 hops, tile 24 = 8 hops from tile 0).
        Prefers pure-X routes, then X+Y.
        """
        self._check_tile(src)
        if hops == 0:
            return src
        if hops < 0 or hops > self.config.max_hops:
            raise ValueError(f"hop count {hops} unreachable in this mesh")
        origin = self.coord_of(src)
        for dy in range(self.config.mesh_height):
            dx = hops - dy
            for sx in (1, -1):
                for sy in (1, -1):
                    x, y = origin.x + sx * dx, origin.y + sy * dy
                    if 0 <= dx and 0 <= x < self.config.mesh_width and (
                        0 <= y < self.config.mesh_height
                    ):
                        return self.tile_id_of(TileCoord(x, y))
        raise ValueError(
            f"no tile exactly {hops} hops from tile {src} in this mesh"
        )

    def max_hops_from(self, tile_id: int) -> int:
        """Farthest Manhattan distance reachable from ``tile_id``."""
        c = self.coord_of(tile_id)
        return max(c.x, self.config.mesh_width - 1 - c.x) + max(
            c.y, self.config.mesh_height - 1 - c.y
        )

    def neighbors(self, tile_id: int) -> list[int]:
        """Mesh-adjacent tiles (2-4 of them)."""
        c = self.coord_of(tile_id)
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            x, y = c.x + dx, c.y + dy
            if 0 <= x < self.config.mesh_width and (
                0 <= y < self.config.mesh_height
            ):
                out.append(self.tile_id_of(TileCoord(x, y)))
        return out

    def _check_tile(self, tile_id: int) -> None:
        if not 0 <= tile_id < self.config.tile_count:
            raise ValueError(
                f"tile {tile_id} out of range 0..{self.config.tile_count - 1}"
            )
