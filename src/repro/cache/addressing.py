"""Line-to-L2-slice homing.

Piton's L2 home slice for a line is selected by a configurable slice of
address bits — low, middle, or high order — settable through software.
The paper's Table VII experiment exploits exactly this knob (plus
careful address selection) to force loads at a *local* slice versus a
*remote* slice a chosen hop count away. :class:`AddressMap` reproduces
the mechanism, including helpers to construct addresses that home at a
given tile and alias into a given cache set.
"""

from __future__ import annotations

import enum

from repro.arch.params import CacheParams, PitonConfig


class Interleave(enum.Enum):
    """Which address bits select the home slice."""

    LOW = "low"  # bits just above the line offset
    MIDDLE = "middle"
    HIGH = "high"


class AddressMap:
    """Maps physical line addresses to home L2 slices."""

    #: Bit position where MIDDLE interleaving starts (above typical set
    #: index bits) and where HIGH interleaving starts.
    MIDDLE_SHIFT = 16
    HIGH_SHIFT = 28

    def __init__(
        self,
        config: PitonConfig | None = None,
        interleave: Interleave = Interleave.LOW,
    ):
        self.config = config or PitonConfig()
        self._interleave = interleave
        line_bits = (self.config.l2_slice.line_bytes - 1).bit_length()
        if interleave is Interleave.LOW:
            self._shift = line_bits
        elif interleave is Interleave.MIDDLE:
            self._shift = max(self.MIDDLE_SHIFT, line_bits)
        else:
            self._shift = max(self.HIGH_SHIFT, line_bits)
        self._tiles = self.config.tile_count

    @property
    def interleave(self) -> Interleave:
        """The homing field's position (fixed at construction)."""
        return self._interleave

    # --- forward mapping -------------------------------------------------------
    def home_tile(self, addr: int) -> int:
        """Home L2 slice (tile id) for the line containing ``addr``."""
        if addr < 0:
            raise ValueError("addresses must be non-negative")
        return (addr >> self._shift) % self._tiles

    # --- inverse construction (the Table VII trick) -----------------------------
    def address_homed_at(
        self,
        tile: int,
        sequence: int = 0,
        set_index: int | None = None,
        cache: CacheParams | None = None,
    ) -> int:
        """Construct the ``sequence``-th distinct line address homed at
        ``tile``, optionally aliasing to ``set_index`` of ``cache``.

        This mirrors the paper's methodology: "consecutive loads access
        different addresses that alias to the same cache set in the L1
        or L2 caches" with the home slice steered by address choice.
        """
        if not 0 <= tile < self.config.tile_count:
            raise ValueError(f"tile {tile} out of range")
        shift = self._shift
        n = self.config.tile_count
        # Walk candidate line numbers whose homing field selects `tile`,
        # spaced so successive sequence numbers differ in tag bits.
        line_bytes = self.config.l2_slice.line_bytes
        if cache is None or set_index is None:
            slice_field = tile + n * sequence
            addr = slice_field << shift
            return addr
        if not 0 <= set_index < cache.num_sets:
            raise ValueError(f"set index {set_index} out of range")
        # Need: (addr >> shift) % n == tile  AND
        #       (addr // cache.line_bytes) % cache.num_sets == set_index.
        # Search stride chosen to preserve the set index.
        stride = cache.num_sets * cache.line_bytes
        base = set_index * cache.line_bytes
        count = 0
        addr = base
        # The two congruences always admit solutions because the stride
        # cycles the homing field through all residues (n and the
        # stride>>shift are co-prime for the shipped geometries); bound
        # the scan generously and fail loudly otherwise.
        for k in range(16 * n * (sequence + 1) + 16):
            addr = base + k * stride
            if (addr >> shift) % n == tile:
                if count == sequence:
                    assert addr % line_bytes == base % line_bytes
                    return addr
                count += 1
        raise RuntimeError(
            "could not construct address: incompatible interleave/set "
            f"constraints (tile={tile}, set={set_index})"
        )
