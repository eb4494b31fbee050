"""Memory-budget governance for out-of-core grid execution.

GridGraph takes a user-supplied memory budget and streams the edge grid
so that the resident working set never exceeds it.  This module supplies
the two pieces the reproduction needs for that discipline:

:func:`parse_memory_budget`
    The ``--memory-budget`` grammar: a positive byte count with an
    optional binary unit suffix (``K``/``M``/``G``/``T``, optionally
    written ``KiB``/``KB`` etc. — all interpreted as powers of 1024,
    matching the GiB axis of the paper's Figure 4).

:class:`MemoryBudget`
    The resident-byte governor: every grid block admitted into memory is
    charged against the limit, admission evicts least-recently-used
    blocks until the new one fits, and the high-water mark records the
    largest resident footprint ever reached — the quantity the
    oversubscription tests assert never exceeds the budget.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Hashable

from ..errors import CapacityError, ValidationError

__all__ = ["MemoryBudget", "parse_memory_budget"]

_UNIT_BYTES = {
    "": 1,
    "B": 1,
    "K": 1 << 10,
    "M": 1 << 20,
    "G": 1 << 30,
    "T": 1 << 40,
}

_SPEC_RE = re.compile(
    r"^\s*(?P<number>\d+(?:\.\d+)?)\s*(?P<unit>[KMGT]?)(?:I?B)?\s*$",
    re.IGNORECASE,
)


def parse_memory_budget(spec: int | float | str) -> int:
    """Parse a memory-budget spec into a positive byte count.

    Accepts a bare number (bytes) or a number with a binary unit suffix:
    ``"64K"``, ``"512M"``, ``"1.5G"``, ``"2GiB"``, ``"8192"``.  Raises
    :class:`~repro.errors.ValidationError` for zero, negative,
    non-numeric or unknown-unit specs, so a typo'd budget dies loudly
    instead of silently disabling the governor.
    """
    if isinstance(spec, bool):  # bool is an int subclass; reject explicitly
        raise ValidationError(f"memory budget must be a size, got {spec!r}")
    if isinstance(spec, (int, float)):
        num_bytes = int(spec)
        if num_bytes <= 0 or spec != num_bytes:
            raise ValidationError(
                f"memory budget must be a positive whole byte count, got {spec!r}"
            )
        return num_bytes
    if not isinstance(spec, str):
        raise ValidationError(f"memory budget must be a size, got {spec!r}")
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ValidationError(
            f"bad memory budget {spec!r} (expected e.g. '8192', '64K', "
            f"'512M', '1.5G' or '2GiB')"
        )
    num_bytes = int(float(match["number"]) * _UNIT_BYTES[match["unit"].upper()])
    if num_bytes <= 0:
        raise ValidationError(f"memory budget must be positive, got {spec!r}")
    return num_bytes


class MemoryBudget:
    """LRU-governed resident-byte accounting for streamed grid blocks.

    ``limit_bytes=None`` disables the limit (accounting only), which is
    what a spill directory without an explicit budget gets.
    """

    def __init__(self, limit_bytes: int | None = None) -> None:
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValidationError(
                f"memory budget must be positive, got {limit_bytes!r}"
            )
        self.limit_bytes = limit_bytes
        #: bytes currently charged against the budget.
        self.resident_bytes = 0
        #: largest resident footprint ever reached — the oversubscription
        #: tests assert this never exceeds ``limit_bytes``.
        self.high_water_bytes = 0
        #: blocks charged / blocks evicted to make room, over the lifetime.
        self.admissions = 0
        self.evictions = 0
        self._resident: OrderedDict[Hashable, int] = OrderedDict()

    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self._resident

    def touch(self, key: Hashable) -> None:
        """Mark ``key`` most-recently-used (a cache hit)."""
        self._resident.move_to_end(key)

    def admit(self, key: Hashable, num_bytes: int) -> list[Hashable]:
        """Charge ``num_bytes`` for ``key``; returns the evicted keys.

        Least-recently-used residents are evicted until the newcomer
        fits.  A single block larger than the whole budget raises a
        structured :class:`~repro.errors.CapacityError` — the caller
        chose too coarse a grid granularity for this budget.
        """
        if num_bytes < 0:
            raise ValidationError("cannot admit a negative byte count")
        if key in self._resident:
            self.touch(key)
            return []
        if self.limit_bytes is not None and num_bytes > self.limit_bytes:
            raise CapacityError(
                required_bytes=num_bytes,
                available_bytes=self.limit_bytes,
                what=f"grid block {key!r}",
            )
        evicted: list[Hashable] = []
        while (
            self.limit_bytes is not None
            and self._resident
            and self.resident_bytes + num_bytes > self.limit_bytes
        ):
            old_key, old_bytes = self._resident.popitem(last=False)
            self.resident_bytes -= old_bytes
            self.evictions += 1
            evicted.append(old_key)
        self._resident[key] = num_bytes
        self.resident_bytes += num_bytes
        self.admissions += 1
        self.high_water_bytes = max(self.high_water_bytes, self.resident_bytes)
        return evicted

    def release(self, key: Hashable) -> None:
        """Return ``key``'s bytes to the budget (missing keys are a no-op)."""
        num_bytes = self._resident.pop(key, None)
        if num_bytes is not None:
            self.resident_bytes -= num_bytes

    def resident_keys(self) -> list[Hashable]:
        """Currently charged keys, least-recently-used first."""
        return list(self._resident)

    def __repr__(self) -> str:
        limit = "unlimited" if self.limit_bytes is None else f"{self.limit_bytes}B"
        return (
            f"MemoryBudget({limit}, resident={self.resident_bytes}B, "
            f"high_water={self.high_water_bytes}B, evictions={self.evictions})"
        )
