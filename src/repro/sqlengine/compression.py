"""Structure-variant compression levels.

Compression-aware physical design (see PAPERS.md) widens the structure
space along a second axis: every index or view candidate exists at a
*compression level* that trades page count against per-row CPU. A
compressed structure packs more entries per page — scans and seeks
touch proportionally fewer pages — but every entry must be decoded, so
per-row CPU charges inflate, and the build pays an extra encode pass on
top of the usual scan/sort/write.

The three levels are deliberately coarse (the paper's point is the
*shape* of the trade-off, not a codec catalog):

* :attr:`Compression.NONE` — the seed engine's plain structures. Its
  factors are exactly ``1.0``/``0.0`` so every formula in the geometry
  and cost layers degenerates to the historical computation *bit for
  bit*; the ``deployment`` verify family pins this.
* :attr:`Compression.LIGHT` — prefix/delta style: ~40% narrower
  entries, mild decode cost.
* :attr:`Compression.HEAVY` — dictionary+bitpack style: ~65% narrower
  entries, significant decode cost, markedly costlier build.

The level is part of a definition's *identity*: two ``IndexDef`` that
differ only in compression are distinct candidates, distinct catalog
objects, distinct axes in the cost matrices, and — critically —
distinct members of every relevance signature, so the cost service's
L3 cache can never conflate variants.
"""

from __future__ import annotations

from enum import IntEnum

from ..errors import SchemaError

__all__ = ["Compression"]


class Compression(IntEnum):
    """Compression level of a design structure (index or view).

    An ``IntEnum`` so levels order naturally (NONE < LIGHT < HEAVY)
    and sort stably inside
    :func:`~repro.sqlengine.index.structure_sort_key`.
    """

    NONE = 0
    LIGHT = 1
    HEAVY = 2

    @property
    def page_fraction(self) -> float:
        """Entry/row width multiplier (``1.0`` means uncompressed)."""
        return _PAGE_FRACTION[self.value]

    @property
    def cpu_factor(self) -> float:
        """Per-row CPU inflation on reads (decode cost)."""
        return _CPU_FACTOR[self.value]

    @property
    def build_cpu_factor(self) -> float:
        """CPU inflation of the build's sort/copy pass (encode cost)."""
        return _BUILD_CPU_FACTOR[self.value]

    @property
    def suffix(self) -> str:
        """Label suffix: empty at NONE so seed labels are unchanged."""
        return _SUFFIX[self.value]

    @classmethod
    def parse(cls, text: str) -> "Compression":
        """Parse a level from CLI spellings (name, ``L``/``H``, int)."""
        token = text.strip().upper()
        aliases = {"": cls.NONE, "N": cls.NONE, "L": cls.LIGHT,
                   "H": cls.HEAVY}
        if token in aliases:
            return aliases[token]
        if token in cls.__members__:
            return cls[token]
        try:
            return cls(int(token))
        except (ValueError, KeyError):
            raise SchemaError(
                f"unknown compression level {text!r} (expected one of "
                f"{', '.join(m.name for m in cls)})") from None


#: Width multiplier per level — fewer bytes per entry, hence fewer
#: pages per structure. NONE is exactly 1.0 (bit-identity anchor).
_PAGE_FRACTION = (1.0, 0.6, 0.35)

#: Read-side per-row CPU multiplier (decode). NONE is exactly 1.0:
#: multiplying a charge by 1.0 is IEEE-exact, so the NONE cost path is
#: bitwise the seed path.
_CPU_FACTOR = (1.0, 1.3, 1.8)

#: Build-side CPU multiplier (encode during the bulk load).
_BUILD_CPU_FACTOR = (1.0, 1.5, 2.5)

#: Label suffixes; NONE must stay empty so ``I(a,b)`` prints as before.
_SUFFIX = ("", "@L", "@H")
