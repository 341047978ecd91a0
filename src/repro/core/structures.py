"""Physical-design configurations.

A :class:`Configuration` is a set of design structures — index and
materialized-view definitions, each at a
:class:`~repro.sqlengine.compression.Compression` level — exactly the
paper's ``C_i``. Configurations are immutable and hashable so they can
be graph nodes, matrix axes, and dict keys.

The compression axis multiplies the candidate space:
:func:`compressed_variants` expands a base candidate list into
per-level variants, which every downstream consumer (enumeration, DP
and LP advisors, cost service) takes unchanged — a variant is just
another structure definition with its own identity.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from ..sqlengine.compression import Compression
from ..sqlengine.index import IndexDef, structure_sort_key

__all__ = [
    "Compression", "Configuration", "EMPTY_CONFIGURATION",
    "compressed_variants", "single_index_configurations",
]


class Configuration:
    """An immutable set of :class:`IndexDef`.

    The empty configuration prints as ``{}``; others use the paper's
    index notation, e.g. ``{I(a,b), I(c)}``.
    """

    __slots__ = ("_indexes", "_hash", "_label")

    def __init__(self, indexes: Iterable[IndexDef] = ()):
        self._indexes: FrozenSet[IndexDef] = frozenset(indexes)
        # Hash and label are memoized lazily: configurations are probed
        # against the costing caches (and sorted by label) far more
        # often than they are built, but enumeration also builds many
        # configurations that are never hashed at all (space-bound
        # rejects).
        self._hash: Optional[int] = None
        self._label: Optional[str] = None

    # -- set-ish interface ------------------------------------------------

    @property
    def indexes(self) -> FrozenSet[IndexDef]:
        """The full structure set (historical name — views included)."""
        return self._indexes

    @property
    def structures(self) -> FrozenSet:
        """All design structures: indexes *and* materialized views.

        A :class:`Configuration` stores every structure kind —
        :class:`~repro.sqlengine.index.IndexDef` and
        :class:`~repro.sqlengine.views.ViewDef`, at any compression
        level — in one frozenset, so equality/hashing (and therefore
        every cost-cache key built from a configuration) covers them
        all. Cost paths read this alias so the intent survives the
        next structure kind.
        """
        return self._indexes

    def __iter__(self) -> Iterator[IndexDef]:
        return iter(sorted(self._indexes, key=structure_sort_key))

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, definition: IndexDef) -> bool:
        return definition in self._indexes

    def union(self, other: "Configuration") -> "Configuration":
        return Configuration(self._indexes | other._indexes)

    def with_structure(self, definition) -> "Configuration":
        """This configuration plus one structure (any kind)."""
        return Configuration(self._indexes | {definition})

    def without_structure(self, definition) -> "Configuration":
        """This configuration minus one structure (any kind)."""
        return Configuration(self._indexes - {definition})

    #: Historical, index-named spellings of
    #: :meth:`with_structure`/:meth:`without_structure`. They always
    #: accepted any structure kind; the neutral names are preferred.
    with_index = with_structure
    without_index = without_structure

    def added(self, other: "Configuration") -> FrozenSet[IndexDef]:
        """Structures present here but not in ``other``."""
        return self._indexes - other._indexes

    def dropped(self, other: "Configuration") -> FrozenSet[IndexDef]:
        """Structures present in ``other`` but not here."""
        return other._indexes - self._indexes

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Configuration) and
                other._indexes == self._indexes)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._indexes)
        return value

    def __lt__(self, other: "Configuration") -> bool:
        return sorted(self._indexes, key=structure_sort_key) < \
            sorted(other._indexes, key=structure_sort_key)

    # -- display -----------------------------------------------------------

    @property
    def label(self) -> str:
        value = self._label
        if value is None:
            value = self._label = "{" + ", ".join(
                d.label for d in sorted(self._indexes,
                                        key=structure_sort_key)) + "}"
        return value

    def __repr__(self) -> str:
        return f"Configuration({self.label})"

    def __str__(self) -> str:
        return self.label


#: The empty configuration (the paper's usual C0).
EMPTY_CONFIGURATION = Configuration()


def compressed_variants(
        candidates: Iterable,
        levels: Sequence[Compression] = (Compression.NONE,
                                         Compression.LIGHT,
                                         Compression.HEAVY)
        ) -> Tuple:
    """Expand base candidates along the compression axis.

    Every candidate structure is re-issued at each requested level
    (via its ``with_compression``), deduplicated, and returned in
    :func:`~repro.sqlengine.index.structure_sort_key` order. With
    ``levels=(NONE,)`` this is an order-normalizing identity, so
    pre-compression candidate lists round-trip unchanged.
    """
    variants = {definition.with_compression(level)
                for definition in candidates for level in levels}
    return tuple(sorted(variants, key=structure_sort_key))


def single_index_configurations(
        candidates: Iterable[IndexDef],
        include_empty: bool = True) -> Tuple[Configuration, ...]:
    """The paper's experimental design space: at most one index."""
    configs = [Configuration({d})
               for d in sorted(set(candidates),
                               key=structure_sort_key)]
    if include_empty:
        configs.insert(0, EMPTY_CONFIGURATION)
    return tuple(configs)
