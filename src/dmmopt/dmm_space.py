"""Configuration space of dynamic memory managers.

A DMM is an ordered chain of atomic managers (ADMs) in front of an OS
backstop. Each ADM fixes one choice in every decision category: the
free-block data structure, the block sizes it serves, the per-block
header fields, the allocation policy, and whether blocks may be split
or coalesced. That last choice is two optional sizes: a manager with a
``min_result_size`` splits a block when the remainder would hold at
least that many payload bytes, and one with a ``max_result_size``
merges freed neighbours up to that many payload bytes; ``None`` means
never. Interdependencies between categories (a single fixed block size
cannot be split, coalescing needs status headers, ...) are enforced by
:func:`validate`.

Configurations are immutable values. The text form is the nested
``AtomicDMM(DataStructure(Header), Selector, Migration, Next)``
expression produced by :func:`serialize_dmm` and read back by
:func:`parse_dmm`; the enum values below are its tokens.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

DEFAULT_HEAP_LIMIT = 2**30
CHUNK_GRANULARITY = 8  # the OS and range managers align payloads to this many bytes
# Defaults used for parameterless selector tokens in template grammars.
BARE_SIZE_DEFAULT = 8
BARE_RANGE_DEFAULT = (8, 128 * 1024)

BACKSTOP_HEADER_BYTES = 8  # blocks granted directly by the OS carry a size field


class DataStructureKind(Enum):
    SINGLY_LINKED = "SLL"
    DOUBLY_LINKED = "DLL"


class BlockTags(Enum):
    """Extra per-block fields and what they record."""

    NONE = "EmptyHeader"
    HEADER_SIZE = "SizeHeader"
    HEADER_SIZE_STATUS = "SizeStatusHeader"

    @property
    def header_bytes(self) -> int:
        return _HEADER_BYTES[self]


_HEADER_BYTES = {
    BlockTags.NONE: 0,
    BlockTags.HEADER_SIZE: 8,
    BlockTags.HEADER_SIZE_STATUS: 12,
}


class AllocationPolicy(Enum):
    FIRST_FIT = "FirstFit"
    BEST_FIT = "BestFit"
    EXACT_FIT = "ExactFit"


@dataclass(frozen=True)
class One:
    """A single fixed block size in bytes; serves any request <= size."""

    size: int


@dataclass(frozen=True)
class SizeRange:
    """Inclusive range of request sizes served."""

    lo: int
    hi: int


BlockSizes = One | SizeRange


@dataclass(frozen=True)
class AdmConfig:
    data_structure: DataStructureKind
    block_sizes: BlockSizes
    block_tags: BlockTags
    allocation_policy: AllocationPolicy
    min_result_size: int | None = None  # split; None: never
    max_result_size: int | None = None  # coalesce; None: never


@dataclass(frozen=True)
class OsBackstop:
    heap_limit: int = DEFAULT_HEAP_LIMIT


@dataclass(frozen=True)
class HwParams:
    energy_per_access: float = 1e-9
    memory_size: int = DEFAULT_HEAP_LIMIT

    def __post_init__(self):
        for name in ("energy_per_access", "memory_size"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class DmmConfig:
    """Chain of ADMs, dispatched in order, with the OS as final fallback."""

    adms: tuple[AdmConfig, ...]
    backstop: OsBackstop = OsBackstop()


def validate(dmm: DmmConfig) -> list[str]:
    """Return all constraint violations (empty list means legal)."""
    violations: list[str] = []
    for i, adm in enumerate(dmm.adms):
        tag = f"adm[{i}]"
        bs = adm.block_sizes
        mn, mx = adm.min_result_size, adm.max_result_size
        flexible = mn is not None or mx is not None
        if isinstance(bs, One):
            if bs.size < 1:
                violations.append(f"{tag}: block size {bs.size} below 1 byte")
            if flexible:
                violations.append(f"{tag}: One block size cannot be split or coalesced")
        else:
            if bs.lo < 1 or bs.hi < bs.lo:
                violations.append(f"{tag}: bad size range [{bs.lo}, {bs.hi}]")
            if adm.block_tags is BlockTags.NONE:
                violations.append(f"{tag}: several block sizes need an in-block size field")
        if mx is not None and adm.block_tags is not BlockTags.HEADER_SIZE_STATUS:
            violations.append(f"{tag}: coalescing needs size+status block tags")
        if mn is not None and mn < 1:
            violations.append(f"{tag}: splitting needs min_result_size >= 1")
        if mx is not None and mx < 1:
            violations.append(f"{tag}: coalescing needs max_result_size >= 1")
        if mn is not None and mx is not None and mn > mx:
            violations.append(f"{tag}: min_result_size {mn} exceeds max_result_size {mx}")
    if dmm.backstop.heap_limit < 1:
        violations.append("backstop heap limit must be >= 1 byte")
    return violations


def kingsley_config(*, heap_limit: int = DEFAULT_HEAP_LIMIT) -> DmmConfig:
    """Segregated power-of-two free lists: One(2^k) for k = 3..32.

    Requests round up to the next power of two by first-match dispatch
    over the ascending size classes; no splitting or coalescing.
    """
    adms = tuple(
        AdmConfig(
            data_structure=DataStructureKind.SINGLY_LINKED,
            block_sizes=One(2**k),
            block_tags=BlockTags.HEADER_SIZE,
            allocation_policy=AllocationPolicy.FIRST_FIT,
        )
        for k in range(3, 33)
    )
    return DmmConfig(adms=adms, backstop=OsBackstop(heap_limit=heap_limit))


def lea_config(*, heap_limit: int = DEFAULT_HEAP_LIMIT) -> DmmConfig:
    """Size-class exact fit for small blocks, coalescing best fit for medium.

    One exact-fit list per multiple of 8 up to 64 bytes, then a
    [64, 128K] best-fit region with immediate splitting and coalescing;
    anything larger goes straight to the OS.
    """
    small = tuple(
        AdmConfig(
            data_structure=DataStructureKind.SINGLY_LINKED,
            block_sizes=One(size),
            block_tags=BlockTags.HEADER_SIZE,
            allocation_policy=AllocationPolicy.EXACT_FIT,
        )
        for size in range(8, 65, 8)
    )
    medium = AdmConfig(
        data_structure=DataStructureKind.DOUBLY_LINKED,
        block_sizes=SizeRange(64, 128 * 1024),
        block_tags=BlockTags.HEADER_SIZE_STATUS,
        allocation_policy=AllocationPolicy.BEST_FIT,
        min_result_size=8,
        max_result_size=128 * 1024,
    )
    return DmmConfig(adms=small + (medium,), backstop=OsBackstop(heap_limit=heap_limit))


# --- nested-expression text form ------------------------------------------

# The enum values are the tokens: a data structure is written as policy
# then structure (``FirstFit`` + ``SLL``), a header as its BlockTags value.
_DATA_STRUCTURES = {p.value + s.value: (p, s) for p in AllocationPolicy for s in DataStructureKind}
_HEADERS = {tags.value: tags for tags in BlockTags}


class DmmTextError(ValueError):
    """Unparseable DMM expression text."""


def selector_token(sizes: BlockSizes | None) -> str:
    """Text of a selector; None is TrueSelector, as in the parser."""
    if sizes is None:
        return "TrueSelector"
    if isinstance(sizes, One):
        return f"SizeSelector({sizes.size})"
    return f"RangeSelector({sizes.lo}, {sizes.hi})"


def migration_token(sizes: BlockSizes | None, mn: int | None = None, mx: int | None = None) -> str:
    """Text of the migration slot: the min (`mn`) and max (`mx`) result
    sizes, or the selector of `sizes` when the manager neither splits
    nor coalesces."""
    if mn is None and mx is None:
        return selector_token(sizes)
    if mx is None:
        return f"SplitOnly({mn})"
    if mn is None:
        return f"CoalesceOnly({mx})"
    return f"SplitAndCoalesce({mn}, {mx})"


def backstop_token(heap_limit: int) -> str:
    """Text of the OS backstop that ends every chain."""
    return f"OperatingSystem({heap_limit})"


def serialize_dmm(dmm: DmmConfig) -> str:
    """Human-readable nested expression; inverse of :func:`parse_dmm`."""
    parts = []
    for depth, adm in enumerate(dmm.adms, start=1):
        pad = "  " * depth
        slots = (
            f"{adm.allocation_policy.value}{adm.data_structure.value}({adm.block_tags.value})",
            selector_token(adm.block_sizes),
            migration_token(adm.block_sizes, adm.min_result_size, adm.max_result_size),
        )
        parts.append("AtomicDMM(\n" + "".join(f"{pad}{slot},\n" for slot in slots) + pad)
    # every ADM's closing parenthesis follows the backstop
    parts.append(backstop_token(dmm.backstop.heap_limit) + ")" * len(dmm.adms) + "\n")
    return "".join(parts)


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|\d+|[(),])|(\S))")  # (token, stray character)


def _tokenize(text: str) -> list[str]:
    tokens = []
    for token, stray in _TOKEN_RE.findall(text):
        if stray:
            raise DmmTextError(f"unexpected character {stray!r}")
        tokens.append(token)
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.tokens):
            raise DmmTextError(f"unexpected end of expression (wanted {expected or 'a token'})")
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise DmmTextError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def lookup(self, table: dict, what: str):
        tok = self.take()
        if tok not in table:
            raise DmmTextError(f"unknown {what} {tok!r}")
        return table[tok]

    def int_arg(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise DmmTextError(f"expected an integer argument, got {tok!r}")
        return int(tok)

    def int_args(self, minimum: int, maximum: int) -> list[int]:
        """Optional parenthesized integer list with the given arity bounds."""
        if self.peek() != "(":
            if minimum > 0:
                raise DmmTextError("expected '(' with arguments")
            return []
        self.take("(")
        args = [self.int_arg()]
        while self.peek() == ",":
            self.take(",")
            args.append(self.int_arg())
        self.take(")")
        if not minimum <= len(args) <= maximum:
            raise DmmTextError(f"expected between {minimum} and {maximum} arguments, got {len(args)}")
        return args

    def size_pair(self, name: str) -> tuple[int, int]:
        """Two sizes, or BARE_RANGE_DEFAULT when the token has no arguments."""
        args = self.int_args(0, 2)
        if not args:
            return BARE_RANGE_DEFAULT
        if len(args) != 2:
            raise DmmTextError(f"{name} takes two sizes")
        return args[0], args[1]

    def selector(self) -> BlockSizes | None:
        """None encodes TrueSelector (resolved against the backstop later)."""
        tok = self.take()
        if tok == "SizeSelector":
            args = self.int_args(0, 1)
            return One(args[0] if args else BARE_SIZE_DEFAULT)
        if tok == "RangeSelector":
            return SizeRange(*self.size_pair(tok))
        if tok == "TrueSelector":
            return None
        raise DmmTextError(f"unknown selector {tok!r}")

    def migration(self) -> tuple[int | None, int | None]:
        """SplitOnly(min), CoalesceOnly(max) or SplitAndCoalesce(min, max)."""
        tok = self.peek()
        if tok == "SplitAndCoalesce":
            return self.size_pair(self.take())
        if tok == "SplitOnly":
            self.take()
            return self.int_args(1, 1)[0], None
        if tok == "CoalesceOnly":
            self.take()
            return None, self.int_args(1, 1)[0]
        # A plain selector in the migration slot means no splitting and no
        # coalescing; freed-block routing always follows block_sizes, so its
        # value is read and dropped.
        self.selector()
        return None, None


def parse_dmm(text: str) -> DmmConfig:
    """Parse the nested expression form into a configuration.

    Parameterless selectors (template-grammar output) receive documented
    defaults; TrueSelector becomes the full range up to the heap limit.
    """
    parser = _Parser(_tokenize(text))
    slots = []  # (data structure, header, selector, migration) of each ADM
    while (tok := parser.take()) == "AtomicDMM":
        parser.take("(")
        data_structure = parser.lookup(_DATA_STRUCTURES, "data structure")
        parser.take("(")
        tags = parser.lookup(_HEADERS, "header")
        parser.take(")")
        parser.take(",")
        sizes = parser.selector()
        parser.take(",")
        migration = parser.migration()
        parser.take(",")
        slots.append((data_structure, tags, sizes, migration))
    if tok != "OperatingSystem":
        raise DmmTextError(f"expected AtomicDMM or OperatingSystem, got {tok!r}")
    args = parser.int_args(0, 1)
    backstop = OsBackstop(heap_limit=args[0] if args else DEFAULT_HEAP_LIMIT)
    for _ in slots:
        parser.take(")")
    if parser.peek() is not None:
        raise DmmTextError(f"trailing tokens after expression: {parser.peek()!r}")
    true_range = SizeRange(1, backstop.heap_limit)  # TrueSelector's catch-all
    adms = tuple(
        AdmConfig(structure, true_range if sizes is None else sizes, tags, policy, mn, mx)
        for (policy, structure), tags, sizes, (mn, mx) in slots
    )
    return DmmConfig(adms=adms, backstop=backstop)
