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
:func:`parse_dmm`.
"""

from __future__ import annotations

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

    NONE = "None"
    HEADER_SIZE = "HeaderSize"
    HEADER_SIZE_STATUS = "HeaderSizeStatus"

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
        if self.energy_per_access <= 0 or self.memory_size <= 0:
            raise ValueError("hardware parameters must be strictly positive")


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

_DS_TOKENS = {
    (AllocationPolicy.FIRST_FIT, DataStructureKind.SINGLY_LINKED): "FirstFitSLL",
    (AllocationPolicy.BEST_FIT, DataStructureKind.SINGLY_LINKED): "BestFitSLL",
    (AllocationPolicy.EXACT_FIT, DataStructureKind.SINGLY_LINKED): "ExactFitSLL",
    (AllocationPolicy.FIRST_FIT, DataStructureKind.DOUBLY_LINKED): "FirstFitDLL",
    (AllocationPolicy.BEST_FIT, DataStructureKind.DOUBLY_LINKED): "BestFitDLL",
    (AllocationPolicy.EXACT_FIT, DataStructureKind.DOUBLY_LINKED): "ExactFitDLL",
}
_DS_FROM_TOKEN = {v: k for k, v in _DS_TOKENS.items()}

_TAG_TOKENS = {
    BlockTags.NONE: "EmptyHeader",
    BlockTags.HEADER_SIZE: "SizeHeader",
    BlockTags.HEADER_SIZE_STATUS: "SizeStatusHeader",
}
_TAG_FROM_TOKEN = {v: k for k, v in _TAG_TOKENS.items()}


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


def serialize_dmm(dmm: DmmConfig) -> str:
    """Human-readable nested expression; inverse of :func:`parse_dmm`."""

    def render(i: int, depth: int) -> str:
        pad = "  " * (depth + 1)
        if i == len(dmm.adms):
            return f"OperatingSystem({dmm.backstop.heap_limit})"
        adm = dmm.adms[i]
        ds = f"{_DS_TOKENS[(adm.allocation_policy, adm.data_structure)]}({_TAG_TOKENS[adm.block_tags]})"
        migration = migration_token(adm.block_sizes, adm.min_result_size, adm.max_result_size)
        parts = [ds, selector_token(adm.block_sizes), migration, render(i + 1, depth + 1)]
        inner = (",\n" + pad).join(parts)
        return f"AtomicDMM(\n{pad}{inner})"

    return render(0, 0) + "\n"


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[(),])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise DmmTextError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
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

    def int_args(self, minimum: int, maximum: int) -> list[int]:
        """Optional parenthesized integer list with the given arity bounds."""
        if self.peek() != "(":
            if minimum > 0:
                raise DmmTextError("expected '(' with arguments")
            return []
        self.take("(")
        args = [int(self.take())]
        while self.peek() == ",":
            self.take(",")
            args.append(int(self.take()))
        self.take(")")
        if not minimum <= len(args) <= maximum:
            raise DmmTextError(f"expected between {minimum} and {maximum} arguments, got {len(args)}")
        return args

    def selector(self) -> BlockSizes | None:
        """None encodes TrueSelector (resolved against the backstop later)."""
        tok = self.take()
        if tok == "SizeSelector":
            args = self.int_args(0, 1)
            return One(args[0] if args else BARE_SIZE_DEFAULT)
        if tok == "RangeSelector":
            args = self.int_args(0, 2)
            if not args:
                return SizeRange(*BARE_RANGE_DEFAULT)
            if len(args) != 2:
                raise DmmTextError("RangeSelector takes two sizes")
            return SizeRange(args[0], args[1])
        if tok == "TrueSelector":
            return None
        raise DmmTextError(f"unknown selector {tok!r}")

    def expression(self) -> tuple[list[dict], OsBackstop]:
        tok = self.take()
        if tok == "OperatingSystem":
            args = self.int_args(0, 1)
            return [], OsBackstop(heap_limit=args[0] if args else DEFAULT_HEAP_LIMIT)
        if tok != "AtomicDMM":
            raise DmmTextError(f"expected AtomicDMM or OperatingSystem, got {tok!r}")
        self.take("(")
        ds_tok = self.take()
        if ds_tok not in _DS_FROM_TOKEN:
            raise DmmTextError(f"unknown data structure {ds_tok!r}")
        self.take("(")
        tag_tok = self.take()
        if tag_tok not in _TAG_FROM_TOKEN:
            raise DmmTextError(f"unknown header {tag_tok!r}")
        self.take(")")
        self.take(",")
        sizes = self.selector()
        self.take(",")
        migration = self.migration()
        self.take(",")
        rest, backstop = self.expression()
        self.take(")")
        policy, structure = _DS_FROM_TOKEN[ds_tok]
        adm = dict(
            data_structure=structure,
            allocation_policy=policy,
            block_tags=_TAG_FROM_TOKEN[tag_tok],
            block_sizes=sizes,
            **migration,
        )
        return [adm] + rest, backstop

    def migration(self) -> dict:
        """SplitOnly(min), CoalesceOnly(max) or SplitAndCoalesce(min, max)."""
        tok = self.peek()
        if tok == "SplitAndCoalesce":
            self.take()
            args = self.int_args(0, 2)
            mn, mx = (args[0], args[1]) if len(args) == 2 else BARE_RANGE_DEFAULT
            return dict(min_result_size=mn, max_result_size=mx)
        if tok == "SplitOnly":
            self.take()
            (mn,) = self.int_args(1, 1)
            return dict(min_result_size=mn)
        if tok == "CoalesceOnly":
            self.take()
            (mx,) = self.int_args(1, 1)
            return dict(max_result_size=mx)
        # A plain selector in the migration slot means no splitting and no
        # coalescing; freed-block routing always follows block_sizes, so its
        # value is read and dropped.
        self.selector()
        return {}


def parse_dmm(text: str) -> DmmConfig:
    """Parse the nested expression form into a configuration.

    Parameterless selectors (template-grammar output) receive documented
    defaults; TrueSelector becomes the full range up to the heap limit.
    """
    parser = _Parser(_tokenize(text))
    raw_adms, backstop = parser.expression()
    if parser.peek() is not None:
        raise DmmTextError(f"trailing tokens after expression: {parser.peek()!r}")
    adms = []
    for raw in raw_adms:
        if raw["block_sizes"] is None:  # TrueSelector catch-all
            raw["block_sizes"] = SizeRange(1, backstop.heap_limit)
        adms.append(AdmConfig(**raw))
    return DmmConfig(adms=tuple(adms), backstop=backstop)
