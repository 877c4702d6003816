"""BNF grammars: parsing into indexed production groups, and generation
of a trace-customized grammar.

Rules are written one per line as ``<Name> ::= alt | alt | ...``. A
symbol of the form ``<Name>`` is a nonterminal; everything between
nonterminals is literal terminal text (spaces included). The position
of an alternative within its group is semantic: genotype decoding
selects alternative ``codon mod group_size``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .dmm_space import HwParams, One, SizeRange, migration_token, selector_token
from .trace import TraceStats

_NONTERMINAL_RE = re.compile(r"<[A-Za-z_][A-Za-z0-9_]*>")


class GrammarError(ValueError):
    pass


@dataclass(frozen=True)
class Symbol:
    text: str
    is_nonterminal: bool

    def __repr__(self) -> str:
        return self.text if self.is_nonterminal else repr(self.text)


Alternative = tuple[Symbol, ...]


@dataclass(frozen=True)
class Grammar:
    start: str
    productions: dict[str, tuple[Alternative, ...]]


def _split_alternative(text: str) -> Alternative:
    symbols: list[Symbol] = []
    pos = 0
    for m in _NONTERMINAL_RE.finditer(text):
        if m.start() > pos:
            symbols.append(Symbol(text[pos : m.start()], False))
        symbols.append(Symbol(m.group(), True))
        pos = m.end()
    if pos < len(text):
        symbols.append(Symbol(text[pos:], False))
    return tuple(symbols)


def parse_grammar(text: str | bytes) -> Grammar:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    productions: dict[str, tuple[Alternative, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "::=" not in line:
            raise GrammarError(f"line {lineno}: expected '<Name> ::= ...', got {raw!r}")
        head, body = line.split("::=", 1)
        head = head.strip()
        if not _NONTERMINAL_RE.fullmatch(head):
            raise GrammarError(f"line {lineno}: bad rule head {head!r}")
        if head in productions:
            raise GrammarError(f"line {lineno}: duplicate rule for {head}")
        alternatives = []
        for alt_text in body.split("|"):
            alt = _split_alternative(alt_text.strip())
            if not alt:
                raise GrammarError(f"line {lineno}: empty alternative in {head}")
            alternatives.append(alt)
        productions[head] = tuple(alternatives)
    if not productions:
        raise GrammarError("grammar has no rules")
    for head, alternatives in productions.items():
        for alt in alternatives:
            for sym in alt:
                if sym.is_nonterminal and sym.text not in productions:
                    raise GrammarError(f"undefined nonterminal {sym.text} referenced by {head}")
    start = next(iter(productions))
    return Grammar(start=start, productions=productions)


def load_default_grammar_text() -> str:
    return resources.files("dmmopt.data").joinpath("default.bnf").read_text("utf-8")


def load_default_grammar() -> Grammar:
    return parse_grammar(load_default_grammar_text())


MAX_POINT_SELECTORS = 12  # more distinct sizes than this: use their power-of-two covers
GAP_FACTOR = 2.0


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def size_bands(sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    """Cluster sorted sizes into bands; a gap above GAP_FACTOR x starts a new band."""
    bands: list[tuple[int, int]] = []
    lo = hi = sizes[0]
    for size in sizes[1:]:
        if size <= hi * GAP_FACTOR:
            hi = size
        else:
            bands.append((lo, hi))
            lo = hi = size
    bands.append((lo, hi))
    return bands


def generate_grammar(stats: TraceStats, hw: HwParams) -> str:
    """Emit every rule of the template grammar (`data/default.bnf`), with
    ``<Selector>`` and ``<Migration>`` filled in from a trace and the heap
    limit of ``OperatingSystem`` from the target memory size.

    The selectors are one per observed size band (a point selector for a
    single-size band, a range selector otherwise), the covering powers of
    two, the whole size range and TrueSelector; migration adds one
    split-and-coalesce alternative to them."""
    if not stats.distinct_sizes:
        raise GrammarError("cannot generate a grammar from an empty trace")
    sizes = stats.distinct_sizes
    if len(sizes) > MAX_POINT_SELECTORS:
        sizes = tuple(sorted({_next_pow2(s) for s in sizes}))
    served = [One(lo) if lo == hi else SizeRange(lo, hi) for lo, hi in size_bands(sizes)]
    served += [One(c) for c in sorted({_next_pow2(s) for s in sizes}) if One(c) not in served]
    served += [SizeRange(stats.min_size, stats.max_size), None]  # None: TrueSelector
    selectors = [selector_token(s) for s in served]
    flexible = migration_token(None, min(stats.min_size, 8), stats.max_size)
    filled = {"<Selector>": selectors, "<Migration>": selectors + [flexible]}
    backstop = f"OperatingSystem({hw.memory_size})"

    lines = [
        "# Grammar generated from trace statistics; see dmmopt gen-grammar.",
        f"# distinct sizes: {len(stats.distinct_sizes)}, "
        f"range [{stats.min_size}, {stats.max_size}], "
        f"max live {stats.max_live_bytes} B",
    ]
    for line in load_default_grammar_text().splitlines():
        if not line.startswith("<"):
            continue  # a comment or a blank line
        head, body = line.split(" ::= ", 1)
        body = " | ".join(filled[head]) if head in filled else body.replace("OperatingSystem", backstop)
        lines.append(f"{head} ::= {body}")
    return "".join(line + "\n" for line in lines)
