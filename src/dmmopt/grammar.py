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

from .dmm_space import HwParams
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

    def group(self, nonterminal: str) -> tuple[Alternative, ...]:
        return self.productions[nonterminal]


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


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def size_bands(sizes: tuple[int, ...], gap_factor: float = 2.0) -> list[tuple[int, int]]:
    """Cluster sorted sizes into bands; a gap above `gap_factor`x starts a new band."""
    bands: list[tuple[int, int]] = []
    lo = hi = sizes[0]
    for size in sizes[1:]:
        if size <= hi * gap_factor:
            hi = size
        else:
            bands.append((lo, hi))
            lo = hi = size
    bands.append((lo, hi))
    return bands


def generate_grammar(stats: TraceStats, hw: HwParams, max_point_selectors: int = 12) -> str:
    """Emit the template grammar customized to a trace and target memory.

    Size selectors are instantiated per observed size band (a point
    selector for single-size bands, a range selector otherwise) plus the
    covering powers of two; the heap limit comes from the hardware
    memory size.
    """
    if not stats.distinct_sizes:
        raise GrammarError("cannot generate a grammar from an empty trace")
    sizes = stats.distinct_sizes
    if len(sizes) > max_point_selectors:
        sizes = tuple(sorted({_next_pow2(s) for s in sizes}))
    selectors: list[str] = []
    for lo, hi in size_bands(sizes):
        if lo == hi:
            selectors.append(f"SizeSelector({lo})")
        else:
            selectors.append(f"RangeSelector({lo}, {hi})")
    for cover in sorted({_next_pow2(s) for s in sizes}):
        token = f"SizeSelector({cover})"
        if token not in selectors:
            selectors.append(token)
    selectors.append(f"RangeSelector({stats.min_size}, {stats.max_size})")
    selectors.append("TrueSelector")

    flexible = f"SplitAndCoalesce({min(stats.min_size, 8)}, {stats.max_size})"
    lines = [
        "# Grammar generated from trace statistics; see dmmopt gen-grammar.",
        f"# distinct sizes: {len(stats.distinct_sizes)}, "
        f"range [{stats.min_size}, {stats.max_size}], "
        f"max live {stats.max_live_bytes} B",
        "<CustomDMM> ::= AtomicDMM(<DataStructure>, <Selector>, <Migration>, <NextADM>)",
        "<DataStructure> ::= FirstFitSLL(<Header>) | <AltDataStructure>",
        "<AltDataStructure> ::= BestFitSLL(<Header>) | FirstFitDLL(<Header>) | "
        "BestFitDLL(<Header>) | ExactFitSLL(<Header>)",
        "<Header> ::= EmptyHeader | SizeHeader | SizeStatusHeader",
        f"<Selector> ::= {' | '.join(selectors)}",
        f"<Migration> ::= {' | '.join(selectors)} | {flexible}",
        f"<NextADM> ::= OperatingSystem({hw.memory_size}) | <CustomDMM>",
    ]
    return "".join(line + "\n" for line in lines)
