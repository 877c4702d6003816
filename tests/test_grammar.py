import pytest

from dmmopt.dmm_space import HwParams
from dmmopt.ge import decode
from dmmopt.grammar import (
    GrammarError,
    generate_grammar,
    load_default_grammar,
    parse_grammar,
    size_bands,
)
from dmmopt.trace import TraceStats, WorkloadSpec, synth_workload, trace_stats

HW = HwParams(memory_size=2**24)


def stats_for(sizes: tuple[int, ...]) -> TraceStats:
    return TraceStats(distinct_sizes=sizes, max_live_bytes=sum(sizes), event_count=2 * len(sizes),
                      alloc_count=len(sizes))


class TestParseGrammar:
    def test_alternative_indices_follow_source_order(self):
        g = parse_grammar("<H> ::= EmptyHeader | SizeHeader\n")
        alts = g.productions["<H>"]
        assert len(alts) == 2
        assert alts[0][0].text == "EmptyHeader"
        assert alts[1][0].text == "SizeHeader"

    def test_undefined_nonterminal_is_an_error(self):
        with pytest.raises(GrammarError, match="undefined nonterminal"):
            parse_grammar("<S> ::= <T>\n")

    def test_empty_alternative_is_an_error(self):
        with pytest.raises(GrammarError, match="empty alternative"):
            parse_grammar("<S> ::= a | | b\n")

    def test_duplicate_rule_is_an_error(self):
        with pytest.raises(GrammarError, match="duplicate"):
            parse_grammar("<S> ::= a\n<S> ::= b\n")

    def test_no_rules_is_an_error(self):
        with pytest.raises(GrammarError):
            parse_grammar("# nothing here\n")

    def test_terminal_text_between_nonterminals_is_preserved(self):
        g = parse_grammar("<S> ::= f(<A>, <A>)\n<A> ::= x\n")
        symbols = [s.text for s in g.productions["<S>"][0]]
        assert symbols == ["f(", "<A>", ", ", "<A>", ")"]

    def test_indices_stable_under_whitespace_and_comments(self):
        a = parse_grammar("<S> ::= alpha | beta | gamma\n")
        b = parse_grammar("# comment\n<S>   ::=   alpha |    beta | gamma   \n\n")
        assert a.productions["<S>"] == b.productions["<S>"]


class TestDefaultGrammar:
    def test_structure_matches_the_decoding_contract(self):
        g = load_default_grammar()
        assert g.start == "<CustomDMM>"
        assert len(g.productions["<CustomDMM>"]) == 1
        assert len(g.productions["<DataStructure>"]) == 2
        assert len(g.productions["<Header>"]) == 3
        assert len(g.productions["<Selector>"]) == 3
        assert len(g.productions["<Migration>"]) == 4
        assert len(g.productions["<NextADM>"]) == 2

    def test_all_five_data_structures_are_reachable(self):
        g = load_default_grammar()
        tokens = set()
        for alt in g.productions["<DataStructure>"] + g.productions["<AltDataStructure>"]:
            first = alt[0]
            if not first.is_nonterminal:
                tokens.add(first.text.rstrip("("))
        assert tokens == {"FirstFitSLL", "BestFitSLL", "FirstFitDLL", "BestFitDLL", "ExactFitSLL"}


class TestSizeBands:
    def test_singleton(self):
        assert size_bands((32,)) == [(32, 32)]

    def test_gap_splits_bands(self):
        assert size_bands((32, 756, 800, 1024, 8192, 151552)) == [
            (32, 32),
            (756, 1024),
            (8192, 8192),
            (151552, 151552),
        ]


class TestGenerateGrammar:
    def test_single_size_gets_point_selector_and_catch_all(self):
        text = generate_grammar(stats_for((32,)), HW)
        g = parse_grammar(text)
        selectors = ["".join(s.text for s in alt) for alt in g.productions["<Selector>"]]
        assert "SizeSelector(32)" in selectors
        assert "TrueSelector" in selectors

    def test_four_band_trace_covers_all_bands(self):
        sizes = (32, 756, 800, 1024, 8192, 151552)
        text = generate_grammar(stats_for(sizes), HW)
        g = parse_grammar(text)
        selectors = ["".join(s.text for s in alt) for alt in g.productions["<Selector>"]]
        assert "SizeSelector(32)" in selectors
        assert "RangeSelector(756, 1024)" in selectors
        assert "SizeSelector(8192)" in selectors
        assert "SizeSelector(151552)" in selectors

    def test_heap_limit_comes_from_hardware(self):
        text = generate_grammar(stats_for((40,)), HW)
        assert f"OperatingSystem({HW.memory_size})" in text

    def test_many_sizes_fall_back_to_power_of_two_covers(self):
        sizes = tuple(range(8, 8 + 8 * 40, 8))  # 40 distinct sizes
        text = generate_grammar(stats_for(sizes), HW)
        g = parse_grammar(text)
        assert len(g.productions["<Selector>"]) <= 16

    def test_generated_grammar_parses_and_derives_a_dmm(self):
        trace = synth_workload(WorkloadSpec(events=400, live_cap=12, sizes=(32, 8192), seed=3))
        text = generate_grammar(trace_stats(trace), HW)
        g = parse_grammar(text)
        # zeros pick the first alternative everywhere: one ADM then the OS
        cfg = decode([0] * 8, g, max_wraps=2)
        assert cfg is not None
        assert cfg.backstop.heap_limit == HW.memory_size

    def test_every_rule_but_the_filled_ones_comes_from_the_template(self):
        template = load_default_grammar().productions
        g = parse_grammar(generate_grammar(stats_for((32, 756, 800, 8192)), HW)).productions
        assert list(g) == list(template)
        filled = ("<Selector>", "<Migration>", "<NextADM>")
        assert {k: v for k, v in g.items() if k not in filled} == {
            k: v for k, v in template.items() if k not in filled
        }
        next_adm = [[s.text for s in alt] for alt in g["<NextADM>"]]
        assert next_adm == [[f"OperatingSystem({HW.memory_size})"], ["<CustomDMM>"]]

    def test_empty_stats_rejected(self):
        with pytest.raises(GrammarError):
            generate_grammar(
                TraceStats(distinct_sizes=(), max_live_bytes=0, event_count=0, alloc_count=0), HW
            )
