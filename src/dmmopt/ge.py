"""Grammatical evolution over DMM grammars.

A genotype is a variable-length sequence of 8-bit codons. Decoding
performs a leftmost derivation from the grammar's start symbol: every
nonterminal expansion consumes one codon and picks the alternative
``codon mod group_size``. When the genome runs out the read head wraps
to the first codon, at most `max_wraps` times; an individual still
holding nonterminals after the wrap budget is invalid and receives the
worst possible fitness. Unread trailing codons never affect the
phenotype. The engine decodes and validates each new genotype once,
when it prepares a generation, and scores the invalid ones there; only
legal configurations reach the simulator.

Selection is tournament, variation is single-point crossover with
independent cut points plus per-codon mutation, and the best
`elitism_count` individuals survive unchanged. All randomness flows
from one seeded generator so runs are reproducible; fitness evaluation
never touches it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .dmm_space import DmmConfig, DmmTextError, HwParams, parse_dmm, validate
from .grammar import Grammar
from .simulator import FitnessWeights, default_weights, fitness, simulate
from .trace import Trace

WORST_FITNESS = math.inf

Genotype = list[int]


@dataclass
class Individual:
    genotype: Genotype
    phenotype: DmmConfig | None = None
    invalid: bool = False
    fitness: float | None = None

    @property
    def sim_estimate(self) -> int:
        """Simulation-time estimate used for load balancing: the ADM count."""
        return len(self.phenotype.adms) if self.phenotype is not None else 0

    def copy(self) -> "Individual":
        return Individual(
            genotype=list(self.genotype),
            phenotype=self.phenotype,
            invalid=self.invalid,
            fitness=self.fitness,
        )


@dataclass(frozen=True)
class GeParams:
    population_size: int = 60
    generations: int = 100
    p_crossover: float = 0.80
    p_mutation: float = 0.02
    max_wraps: int = 3
    tournament_size: int = 3
    elitism_count: int = 1
    rng_seed: int = 0
    init_len_min: int = 20
    init_len_max: int = 60

    def __post_init__(self):
        if not (0 <= self.p_crossover <= 1 and 0 <= self.p_mutation <= 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 2")
        if not 1 <= self.init_len_min <= self.init_len_max:
            raise ValueError("bad initial genome length range")
        if self.tournament_size < 1 or self.elitism_count < 0:
            raise ValueError("bad selection parameters")


@dataclass(frozen=True)
class Derivation:
    """Outcome of mapping a genotype through a grammar."""

    completed: bool
    text: str  # terminal string, or the partial form with <NT>s left in
    rule_indices: tuple[int, ...]
    codons_read: int
    wraps_used: int


def derive(genotype: Genotype, grammar: Grammar, max_wraps: int = 3) -> Derivation:
    """Leftmost derivation with modulus rule and bounded wrapping."""
    if not genotype:
        raise ValueError("genotype must hold at least one codon")
    limit = len(genotype) * (max_wraps + 1)
    # stack holds pending symbols, top = leftmost
    stack: list[tuple[str, str]] = [("NT", grammar.start)]
    out: list[str] = []
    indices: list[int] = []
    reads = 0
    while stack:
        kind, text = stack.pop()
        if kind == "T":
            out.append(text)
            continue
        if reads >= limit:
            stack.append((kind, text))
            partial = "".join(out) + "".join(sym for _, sym in reversed(stack))
            return Derivation(False, partial, tuple(indices), reads, max_wraps)
        codon = genotype[reads % len(genotype)]
        reads += 1
        group = grammar.productions[text]
        choice = codon % len(group)
        indices.append(choice)
        for sym in reversed(group[choice]):
            stack.append(("NT" if sym.is_nonterminal else "T", sym.text))
    wraps = (reads - 1) // len(genotype) if reads else 0
    return Derivation(True, "".join(out), tuple(indices), reads, wraps)


def decode(genotype: Genotype, grammar: Grammar, max_wraps: int = 3) -> DmmConfig | None:
    """Map a genotype to a configuration; None marks an invalid individual."""
    result = derive(genotype, grammar, max_wraps)
    if not result.completed:
        return None
    try:
        return parse_dmm(result.text)
    except DmmTextError as exc:  # only reachable with a non-DMM grammar
        raise ValueError(f"grammar derived a non-DMM expression: {result.text!r}") from exc


def crossover(
    a: Genotype, b: Genotype, rng: random.Random, p_crossover: float = 1.0
) -> tuple[Genotype, Genotype]:
    """Single-point crossover with an independent cut point in each parent.

    Cut point j keeps the first j codons (1 <= j <= len), so children are
    never empty and total codon count is conserved.
    """
    if rng.random() >= p_crossover:
        return list(a), list(b)
    cut_a = rng.randint(1, len(a))
    cut_b = rng.randint(1, len(b))
    return a[:cut_a] + b[cut_b:], b[:cut_b] + a[cut_a:]


def mutate(genotype: Genotype, p_mutation: float, rng: random.Random) -> Genotype:
    """Each codon independently resampled uniformly with probability p."""
    return [rng.randrange(256) if rng.random() < p_mutation else c for c in genotype]


@dataclass(frozen=True)
class EvalContext:
    trace: Trace
    hw: HwParams
    weights: FitnessWeights


def evaluate(ind: Individual, ctx: EvalContext) -> Individual:
    """Simulate and score one pending individual.

    The individual must come from :meth:`GeaEngine.prepare_generation`,
    which decodes and validates; an exhausted simulation scores
    WORST_FITNESS.
    """
    if ind.fitness is None:
        metrics = simulate(ind.phenotype, ctx.trace, ctx.hw)
        ind.fitness = fitness(metrics, ctx.weights)
    return ind


@dataclass
class GenerationRow:
    generation: int
    best_fitness: float
    mean_fitness: float  # over valid (finite-fitness) individuals
    best_adm_count: int
    invalid_count: int
    best_genotype: tuple[int, ...] = ()  # not part of the CSV form

    def csv(self) -> str:
        return (
            f"{self.generation},{self.best_fitness!r},{self.mean_fitness!r},"
            f"{self.best_adm_count},{self.invalid_count}"
        )


LOG_HEADER = "generation,best_fitness,mean_fitness,best_adm_count,invalid_count"


class GeaEngine:
    """Population state plus the selection/variation step.

    The engine does not simulate: :meth:`prepare_generation` decodes and
    validates every new individual, scores the invalid ones itself and
    returns the indices that still need a simulation. Callers score
    those with :func:`evaluate` however they like (inline or on workers)
    and hand the results back. A cache keyed by genotype skips
    re-evaluation of unchanged individuals; fitness is a pure function
    of the genotype, so cached values are exact.
    """

    def __init__(self, grammar: Grammar, params: GeParams):
        self.params = params
        self.grammar = grammar
        self.rng = random.Random(params.rng_seed)
        self.generation = 0
        self.population = [self._random_individual() for _ in range(params.population_size)]
        self.log: list[GenerationRow] = []
        self.best: Individual | None = None
        self._cache: dict[tuple[int, ...], tuple[float, DmmConfig | None, bool]] = {}

    def _random_individual(self) -> Individual:
        length = self.rng.randint(self.params.init_len_min, self.params.init_len_max)
        return Individual([self.rng.randrange(256) for _ in range(length)])

    def prepare_generation(self) -> list[int]:
        """Decode everyone; return indices still needing a simulation."""
        pending: list[int] = []
        for i, ind in enumerate(self.population):
            if ind.fitness is not None:
                continue
            key = tuple(ind.genotype)
            hit = self._cache.get(key)
            if hit is not None:
                ind.fitness, ind.phenotype, ind.invalid = hit
                continue
            ind.phenotype = decode(ind.genotype, self.grammar, self.params.max_wraps)
            ind.invalid = ind.phenotype is None
            if ind.invalid or validate(ind.phenotype):
                ind.fitness = WORST_FITNESS
                self._remember(ind)
            else:
                pending.append(i)
        return pending

    def _remember(self, ind: Individual) -> None:
        self._cache[tuple(ind.genotype)] = (ind.fitness, ind.phenotype, ind.invalid)

    def apply_results(self, results: list[tuple[int, Individual]]) -> None:
        for index, ind in results:
            self.population[index] = ind
            self._remember(ind)

    def finish_generation(self) -> GenerationRow:
        pop = self.population
        best_i = min(range(len(pop)), key=lambda i: (pop[i].fitness, i))
        finite = [ind.fitness for ind in pop if ind.fitness != WORST_FITNESS]
        row = GenerationRow(
            generation=self.generation,
            best_fitness=pop[best_i].fitness,
            mean_fitness=sum(finite) / len(finite) if finite else WORST_FITNESS,
            best_adm_count=pop[best_i].sim_estimate,
            invalid_count=sum(1 for ind in pop if ind.invalid),
            best_genotype=tuple(pop[best_i].genotype),
        )
        self.log.append(row)
        if self.best is None or pop[best_i].fitness < self.best.fitness:
            self.best = pop[best_i].copy()
        return row

    def _tournament(self) -> Individual:
        pop = self.population
        draws = [self.rng.randrange(len(pop)) for _ in range(self.params.tournament_size)]
        return pop[min(draws, key=lambda i: (pop[i].fitness, i))]

    def step(self) -> None:
        """Produce the next generation: tournament, crossover, mutation, elitism."""
        params = self.params
        pop = self.population
        order = sorted(range(len(pop)), key=lambda i: (pop[i].fitness, i))
        # elites keep their population order so full elitism is the identity
        elites = [pop[i].copy() for i in sorted(order[: params.elitism_count])]
        needed = params.population_size - len(elites)
        children: list[Individual] = []
        while len(children) < needed:
            parent_a = self._tournament()
            parent_b = self._tournament()
            child_a, child_b = crossover(
                parent_a.genotype, parent_b.genotype, self.rng, params.p_crossover
            )
            children.append(Individual(mutate(child_a, params.p_mutation, self.rng)))
            if len(children) < needed:
                children.append(Individual(mutate(child_b, params.p_mutation, self.rng)))
        self.population = elites + children
        self.generation += 1

    def advance(self) -> bool:
        """Step into the next generation; False once the budget is spent."""
        if self.generation >= self.params.generations:
            return False
        self.step()
        return True


def make_context(
    trace: Trace, hw: HwParams, weights: FitnessWeights | None = None
) -> EvalContext:
    if weights is None:
        weights = default_weights(trace, hw)
    return EvalContext(trace=trace, hw=hw, weights=weights)


def run_sequential(
    grammar: Grammar,
    trace: Trace,
    hw: HwParams,
    params: GeParams,
    weights: FitnessWeights | None = None,
) -> tuple[Individual, list[GenerationRow]]:
    """Run the generational loop in-process; returns best and the log."""
    ctx = make_context(trace, hw, weights)
    engine = GeaEngine(grammar, params)
    while True:
        for i in engine.prepare_generation():
            engine.apply_results([(i, evaluate(engine.population[i], ctx))])
        engine.finish_generation()
        if not engine.advance():
            break
    return engine.best, engine.log
