"""Grammatical evolution over DMM grammars.

A genotype is a variable-length sequence of 8-bit codons. Decoding
performs a leftmost derivation from the grammar's start symbol: every
nonterminal expansion consumes one codon and picks the alternative
``codon mod group_size``. When the genome runs out the read head wraps
to the first codon, at most `MAX_WRAPS` times; an individual still
holding nonterminals after the wrap budget is invalid and receives the
worst possible fitness. Unread trailing codons never affect the
phenotype. The engine decodes and validates each new genotype once,
when it prepares a generation, and scores the invalid ones there; only
legal configurations reach the simulator. :func:`evaluate` returns a
fitness and changes nothing; the engine is the only writer of an
individual's fitness, whether it was computed inline or on a worker.
The engine writes each individual's fitness once and never changes a
scored individual again, so elites and the best-so-far are shared, not
copied. `Individual.invalid` is derived, not stored: the individual
was scored but has no phenotype.

Selection is a tournament of `TOURNAMENT_SIZE`, variation is
single-point crossover with independent cut points plus per-codon
mutation, and the best `ELITISM_COUNT` individuals survive unchanged.
Initial genomes hold `INIT_LEN_MIN`..`INIT_LEN_MAX` codons. All
randomness flows from one seeded generator so runs are reproducible;
fitness evaluation never touches it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .dmm_space import DmmConfig, DmmTextError, HwParams, parse_dmm, validate
from .grammar import Grammar, Symbol
from .simulator import FitnessWeights, default_weights, fitness, simulate
from .trace import Trace

WORST_FITNESS = math.inf
MAX_WRAPS = 3
TOURNAMENT_SIZE = 3
ELITISM_COUNT = 1
INIT_LEN_MIN, INIT_LEN_MAX = 20, 60  # codons in an initial genome

Genotype = list[int]


@dataclass
class Individual:
    genotype: Genotype
    phenotype: DmmConfig | None = None
    fitness: float | None = None

    @property
    def invalid(self) -> bool:
        """Scored without a phenotype: the genotype did not map."""
        return self.fitness is not None and self.phenotype is None

    @property
    def adm_count(self) -> int:
        """ADMs in the phenotype (0 without one); the log's `best_adm_count`."""
        return len(self.phenotype.adms) if self.phenotype is not None else 0


@dataclass(frozen=True)
class GeParams:
    population_size: int = 60
    generations: int = 100
    p_crossover: float = 0.80
    p_mutation: float = 0.02
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 <= self.p_crossover <= 1 and 0 <= self.p_mutation <= 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 2")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")


@dataclass(frozen=True)
class Derivation:
    """Outcome of mapping a genotype through a grammar."""

    completed: bool
    text: str  # terminal string, or the partial form with <NT>s left in
    rule_indices: tuple[int, ...]
    codons_read: int
    wraps_used: int


def derive(genotype: Genotype, grammar: Grammar, max_wraps: int = MAX_WRAPS) -> Derivation:
    """Leftmost derivation with modulus rule and bounded wrapping."""
    if not genotype:
        raise ValueError("genotype must hold at least one codon")
    limit = len(genotype) * (max_wraps + 1)
    # stack holds pending symbols, top = leftmost
    stack: list[Symbol] = [Symbol(grammar.start, True)]
    out: list[str] = []
    indices: list[int] = []
    reads = 0
    while stack:
        sym = stack.pop()
        if not sym.is_nonterminal:
            out.append(sym.text)
            continue
        if reads >= limit:
            stack.append(sym)
            partial = "".join(out) + "".join(s.text for s in reversed(stack))
            return Derivation(False, partial, tuple(indices), reads, max_wraps)
        codon = genotype[reads % len(genotype)]
        reads += 1
        group = grammar.productions[sym.text]
        choice = codon % len(group)
        indices.append(choice)
        stack.extend(reversed(group[choice]))
    wraps = (reads - 1) // len(genotype) if reads else 0
    return Derivation(True, "".join(out), tuple(indices), reads, wraps)


def decode(genotype: Genotype, grammar: Grammar, max_wraps: int = MAX_WRAPS) -> DmmConfig | None:
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


def evaluate(ind: Individual, ctx: EvalContext) -> float:
    """Fitness of one pending individual; the individual is not changed.

    The individual must come from :meth:`GeaEngine.prepare_generation`,
    which decodes and validates; an exhausted simulation scores
    WORST_FITNESS.
    """
    return fitness(simulate(ind.phenotype, ctx.trace, ctx.hw), ctx.weights)


LOG_COLUMNS = ("generation", "best_fitness", "mean_fitness", "best_adm_count", "invalid_count")
LOG_HEADER = ",".join(LOG_COLUMNS)


@dataclass
class GenerationRow:
    generation: int
    best_fitness: float
    mean_fitness: float  # over valid (finite-fitness) individuals
    best_adm_count: int
    invalid_count: int
    best_genotype: tuple[int, ...] = ()  # not part of the CSV form

    def csv(self) -> str:
        return ",".join(repr(getattr(self, column)) for column in LOG_COLUMNS)


class GeaEngine:
    """Population state plus the selection/variation step.

    The engine does not simulate: :meth:`prepare_generation` decodes and
    validates every new individual, scores the invalid ones itself and
    returns the indices that still need a simulation. Callers compute
    those fitnesses with :func:`evaluate` however they like (inline or
    on workers) and hand back ``(index, fitness)`` pairs, which
    :meth:`apply_results` records. A cache keyed by genotype holds
    ``(fitness, phenotype)`` and skips re-evaluation of unchanged
    individuals; fitness is a pure function of the genotype, so cached
    values are exact.
    """

    def __init__(self, grammar: Grammar, params: GeParams):
        self.params = params
        self.grammar = grammar
        self.rng = random.Random(params.rng_seed)
        self.generation = 0
        self.population = [self._random_individual() for _ in range(params.population_size)]
        self.log: list[GenerationRow] = []
        self.best: Individual | None = None
        self._cache: dict[tuple[int, ...], tuple[float, DmmConfig | None]] = {}

    def _random_individual(self) -> Individual:
        length = self.rng.randint(INIT_LEN_MIN, INIT_LEN_MAX)
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
                ind.fitness, ind.phenotype = hit
                continue
            ind.phenotype = decode(ind.genotype, self.grammar)
            if ind.phenotype is None or validate(ind.phenotype):
                ind.fitness = WORST_FITNESS
                self._remember(ind)
            else:
                pending.append(i)
        return pending

    def _remember(self, ind: Individual) -> None:
        self._cache[tuple(ind.genotype)] = (ind.fitness, ind.phenotype)

    def apply_results(self, results: list[tuple[int, float]]) -> None:
        """Record the fitness computed for each pending index."""
        for index, value in results:
            ind = self.population[index]
            ind.fitness = value
            self._remember(ind)

    def finish_generation(self) -> GenerationRow:
        pop = self.population
        best_i = min(range(len(pop)), key=lambda i: (pop[i].fitness, i))
        finite = [ind.fitness for ind in pop if ind.fitness != WORST_FITNESS]
        row = GenerationRow(
            generation=self.generation,
            best_fitness=pop[best_i].fitness,
            mean_fitness=sum(finite) / len(finite) if finite else WORST_FITNESS,
            best_adm_count=pop[best_i].adm_count,
            invalid_count=sum(1 for ind in pop if ind.invalid),
            best_genotype=tuple(pop[best_i].genotype),
        )
        self.log.append(row)
        if self.best is None or pop[best_i].fitness < self.best.fitness:
            self.best = pop[best_i]
        return row

    def _tournament(self) -> Individual:
        pop = self.population
        draws = [self.rng.randrange(len(pop)) for _ in range(TOURNAMENT_SIZE)]
        return pop[min(draws, key=lambda i: (pop[i].fitness, i))]

    def step(self) -> None:
        """Produce the next generation: tournament, crossover, mutation, elitism."""
        params = self.params
        pop = self.population
        order = sorted(range(len(pop)), key=lambda i: (pop[i].fitness, i))
        elites = [pop[i] for i in order[:ELITISM_COUNT]]
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
