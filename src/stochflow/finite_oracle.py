"""Exact discrete-time, finite-state, finite-noise testbed.

Every quantity here is a ``fractions.Fraction`` and every check is an exact
equality, never a tolerance.  Noise symbols are i.i.d. across time steps, so
past- and future-generated information are independent by construction, and
the one-step kernels compose exactly as matrix products.

Every exact average is one of two sums: ``_mix``, the weighted sum of rows
coordinate by coordinate (kernel rows, kernel products, transported and mean
measures), and ``ExactMeasure.integral``, the integral of a function given
state by state.  Every enumeration passes one limit check, ``_check_words``,
before it builds a word or a map.  The pullback, the martingale check and the
independence scenario read ``map_law``, the law of the maps composed over the
words that end at an anchor; only the scenario's prefixes enumerate words.
The lift composes a word through ``compose_word_map``, which refuses a word
too short for its span.

``FiniteFlowLift`` embeds a finite flow as a flow model.  Its probe states
are every state, so ``esm.pullback_points`` runs its one collapse-and-stop
rule on the lift and stops once the composed map is constant: exact
synchronization, the coalescence that coupling from the past detects.  No
run reads the lift yet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

import numpy as np

from .dyadic import DyadicTime
from .errors import (
    ConfigError,
    EnumerationLimitError,
    MeasurabilityError,
    UnsupportedCaseError,
)
from .flow_core import FlowModelBase
from .keyed import chain, chain_offsets, uniform_from_keys

ENUMERATION_LIMIT = 1 << 16

_TAG_SYMBOL = 0x53594D42

ONE = Fraction(1)
ZERO = Fraction(0)


def _mix(weights, rows) -> tuple:
    """sum_i weights[i] * rows[i], coordinate by coordinate, exactly; refused
    unless there is one weight per row and the rows have one length."""
    if len(weights) != len(rows):
        raise ConfigError(f"{len(weights)} weights for {len(rows)} rows")
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise ConfigError(f"rows of unequal lengths {', '.join(map(str, sorted(lengths)))}")
    return tuple(sum(map(mul, weights, column), ZERO) for column in zip(*rows))


@dataclass(frozen=True)
class FiniteFlow:
    """Finite random dynamical system with time-periodic step maps.

    ``step_maps[k][sigma]`` is the state map applied at times congruent to k
    modulo ``period`` when symbol ``sigma`` is drawn.
    """

    n_states: int
    probs: tuple
    step_maps: tuple
    period: int = 1

    def __post_init__(self):
        if self.n_states < 1:
            raise ConfigError("need at least one state")
        probs = tuple(Fraction(p) for p in self.probs)
        if sum(probs, ZERO) != ONE or any(p < 0 for p in probs):
            raise ConfigError("symbol probabilities must be nonnegative and sum to 1 exactly")
        object.__setattr__(self, "probs", probs)
        if self.period < 1:
            raise ConfigError(f"period {self.period} is below 1")
        if len(self.step_maps) != self.period:
            raise ConfigError("one bank of step maps per time index mod period")
        for bank in self.step_maps:
            if len(bank) != len(probs):
                raise ConfigError("one step map per symbol")
            for m in bank:
                if len(m) != self.n_states or any(not (0 <= y < self.n_states) for y in m):
                    raise ConfigError("step maps must be total on the state set")

    @property
    def n_symbols(self) -> int:
        return len(self.probs)

    def bank(self, time_index: int) -> tuple:
        return self.step_maps[time_index % self.period]


@dataclass(frozen=True)
class ExactMeasure:
    masses: tuple

    def __post_init__(self):
        masses = tuple(Fraction(m) for m in self.masses)
        if any(m < 0 for m in masses):
            raise ConfigError("masses must be nonnegative")
        if sum(masses, ZERO) != ONE:
            raise ConfigError("masses must sum to 1 exactly")
        object.__setattr__(self, "masses", masses)

    @classmethod
    def point(cls, n_states: int, x: int) -> "ExactMeasure":
        return cls(tuple(ONE if i == x else ZERO for i in range(n_states)))

    @classmethod
    def uniform(cls, n_states: int) -> "ExactMeasure":
        return cls((Fraction(1, n_states),) * n_states)

    def pushforward(self, state_map: tuple) -> "ExactMeasure":
        out = [ZERO] * len(self.masses)
        for x, m in enumerate(self.masses):
            out[state_map[x]] += m
        return ExactMeasure(tuple(out))

    def _per_state(self, values) -> tuple:
        """``values`` as a tuple, refused unless it has one value per state."""
        values = tuple(values)
        if len(values) != len(self.masses):
            raise ConfigError(f"{len(values)} values for {len(self.masses)} states")
        return values

    def tv_distance(self, other: "ExactMeasure") -> Fraction:
        return sum(map(abs, map(sub, self.masses, self._per_state(other.masses))), ZERO) / 2

    def integral(self, f) -> Fraction:
        """sum_x f[x] * masses[x] for f given state by state: exact for
        Fraction or int values."""
        return sum(map(mul, self.masses, self._per_state(f)), ZERO)


def compose_word_map(flow: FiniteFlow, word, s: int, t: int) -> tuple:
    """State map of the word's first t - s symbols, applied at times s, ..., t - 1."""
    if not 0 <= t - s <= len(word):
        raise ConfigError(f"need s <= t and a word covering [{s}, {t}), got {len(word)} symbols")
    current = tuple(range(flow.n_states))
    for tau in range(s, t):
        step = flow.bank(tau)[word[tau - s]]
        current = tuple(step[x] for x in current)
    return current


def _check_words(flow: FiniteFlow, depth: int) -> None:
    """Refuse a negative depth, or more than ``ENUMERATION_LIMIT`` words of
    ``depth`` symbols, before any word or map is built."""
    if depth < 0:
        raise ConfigError(f"history depth {depth} is negative")
    # the power is capped: n**17 > 2**16 for every n >= 2
    if flow.n_symbols ** min(depth, ENUMERATION_LIMIT.bit_length()) > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{flow.n_symbols}**{depth} words exceed the enumeration limit {ENUMERATION_LIMIT}"
        )


def _after_step(flow: FiniteFlow, comp: tuple, time_index: int) -> list:
    """``comp`` after the step at ``time_index``, one map per symbol in symbol order."""
    return [tuple(comp[y] for y in m) for m in flow.bank(time_index)]


def map_law(flow: FiniteFlow, t: int, depth: int):
    """The exact law ``{map: probability}`` of phi(t, t - d), d = 0, ..., depth, after the
    word limit is checked.  A map at d + 1 is a map at d after the step at t - d - 1, weighted
    by that symbol's probability, so a map reached only by words of probability 0 has 0."""
    _check_words(flow, depth)
    law = {tuple(range(flow.n_states)): ONE}
    yield law
    for d in range(depth):
        law, shallower = {}, law
        for comp, p in shallower.items():
            for child, q in zip(_after_step(flow, comp, t - d - 1), flow.probs):
                law[child] = law.get(child, ZERO) + p * q
        yield law


def _points(n_states: int) -> tuple:
    """The point masses as rows: the identity kernel."""
    return tuple(ExactMeasure.point(n_states, x).masses for x in range(n_states))


def one_step_kernel(flow: FiniteFlow, time_index: int) -> tuple:
    """Row-stochastic transition matrix of the step at ``time_index``: row x
    mixes the point masses at x's images by the symbol probabilities."""
    points = _points(flow.n_states)
    maps = flow.bank(time_index)
    return tuple(_mix(flow.probs, [points[m[x]] for m in maps]) for x in range(flow.n_states))


def kernel_product(a: tuple, b: tuple) -> tuple:
    """(a b)[x] = sum_z a[x][z] b[z]: transport by a, then by b."""
    return tuple(_mix(row, b) for row in a)


def kernel_between(flow: FiniteFlow, s: int, t: int) -> tuple:
    out = _points(flow.n_states)
    for tau in range(s, t):
        out = kernel_product(out, one_step_kernel(flow, tau))
    return out


def apply_kernel(mu: ExactMeasure, kernel: tuple) -> ExactMeasure:
    return ExactMeasure(_mix(mu.masses, kernel))


def chapman_check(flow: FiniteFlow, s: int, t: int, u: int) -> bool:
    """Exact kernel factorization over an intermediate time."""
    return kernel_between(flow, s, u) == kernel_product(
        kernel_between(flow, s, t), kernel_between(flow, t, u)
    )


# -- evolution families of the averaged kernels --------------------------------

@dataclass
class EsmSolution:
    unique: bool
    family: tuple | None
    extremes: tuple
    note: str

    def at(self, time_index: int) -> ExactMeasure:
        if not self.unique:
            raise UnsupportedCaseError("family is not unique: " + self.note)
        return self.family[time_index % len(self.family)]


def _closed_classes(kernel: tuple) -> list:
    n = len(kernel)
    reach = [[kernel[x][y] > 0 or x == y for y in range(n)] for x in range(n)]
    for z in range(n):
        for x in range(n):
            if reach[x][z]:
                reach[x] = [a or b for a, b in zip(reach[x], reach[z])]
    # each communicating class once, in order of its least state
    classes = dict.fromkeys(tuple(y for y in range(n) if reach[x][y] and reach[y][x])
                            for x in range(n))
    return [cls for cls in classes
            if all(not kernel[y][z] > 0 or z in cls for y in cls for z in range(n))]


def _solve_stationary(kernel: tuple, support: tuple) -> ExactMeasure:
    """Unique stationary row vector of an irreducible kernel restricted to
    ``support`` (exact Gaussian elimination)."""
    m = len(support)
    # Equations: sum_x pi_x (K[x][y] - delta_xy) = 0 for y, replaced last by
    # sum = 1; each row ends with its right-hand side.
    a = [tuple(kernel[x][y] - (ONE if x == y else ZERO) for x in support) + (ZERO,)
         for y in support]
    a[m - 1] = (ONE,) * (m + 1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            raise ConfigError("kernel restriction is not irreducible")
        a[col], a[piv] = a[piv], a[col]
        a[col] = _mix((1 / a[col][col],), (a[col],))
        for r in range(m):
            if r != col and a[r][col] != 0:
                a[r] = _mix((ONE, -a[r][col]), (a[r], a[col]))
    masses = [ZERO] * len(kernel)
    for x, row in zip(support, a):
        masses[x] = row[m]
    return ExactMeasure(tuple(masses))


def ff_esm_solve(flow: FiniteFlow) -> EsmSolution:
    """Exact time-indexed stationary family of the averaged kernels.

    Solves the period map for its stationary vector and propagates it through
    the one-step kernels; when the stationary vector is not unique, reports
    the extreme stationary measures instead (their convex hull is the full
    solution set)."""
    period_map = kernel_between(flow, 0, flow.period)
    classes = _closed_classes(period_map)
    extremes = tuple(_solve_stationary(period_map, cls) for cls in classes)
    if len(classes) != 1:
        note = (
            f"{len(classes)} closed classes; every convex combination of the "
            f"extreme stationary measures is stationary"
        )
        if all(len(c) == 1 for c in classes) and len(classes) == flow.n_states:
            note = "identity-like period map: the full simplex is stationary; " + note
        return EsmSolution(False, None, extremes, note)
    family = [extremes[0]]
    for k in range(flow.period):
        family.append(apply_kernel(family[-1], one_step_kernel(flow, k)))
    if family.pop() != family[0]:
        raise AssertionError("period map stationarity failed to propagate")
    return EsmSolution(True, tuple(family), extremes, "unique stationary vector")


# -- conditional expectation identity ------------------------------------------

@dataclass
class ConditionalExpectationReport:
    max_residual: Fraction
    block_residuals: tuple
    independence_ok: bool
    failing_block: int | None = None


def conditional_expectation_check(
    outcome_probs,
    partition,
    measures,
    f_table,
) -> ConditionalExpectationReport:
    """Exact two-sided check of averaging a random measure against a
    block-measurable integrand.

    ``outcome_probs[w]`` weights outcome w; ``partition`` is a tuple of
    disjoint exhaustive blocks of outcome indices; ``measures[w]`` is the
    random measure at outcome w; ``f_table[w][x]`` must be constant in w on
    each block.  When the random measure is mean-independent of the partition
    the conditional average block by block equals the integral against the
    averaged measure, exactly.
    """
    probs = tuple(Fraction(p) for p in outcome_probs)
    if sum(probs, ZERO) != ONE or any(p < 0 for p in probs):
        raise ConfigError("outcome probabilities must be nonnegative and sum to 1 exactly")
    for name, table in (("measures", measures), ("integrand rows", f_table)):
        if len(table) != len(probs):
            raise ConfigError(f"{len(table)} {name} for {len(probs)} outcomes")
    covered = sorted(w for block in partition for w in block)
    if covered != list(range(len(probs))):
        raise ConfigError("partition must be disjoint and exhaustive")
    rho = ExactMeasure(_mix(probs, [mu.masses for mu in measures]))
    # Mean-independence precondition, every block before any integrand is read.
    laws = []  # the outcome law given each block; None on a null block
    for b_idx, block in enumerate(partition):
        p_block = sum((probs[w] for w in block), ZERO)
        law = ExactMeasure(tuple(probs[w] / p_block for w in block)) if p_block else None
        if law is not None and (_mix(law.masses, [measures[w].masses for w in block])
                                != rho.masses):
            return ConditionalExpectationReport(
                Fraction(0), (), independence_ok=False, failing_block=b_idx
            )
        laws.append(law)
    residuals = []
    for b_idx, (block, law) in enumerate(zip(partition, laws)):
        if law is None:
            residuals.append(ZERO)
            continue
        if any(f_table[w] != f_table[block[0]] for w in block):
            raise MeasurabilityError(
                f"integrand is not constant on block {b_idx}", block=b_idx
            )
        f = tuple(map(Fraction, f_table[block[0]]))
        lhs = law.integral([measures[w].integral(f) for w in block])
        residuals.append(abs(lhs - rho.integral(f)))
    return ConditionalExpectationReport(
        max(residuals) if residuals else ZERO, tuple(residuals), True
    )


def _word_prob(flow: FiniteFlow, word) -> Fraction:
    """Probability of drawing the word's symbols, i.i.d. across steps."""
    return math.prod(map(flow.probs.__getitem__, word), start=ONE)


def independence_scenario_from_flow(flow: FiniteFlow, depth: int, split: int, f_seed: int = 5):
    """Build a check instance whose random measure is keyed on the symbols
    after position ``split`` and whose integrand depends only on the symbols
    before it, so mean-independence holds by construction."""
    if not (0 < split < depth):
        raise ConfigError("split must cut the word interior")
    _check_words(flow, depth)
    # each block is a prefix word, in lexicographic order, and runs through the
    # maps phi(depth, split) of the suffix law: an outcome's probability is its
    # prefix's times its map's, its measure the uniform one pushed by the map
    *_, suffix_law = map_law(flow, depth, depth - split)
    prefixes = list(itertools.product(range(flow.n_symbols), repeat=split))
    base = ExactMeasure.uniform(flow.n_states)
    probs = [_word_prob(flow, w) * q for w in prefixes for q in suffix_law.values()]
    size = len(suffix_law)
    partition = tuple(tuple(range(i, i + size)) for i in range(0, len(probs), size))
    measures = tuple(map(base.pushforward, suffix_law)) * len(prefixes)
    prefix_f = [tuple(Fraction(1 + (chain(f_seed, *w, x) % 7), 8) for x in range(flow.n_states))
                for w in prefixes]
    f_table = tuple(f for f in prefix_f for _ in range(size))
    return probs, partition, measures, f_table


# -- martingale and pullback over the law of composed maps ---------------------

@dataclass
class MartingaleVerdict:
    ok: bool
    max_residual: Fraction
    cylinders_checked: int


def ff_martingale_check(flow: FiniteFlow, t: int, f_values, depth: int,
                        family: EsmSolution | None = None) -> MartingaleVerdict:
    """Verify, for every suffix cylinder, that averaging over one more symbol
    of history leaves the integral of f against the pushed family unchanged."""
    family = family or ff_esm_solve(flow)
    if not family.unique:
        raise UnsupportedCaseError("martingale check needs a unique family")
    if depth < 1:
        raise ConfigError("the martingale check needs a history depth of at least 1")
    f_values = tuple(Fraction(f) for f in f_values)
    symbol_law = ExactMeasure(flow.probs)

    def values(d: int, law: dict) -> dict:
        """{map: the integral of f against the family at t - d pushed by the map}."""
        mu = family.at(t - d)
        return {comp: mu.pushforward(comp).integral(f_values) for comp in law}

    # a cylinder's value depends only on its (depth, map) pair: each pair's
    # value is built once, and map_law checks the limit before any map
    tables = itertools.starmap(values, enumerate(map_law(flow, t, depth)))
    worst = ZERO
    for d, (shallow, deep) in enumerate(itertools.pairwise(tables)):
        for comp, value in shallow.items():
            deeper = [deep[c] for c in _after_step(flow, comp, t - d - 1)]
            worst = max(worst, abs(symbol_law.integral(deeper) - value))
    return MartingaleVerdict(worst == 0, worst, sum(flow.n_symbols**d for d in range(depth)))


@dataclass
class PullbackExactReport:
    all_synchronized: bool
    tv_gap: Fraction
    stabilized: bool
    mean_matches_family: bool
    map_measures: dict  # map at depth -> (probability, pulled-back measure)


def ff_pullback(flow: FiniteFlow, t: int, depth: int,
                family: EsmSolution | None = None) -> PullbackExactReport:
    """Exact pullback of the averaged family through each composed map of
    ``depth`` symbols, weighted by the map's law.

    Stabilization is certified either by synchronization (every composed map
    is constant, so deeper history cannot matter) or by a zero total-variation
    gap between consecutive depths.  The probability-weighted mean of the
    per-map measures must reproduce the averaged family exactly.
    """
    family = family or ff_esm_solve(flow)
    if not family.unique:
        raise UnsupportedCaseError("exact pullback needs a unique family")
    if depth < 1:
        raise ConfigError("the exact pullback needs a history depth of at least 1")

    *_, shallow, deep = map_law(flow, t, depth)
    at_depth, one_later = family.at(t - depth), family.at(t - depth + 1)
    map_measures = {comp: (p, at_depth.pushforward(comp)) for comp, p in deep.items()}
    shallow_measures = {comp: one_later.pushforward(comp) for comp in shallow}
    # each map at depth is a map at depth - 1 after one more step
    gap = max(map_measures[child][1].tv_distance(mu) for comp, mu in shallow_measures.items()
              for child in _after_step(flow, comp, t - depth))
    all_sync = all(len(set(comp)) == 1 for comp in deep)
    mean = _mix(deep.values(), [mu.masses for _, mu in map_measures.values()])
    mean_ok = ExactMeasure(mean) == family.at(t)
    return PullbackExactReport(all_sync, gap, all_sync or gap == 0, mean_ok, map_measures)


# -- canned flows ----------------------------------------------------------------

def two_state_noisy() -> FiniteFlow:
    """Hold or swap two states with equal probability."""
    return FiniteFlow(2, (Fraction(1, 2), Fraction(1, 2)), (((0, 1), (1, 0)),))


def synchronizing_pair(p=Fraction(1, 3)) -> FiniteFlow:
    """Two constant maps: every single-symbol word synchronizes."""
    return FiniteFlow(2, (p, 1 - p), (((0, 0), (1, 1)),))


def identity_finite_flow(n: int = 2) -> FiniteFlow:
    return FiniteFlow(n, (ONE,), ((tuple(range(n)),),))


def cyclic_doubly_stochastic(n: int = 3) -> FiniteFlow:
    """Rotate or hold with equal probability: doubly stochastic kernel."""
    rotate = tuple((x + 1) % n for x in range(n))
    hold = tuple(range(n))
    return FiniteFlow(n, (Fraction(1, 2), Fraction(1, 2)), ((rotate, hold),))


def period_two_alternating() -> FiniteFlow:
    """Different map banks on even and odd times."""
    bank0 = ((0, 0, 1), (1, 2, 2))
    bank1 = ((2, 0, 1), (0, 1, 1))
    return FiniteFlow(3, (Fraction(1, 4), Fraction(3, 4)), (bank0, bank1), period=2)


# -- counterexample catalog -------------------------------------------------------

@dataclass
class ScenarioReport:
    name: str
    claim: str
    ok: bool
    details: dict


def _scenario_attractor() -> ScenarioReport:
    """Deterministic halving map on the rationals: the pullback attractor of
    every bounded set is {0}, yet the point family 2**-t is a flow family
    supported off the attractor at every time."""
    lam = Fraction(1, 2)
    window = range(-8, 9)
    family = {t: lam**t for t in window}
    flow_ok = all(
        family[s] * lam ** (t - s) == family[t]
        for s in window for t in window if s <= t
    )
    bound = Fraction(100)
    images = [bound * lam**d for d in range(0, 55, 5)]
    contracts = all(b < a for a, b in zip(images, images[1:])) and images[-1] < Fraction(1, 10**9)
    off_attractor = all(family[t] != 0 for t in window)
    ok = flow_ok and contracts and off_attractor
    return ScenarioReport(
        "remark-attractor",
        "the attractor {0} does not support the halving point family",
        ok,
        {
            "contraction_factor": str(lam),
            "family_is_flow_invariant": flow_ok,
            "bounded_images_contract_to_zero": contracts,
            "family_off_attractor_everywhere": off_attractor,
        },
    )


def _scenario_shift() -> ScenarioReport:
    """Unit drift on the nonnegative integers: any measure carried on a
    window of n states is pushed completely off the window after n steps, so
    no fixed family exists inside any window."""
    n = 8
    window = frozenset(range(n))
    shifted = {k: frozenset(x + k for x in window) for k in (1, n - 1, n, n + 1, 2 * n)}
    disjoint = all(shifted[k].isdisjoint(window) for k in (n, n + 1, 2 * n))
    still_overlaps = all(not shifted[k].isdisjoint(window) for k in (1, n - 1))
    mean_shift_exact = all(
        sum(Fraction(x) for x in shifted[k]) - sum(Fraction(x) for x in window)
        == n * k
        for k in shifted
    )
    ok = disjoint and still_overlaps and mean_shift_exact
    return ScenarioReport(
        "remark-shift",
        "unit drift escapes every finite window: no evolution family exists there",
        ok,
        {
            "window": n,
            "support_disjoint_after_window_steps": disjoint,
            "support_still_overlaps_before_window_steps": still_overlaps,
            "mean_increases_by_exactly_one_per_step": mean_shift_exact,
        },
    )


def _scenario_identity() -> ScenarioReport:
    """Identity flow on two points over a two-outcome space: two distinct
    realization-indexed families average to the same semigroup family."""
    alpha1, alpha2 = Fraction(1, 3), Fraction(2, 3)
    half = Fraction(1, 2)

    def family(alpha):
        return {
            "in": ExactMeasure((alpha, 1 - alpha)),
            "out": ExactMeasure((1 - alpha, alpha)),
        }

    fam1, fam2 = family(alpha1), family(alpha2)
    # Identity flow: invariance of each family is the trivial identity.
    invariant = all(
        fam[side].pushforward((0, 1)) == fam[side]
        for fam in (fam1, fam2) for side in ("in", "out")
    )
    distinct = fam1["in"] != fam2["in"]
    mean1, mean2 = (ExactMeasure(_mix((half, half), (fam["in"].masses, fam["out"].masses)))
                    for fam in (fam1, fam2))
    shared = mean1 == mean2 == ExactMeasure((half, half))
    semigroup_invariant = apply_kernel(mean1, _points(2)) == mean1
    ok = invariant and distinct and shared and semigroup_invariant
    return ScenarioReport(
        "remark-identity",
        "distinct flow families with one shared semigroup family",
        ok,
        {
            "mixing_weights": (str(alpha1), str(alpha2)),
            "families_flow_invariant": invariant,
            "families_distinct": distinct,
            "shared_semigroup_family": shared,
            "semigroup_invariance": semigroup_invariant,
        },
    )


def counterexamples() -> dict:
    """The three prebuilt boundary scenarios, each with an exact verdict."""
    reports = [_scenario_attractor(), _scenario_shift(), _scenario_identity()]
    return {r.name: r for r in reports}


# -- lifting to a continuous-time flow model --------------------------------------

class FiniteFlowLift(FlowModelBase):
    """Embed a finite flow as a flow model on integer times.

    States ride as real scalars equal to their index.  The symbol at each
    integer time is drawn from the realization handle by keyed inversion of
    the exact cumulative probabilities: the first symbol whose cumulative
    probability is at least the uniform.
    """

    def __init__(self, flow: FiniteFlow):
        self.flow = flow
        self.state_dim = 1
        self.grid_level = 0
        # exact partial sums: the last is 1.0, above every keyed uniform
        self._cum = np.array([float(c) for c in itertools.accumulate(flow.probs)])

    def word_for(self, omega, s: int, t: int) -> tuple:
        """The symbols drawn at times s, ..., t - 1."""
        key = chain(omega.master_seed, omega.realization_index, _TAG_SYMBOL)
        u = uniform_from_keys(chain_offsets(key, np.arange(s, t)))
        return tuple(np.searchsorted(self._cum, u).tolist())

    def probe_states(self) -> np.ndarray:
        """Every state: their images collapse exactly when the composed map is constant."""
        return np.arange(self.flow.n_states, dtype=float)[:, None]

    def evolve_batch(self, omega, s: DyadicTime, t: DyadicTime, states):
        s_i, t_i = s.at_level(0), t.at_level(0)
        comp = compose_word_map(self.flow, self.word_for(omega, s_i, t_i), s_i, t_i)
        rows = np.atleast_2d(states)
        x = np.rint(rows[:, 0])  # half to even, as round does
        bad = np.flatnonzero(~((0 <= x) & (x < self.flow.n_states)))
        if bad.size:
            raise ConfigError(f"state {rows[bad[0], 0]} is not a valid state index")
        return np.asarray(comp, dtype=float)[x.astype(np.intp), None]
