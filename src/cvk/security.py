"""Security-budget calculators and an empirical forgery-game simulator.

Forging past a compressed verifier reduces to guessing a nonzero element
of the hidden kernel given only accept/reject answers.  After Q rejected
queries the next one succeeds with probability at most
kappa / (#keyspace - kappa * Q), kappa the largest number of candidate
kernels any single query can eliminate.  The calculators here evaluate
that bound (exactly on toys, in log2 for production sizes), derive the
largest defensible security exponent for a query budget, and the
simulator plays the actual game on enumerable instances to check the
bound and the claim that scalar-replay strategies gain nothing.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations, filterfalse, islice, product, repeat
from random import Random

import numpy as np

from .errors import BudgetExceeded
from .modmath import is_prime_word
from .squirrels import check_t, keyspace_log2
from .wave import LOG2_3, check_c

LN2 = math.log(2)

# Float slack for invariants over long log-domain sums.
_EPS = 1e-9

# Most trits an enumerated Wave instance may hold (nk = 6, c = 2 holds 5.35 M),
# and most query trits a forgery game may draw.
MAX_ENUMERATED_TRITS = 10**7


@dataclass(frozen=True)
class SecurityBudget:
    """Everything needed to decide when a verification key must be
    refreshed, all exponents in log2.

    ``mu`` is the largest exponent e with
    min(keyspace/kappa, quotient) >= 2^e + q_limit; rejections beyond
    q_limit invalidate the budget.
    """

    mu: float
    q_limit: int
    s_size_log2: float
    kappa_log2: float
    quotient_size_log2: float

    def __post_init__(self):
        headroom = min(self.s_size_log2 - self.kappa_log2, self.quotient_size_log2)
        if headroom + _EPS < self.mu:
            raise ValueError(
                f"budget exponent {self.mu} exceeds keyspace headroom {headroom}"
            )


def segp_success_bound(s_size: int, kappa: int, queries: int) -> float:
    """Per-query success bound kappa / (#S - kappa * Q), correctly rounded
    (0 when kappa = 0: no query lies in any kernel).

    Raises:
        BudgetExceeded: when kappa * Q reaches #S (mandatory key refresh).
    """
    if s_size <= 0 or kappa < 0:
        raise ValueError("keyspace must be positive and kappa non-negative")
    if queries < 0:
        raise ValueError("query count must be non-negative")
    denominator = s_size - kappa * queries
    if denominator <= 0:
        raise BudgetExceeded(
            f"{queries} rejections can pin the kernel down ({kappa}*Q >= #S)"
        )
    return kappa / denominator


def segp_success_bound_log2(
    s_size_log2: float, kappa_log2: float, queries: int
) -> float:
    """log2 of the per-query bound for sizes too large to hold exactly."""
    if queries < 0:
        raise ValueError("query count must be non-negative")
    eaten = kappa_log2 + math.log2(queries) - s_size_log2 if queries else -math.inf
    if eaten >= 0:
        raise BudgetExceeded("query budget exhausts the keyspace")
    return kappa_log2 - (s_size_log2 + math.log1p(-(2.0 ** eaten)) / LN2)


def _log2_pow3_minus1(e: int) -> float:
    """log2(3^e - 1), exact for small e, asymptotic beyond."""
    if e <= 0:
        raise ValueError("exponent must be positive")
    if e <= 40:
        return math.log2(3**e - 1)
    return e * LOG2_3 + math.log1p(-(3.0 ** -e)) / LN2


def three_binomial(a: int, b: int) -> float:
    """log2 of the Gaussian binomial coefficient at base 3: the number
    of b-dimensional subspaces of F3^a; -inf (there are none) for b
    outside [0, a]."""
    if not 0 <= b <= a:
        return -math.inf
    total = 0.0
    for i in range(b):
        total += _log2_pow3_minus1(a - i) - _log2_pow3_minus1(b - i)
    return total


def gaussian_binomial_3(a: int, b: int) -> int:
    """Exact base-3 Gaussian binomial, for enumerable toy sizes; 0 for b
    outside [0, a]."""
    if not 0 <= b <= a:
        return 0
    num = den = 1
    for i in range(b):
        num *= 3 ** (a - i) - 1
        den *= 3 ** (b - i) - 1
    return num // den


def wave_kernel_counts(binomial, nk: int, c: int):
    """(#S, kappa) for codimension-c kernels of F3^nk, counted exactly or in
    log2 by ``binomial``: all of them, and those holding one nonzero vector."""
    return binomial(nk, nk - c), binomial(nk - 1, nk - c - 1)


def _budget_mu(min_headroom_log2: float, q_limit: int) -> float:
    """Largest mu with 2^headroom >= 2^mu + q_limit."""
    if q_limit < 0:
        raise ValueError("query limit must be non-negative")
    if q_limit == 0:
        return min_headroom_log2
    gap = math.log2(q_limit) - min_headroom_log2
    if gap >= 0:
        raise BudgetExceeded("query limit alone exhausts the keyspace")
    shrink = math.log1p(-(2.0 ** gap)) / LN2
    return min_headroom_log2 + shrink


def squirrels_budget(
    s: int, t: int, q_limit: int, kappa_model: str = "small-constant"
) -> SecurityBudget:
    """Budget for t secret 31-bit primes against an s-prime public basis.

    The keyspace is the t-subsets of the 31-bit prime pool.  Constructing
    a query divisible by even one product of public-pool primes already
    means forging the underlying scheme, so the operative model takes
    kappa as a small constant; ``kappa_model="combinatorial"`` instead
    charges the full C(s, t) kernels a maximally divisible query could
    touch, which is the pessimistic reading.
    """
    check_t(t)
    if s < t:
        raise ValueError(f"need t <= s, got t={t}, s={s}")
    s_size_log2 = keyspace_log2(t)
    if kappa_model == "small-constant":
        kappa_log2 = 0.0
    elif kappa_model == "combinatorial":
        kappa_log2 = math.log2(math.comb(s, t))
    else:
        raise ValueError(f"unknown kappa model {kappa_model!r}")
    quotient_log2 = 30.0 * t  # every secret prime exceeds 2^30
    mu = _budget_mu(min(s_size_log2 - kappa_log2, quotient_log2), q_limit)
    return SecurityBudget(
        mu=mu,
        q_limit=q_limit,
        s_size_log2=s_size_log2,
        kappa_log2=kappa_log2,
        quotient_size_log2=quotient_log2,
    )


def wave_budget(n: int, k: int, c: int, q_limit: int) -> SecurityBudget:
    """Budget for a codimension-c projection of F3^(n-k).

    keyspace/kappa collapses to (3^(n-k)-1)/(3^(n-k-c)-1), a hair above
    3^c, while the quotient has exactly 3^c elements, so the headroom is
    exactly c*log2(3).  At c = n-k the kernel is {0}: kappa is 0.
    """
    nk = n - k
    check_c(c, nk)
    s_size_log2, kappa_log2 = wave_kernel_counts(three_binomial, nk, c)
    quotient_log2 = c * LOG2_3
    mu = _budget_mu(quotient_log2, q_limit)
    return SecurityBudget(
        mu=mu,
        q_limit=q_limit,
        s_size_log2=s_size_log2,
        kappa_log2=kappa_log2,
        quotient_size_log2=quotient_log2,
    )


# ---------------------------------------------------------------------------
# Membership-oracle game on enumerable instances.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegpInstance:
    """An enumerable instance: exact counts, the query domain, and the
    full kernel set, enumerated on first use, so a game too large to
    play is refused before any kernel is built."""

    name: str
    enumerate_kernels: object  # () -> tuple; each kernel supports `query in kernel`
    s_size: int
    kappa: int
    query_trits: int  # trits drawn per query
    sample_query: object  # rng -> query
    scalar_double: object  # query -> query (a nontrivial scalar multiple)

    @cached_property
    def kernels(self) -> tuple:
        return self.enumerate_kernels()


def _enumerate_f3_subspaces(dim: int, subdim: int) -> list[frozenset]:
    """All subdim-dimensional subspaces of F3^dim as sets of trit tuples,
    via reduced-echelon representatives (one per subspace); each span is
    every coefficient vector times the representative's rows."""
    coeffs = np.array(list(product(range(3), repeat=subdim)), dtype=np.int64)
    subspaces = []
    for pivots in combinations(range(dim), subdim):
        free = [(r, c) for r in range(subdim) for c in range(pivots[r] + 1, dim) if c not in pivots]
        free_rows, free_cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        for assignment in product(range(3), repeat=len(free)):
            rows = np.zeros((subdim, dim), dtype=np.int64)
            rows[np.arange(subdim), np.array(pivots, dtype=np.intp)] = 1
            rows[free_rows, free_cols] = assignment
            # A frozenset copied from a set is sized to fit: half the memory.
            subspaces.append(frozenset(set(map(tuple, (coeffs @ rows % 3).tolist()))))
    return subspaces


def wave_segp_instance(nk: int, c: int) -> SegpInstance:
    """All codimension-c subspaces of F3^nk; queries are uniform nonzero
    vectors, nk trits each.  Counts are exhaustively enumerated, when the
    kernels are first used, and must agree with the Gaussian-binomial
    formulas.  An instance whose #S subspaces of 3^(nk-c) vectors of nk
    trits exceed ``MAX_ENUMERATED_TRITS`` is refused.
    """
    check_c(c, nk)
    dim = nk - c
    # #S >= 3^(c*dim): at least 3^exponent * nk trits.  Compared as an int,
    # this floor refuses a large nk before the exact count nears 3^nk.
    exponent = (c + 1) * dim
    if (exponent > (math.log2(MAX_ENUMERATED_TRITS) - math.log2(nk)) / LOG2_3
            or gaussian_binomial_3(nk, dim) * 3**dim * nk > MAX_ENUMERATED_TRITS):
        raise ValueError(f"wave(nk={nk}, c={c}) holds at least 3^{exponent} * {nk} trits, "
                         f"above the cap of {MAX_ENUMERATED_TRITS}")
    s_size, kappa = wave_kernel_counts(gaussian_binomial_3, nk, c)

    def enumerate_kernels():
        kernels = tuple(_enumerate_f3_subspaces(nk, dim))
        assert len(kernels) == s_size
        probe = tuple([1] + [0] * (nk - 1))
        assert sum(probe in kernel for kernel in kernels) == kappa
        return kernels

    def sample_query(rng: Random):
        while True:
            v = tuple(rng.randrange(3) for _ in range(nk))
            if any(v):
                return v

    def scalar_double(v):
        return tuple((2 * x) % 3 for x in v)

    return SegpInstance(
        name=f"wave(nk={nk}, c={c})",
        enumerate_kernels=enumerate_kernels,
        s_size=s_size,
        kappa=kappa,
        query_trits=nk,
        sample_query=sample_query,
        scalar_double=scalar_double,
    )


class _PrimeKernel:
    __slots__ = ("r",)

    def __init__(self, r: int):
        self.r = r

    def __contains__(self, t: int) -> bool:
        return t % self.r == 0


def squirrels_segp_instance(width: int, query_bound: int) -> SegpInstance:
    """One hidden prime of the given width; queries are integers in
    [1, query_bound], answered by divisibility."""
    if not 2 <= width <= 16:
        raise ValueError(f"prime width must be in [2, 16], got {width}")
    if query_bound < 1:
        raise ValueError(f"query bound must be at least 1, got {query_bound}")
    pool = [
        n
        for n in range((1 << (width - 1)) + 1, 1 << width, 2)
        if is_prime_word(n)
    ]
    kernels = tuple(_PrimeKernel(r) for r in pool)
    kappa = 0
    acc = 1
    while acc <= query_bound:
        acc *= (1 << (width - 1)) + 1
        kappa += 1
    kappa = max(1, kappa - 1)

    def sample_query(rng: Random):
        return rng.randrange(1, query_bound + 1)

    def scalar_double(t: int) -> int:
        return 2 * t

    return SegpInstance(
        name=f"squirrels(width={width})",
        enumerate_kernels=lambda: kernels,
        s_size=len(kernels),
        kappa=kappa,
        query_trits=1,
        sample_query=sample_query,
        scalar_double=scalar_double,
    )


def _fresh(instance: SegpInstance, rng: Random, accepts):
    return iter(partial(instance.sample_query, rng), None)


def _scalar_replay(instance: SegpInstance, rng: Random, accepts):
    fresh = _fresh(instance, rng, accepts)
    return chain.from_iterable((query, instance.scalar_double(query)) for query in fresh)


def _replay_rejected(instance: SegpInstance, rng: Random, accepts):
    return repeat(next(filterfalse(accepts, _fresh(instance, rng, accepts))))


# Query streams (instance, rng, accepts) -> iterator, read lazily up to the
# first accepted query; ``accepts`` answers free probes, which no budget
# counts.  random: a fresh uniform draw per query.  scalar-replay: a fresh
# draw, then its scalar double (a predictable reject), alternating.
# replay-rejected: free probes until one is rejected, then that probe for
# every query.
STRATEGIES = {"random": _fresh, "scalar-replay": _scalar_replay, "replay-rejected": _replay_rejected}


@dataclass(frozen=True)
class SegpReport:
    instance: str
    strategy: str
    trials: int
    queries_per_trial: int
    successes: int
    success_rate: float
    per_query_bound: float
    cumulative_bound: float


def simulate_segp_game(
    instance: SegpInstance,
    strategy: str,
    trials: int,
    queries_per_trial: int,
    rng: Random,
) -> SegpReport:
    """Play the membership game against a fresh kernel per trial: a trial
    succeeds when one of the first ``queries_per_trial`` queries of the
    strategy's stream lies in the kernel.

    A game whose trials draw more than ``MAX_ENUMERATED_TRITS`` query
    trits is refused before the first draw.  Each trial draws at least
    one query, since replay-rejected probes even when it may ask none.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    draws = trials * max(queries_per_trial, 1) * instance.query_trits
    if draws > MAX_ENUMERATED_TRITS:
        raise ValueError(f"{trials} trials x {queries_per_trial} queries of "
                         f"{instance.query_trits} trits draw {draws} trits, "
                         f"above the cap of {MAX_ENUMERATED_TRITS}")
    per_query = segp_success_bound(instance.s_size, instance.kappa, queries_per_trial)
    stream = STRATEGIES[strategy]
    successes = 0
    for _ in range(trials):
        kernel = rng.choice(instance.kernels)
        queries = stream(instance, rng, kernel.__contains__)
        successes += any(query in kernel for query in islice(queries, queries_per_trial))
    return SegpReport(
        instance=instance.name,
        strategy=strategy,
        trials=trials,
        queries_per_trial=queries_per_trial,
        successes=successes,
        success_rate=successes / trials,
        per_query_bound=per_query,
        cumulative_bound=min(1.0, queries_per_trial * per_query),
    )
