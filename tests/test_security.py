import ast
import dataclasses
import inspect
import math
import textwrap
import time
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvk import rw
from cvk import security as sec
from cvk import squirrels as sq
from cvk import wave as wv
from cvk.errors import BudgetExceeded

P31 = 50697537


# ── bounds ───────────────────────────────────────────────────────────────


def test_bound_with_no_queries_is_kappa_over_s():
    assert sec.segp_success_bound(130, 13, 0) == pytest.approx(13 / 130)


@pytest.mark.parametrize("queries", [0, 1, 10**6])
def test_bound_is_zero_when_no_query_lies_in_any_kernel(queries):
    assert sec.segp_success_bound(130, 0, queries) == 0.0


def test_bound_exact_rational():
    assert sec.segp_success_bound(130, 13, 3) == pytest.approx(float(Fraction(13, 91)))


def test_bound_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        sec.segp_success_bound(130, 13, 10)


def test_bound_saturates_toward_one():
    # queries eating almost the whole keyspace drive the bound to 1
    assert sec.segp_success_bound(100, 1, 99) == 1.0
    assert sec.segp_success_bound(100, 1, 90) < sec.segp_success_bound(100, 1, 99)


def test_bound_log_domain_squirrels_I():
    s_size = math.log2(math.comb(P31, 5))
    kappa = math.log2(math.comb(165, 5))
    log_bound = sec.segp_success_bound_log2(s_size, kappa, 2**64)
    assert log_bound < -50
    assert log_bound == pytest.approx(kappa - s_size, abs=1e-6)


def test_bound_log_domain_matches_exact_on_toys():
    exact = sec.segp_success_bound(1000, 7, 20)
    logged = sec.segp_success_bound_log2(math.log2(1000), math.log2(7), 20)
    assert 2.0**logged == pytest.approx(exact, rel=1e-9)


@given(
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=1000),
)
def test_bound_monotonicity(s_size, kappa, q):
    if kappa >= s_size or kappa * (q + 1) >= s_size:
        return
    base = sec.segp_success_bound(s_size, kappa, q)
    assert sec.segp_success_bound(s_size, kappa, q + 1) >= base  # more queries: worse
    assert sec.segp_success_bound(s_size + 1, kappa, q) <= base  # bigger keyspace: better


# ── three_binomial ───────────────────────────────────────────────────────


def test_three_binomial_trivial():
    assert sec.three_binomial(7, 0) == 0.0


@pytest.mark.parametrize("a, b", [(7, -1), (7, 8), (0, 1), (0, -1)])
def test_binomials_outside_zero_to_a_count_no_subspaces(a, b):
    assert sec.gaussian_binomial_3(a, b) == 0
    assert sec.three_binomial(a, b) == -math.inf


def test_three_binomial_2_1():
    assert sec.three_binomial(2, 1) == pytest.approx(2.0)  # (9-1)/(3-1) = 4


def test_three_binomial_matches_exact_small():
    for a in range(1, 8):
        for b in range(a + 1):
            assert sec.three_binomial(a, b) == pytest.approx(
                math.log2(sec.gaussian_binomial_3(a, b)), rel=1e-12
            )


def test_three_binomial_wave822_consistency():
    gap = sec.three_binomial(4288, 4208) - sec.three_binomial(4287, 4207)
    assert gap == pytest.approx(80 * math.log2(3), abs=1e-3)
    assert gap == pytest.approx(126.8, abs=0.05)


def test_gaussian_binomial_symmetry():
    for a in range(1, 7):
        for b in range(a + 1):
            assert sec.gaussian_binomial_3(a, b) == sec.gaussian_binomial_3(a, a - b)


# ── budgets ──────────────────────────────────────────────────────────────


def test_squirrels_budget_table_mu():
    for s, t, mu in [(165, 5, 121.1), (262, 8, 189.5), (339, 11, 256.3)]:
        budget = sec.squirrels_budget(s, t, 2**64)
        assert budget.mu == pytest.approx(mu, abs=0.05)


def test_squirrels_budget_combinatorial_model():
    budget = sec.squirrels_budget(165, 5, 2**64, kappa_model="combinatorial")
    assert budget.kappa_log2 == pytest.approx(math.log2(math.comb(165, 5)), rel=1e-12)
    assert budget.mu < sec.squirrels_budget(165, 5, 2**64).mu


def test_wave_budget_table_mu():
    for n, k, c, mu in [
        (8576, 4288, 80, 126.8),
        (12544, 6272, 120, 190.2),
        (16512, 8256, 160, 253.6),
    ]:
        budget = sec.wave_budget(n, k, c, 2**64)
        assert budget.mu == pytest.approx(mu, abs=0.05)


def test_wave_budget_at_c_equal_n_minus_k():
    # The kernel is {0}: no nonzero query lies in it, so kappa is 0.
    budget = sec.wave_budget(24, 12, 12, 2**10)
    assert budget.kappa_log2 == -math.inf and budget.s_size_log2 == 0.0
    assert budget.quotient_size_log2 == pytest.approx(12 * math.log2(3))


def test_budget_invariant_enforced():
    with pytest.raises(ValueError):
        sec.SecurityBudget(
            mu=100.0, q_limit=0, s_size_log2=50.0, kappa_log2=0.0, quotient_size_log2=200.0
        )


def test_budget_query_limit_saturation():
    # an absurd query limit near the keyspace size drives mu to nothing
    with pytest.raises(BudgetExceeded):
        sec.squirrels_budget(165, 1, 2**30)  # keyspace 2^25.6 < 2^30 queries


def test_budget_eq8_gate_named_instances():
    # headroom >= 2^mu + Q at Q = 2^64 for every named configuration
    for s, t in [(165, 5), (188, 5), (262, 8), (275, 8), (339, 11)]:
        b = sec.squirrels_budget(s, t, 2**64)
        headroom = min(b.s_size_log2 - b.kappa_log2, b.quotient_size_log2)
        need = b.mu + math.log1p(2.0 ** (64 - b.mu)) / math.log(2)
        assert headroom + 1e-9 >= need
    for n, k, c in [(8576, 4288, 80), (12544, 6272, 120), (16512, 8256, 160)]:
        b = sec.wave_budget(n, k, c, 2**64)
        headroom = min(b.s_size_log2 - b.kappa_log2, b.quotient_size_log2)
        need = b.mu + math.log1p(2.0 ** (64 - b.mu)) / math.log(2)
        assert headroom + 1e-9 >= need


# ── exhaustive toy instances ─────────────────────────────────────────────


def test_wave_instance_counts_match_formulas():
    inst = sec.wave_segp_instance(4, 2)
    assert inst.s_size == sec.gaussian_binomial_3(4, 2) == 130
    assert inst.kappa == sec.gaussian_binomial_3(3, 1) == 13


def test_wave_instance_at_c_equal_nk_is_the_zero_kernel():
    inst = sec.wave_segp_instance(3, 3)
    assert inst.kernels == (frozenset({(0, 0, 0)}),)
    assert inst.s_size == 1 and inst.kappa == 0


@pytest.mark.parametrize("c", [0, 5])
def test_wave_instance_c_outside_one_to_nk_is_refused_by_the_c_rule(c):
    with pytest.raises(ValueError, match=r"outside \[1, n-k = 4\]"):
        sec.wave_segp_instance(4, c)


@pytest.mark.parametrize(
    "nk, c", [(8, 3), (7, 2), (10**9, 1), (10**9, 10**9), (2**63, 2**62), (10**400, 1)]
)
def test_wave_instance_above_the_size_cap_is_refused_before_enumerating(monkeypatch, nk, c):
    def enumerate_fails(dim, subdim):
        raise AssertionError("enumerated an instance above the cap")

    monkeypatch.setattr(sec, "_enumerate_f3_subspaces", enumerate_fails)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above the cap of 10000000"):
        sec.wave_segp_instance(nk, c)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("nk, c", [(3, 1), (4, 1), (4, 2), (5, 4), (6, 6)])
def test_wave_instance_within_the_size_cap_builds(nk, c):
    inst = sec.wave_segp_instance(nk, c)
    assert len(inst.kernels) == inst.s_size
    assert inst.s_size * 3 ** (nk - c) * nk <= sec.MAX_ENUMERATED_TRITS


def _loop_subspaces(dim, subdim):
    """Reference: each reduced-echelon span summed trit by trit."""
    subspaces = []
    for pivots in combinations(range(dim), subdim):
        free = [(r, c) for r in range(subdim) for c in range(pivots[r] + 1, dim) if c not in pivots]
        for assignment in product(range(3), repeat=len(free)):
            rows = [[0] * dim for _ in range(subdim)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free, assignment):
                rows[r][c] = v
            subspaces.append(frozenset(
                tuple(sum(k[r] * rows[r][i] for r in range(subdim)) % 3 for i in range(dim))
                for k in product(range(3), repeat=subdim)
            ))
    return subspaces


@pytest.mark.parametrize("dim, subdim", [(1, 0), (3, 0), (3, 1), (3, 2), (4, 2), (5, 3), (4, 4)])
def test_subspace_enumeration_matches_the_loop_reference(dim, subdim):
    # Same subspaces in the same order: the game draws kernels by index.
    assert sec._enumerate_f3_subspaces(dim, subdim) == _loop_subspaces(dim, subdim)


def test_wave_instance_kappa_is_uniform_over_queries():
    # every nonzero vector lies in exactly kappa kernels
    inst = sec.wave_segp_instance(3, 1)
    for vec in product(range(3), repeat=3):
        if not any(vec):
            continue
        assert sum(vec in k for k in inst.kernels) == inst.kappa


def test_wave_exact_bound_matches_enumeration():
    # per-query success of a uniform nonzero query, computed by brute
    # force over all kernels, never exceeds the first-query bound
    inst = sec.wave_segp_instance(4, 2)
    nonzero = [v for v in product(range(3), repeat=4) if any(v)]
    hit = sum(sum(v in k for v in nonzero) for k in inst.kernels)
    true_rate = hit / (len(nonzero) * len(inst.kernels))
    assert true_rate <= sec.segp_success_bound(inst.s_size, inst.kappa, 0)


def test_squirrels_instance_oracle():
    inst = sec.squirrels_segp_instance(8, 1 << 20)
    assert inst.s_size == 23  # primes in (128, 256)
    assert inst.query_trits == 1  # one integer per query, for the game's size rule
    kernel = inst.kernels[0]
    assert kernel.r * 17 in kernel
    assert (kernel.r * 17 + 1) not in kernel


# ── the game ─────────────────────────────────────────────────────────────


def test_random_adversary_within_bound():
    inst = sec.wave_segp_instance(4, 2)
    report = sec.simulate_segp_game(inst, "random", 4000, 3, Random(1))
    sigma = math.sqrt(report.cumulative_bound * (1 - report.cumulative_bound) / 4000)
    assert report.success_rate <= report.cumulative_bound + 3 * sigma


def test_replay_rejected_never_succeeds():
    inst = sec.wave_segp_instance(4, 2)
    report = sec.simulate_segp_game(inst, "replay-rejected", 500, 5, Random(2))
    assert report.successes == 0


def test_scalar_replay_no_better_than_random():
    inst = sec.wave_segp_instance(4, 2)
    trials = 4000
    random_rate = sec.simulate_segp_game(inst, "random", trials, 4, Random(3)).success_rate
    replay_rate = sec.simulate_segp_game(
        inst, "scalar-replay", trials, 4, Random(4)
    ).success_rate
    sigma = math.sqrt(2 * random_rate * (1 - random_rate) / trials)
    assert replay_rate <= random_rate + 3 * sigma


def test_scalar_multiples_preserve_membership():
    inst = sec.wave_segp_instance(4, 2)
    rng = Random(5)
    for _ in range(200):
        kernel = rng.choice(inst.kernels)
        v = inst.sample_query(rng)
        assert (v in kernel) == (inst.scalar_double(v) in kernel)


def test_squirrels_game_within_bound():
    inst = sec.squirrels_segp_instance(8, 1 << 20)
    report = sec.simulate_segp_game(inst, "random", 3000, 2, Random(6))
    sigma = math.sqrt(
        max(report.cumulative_bound * (1 - report.cumulative_bound), 1e-9) / 3000
    )
    assert report.success_rate <= report.cumulative_bound + 3 * sigma


@pytest.mark.parametrize("bound", [0, -1])
def test_squirrels_query_bound_below_one_is_refused(bound):
    # randrange(1, bound + 1) would fail at the first query, with
    # random's own message.
    with pytest.raises(ValueError, match=f"query bound must be at least 1, got {bound}"):
        sec.squirrels_segp_instance(8, bound)


@pytest.mark.parametrize("strategy", sec.STRATEGIES)
def test_full_verifier_instance_is_never_forged(strategy):
    # c = nk: the kernel is {0} and every query is nonzero.
    report = sec.simulate_segp_game(sec.wave_segp_instance(3, 3), strategy, 200, 3, Random(7))
    assert report.successes == 0
    assert report.per_query_bound == report.cumulative_bound == 0.0


@pytest.mark.parametrize("queries", [0, 1, 3])
def test_game_size_rule_caps_trials_times_queries_times_query_trits(queries):
    # Each trial draws at least one query (replay-rejected probes at 0).
    inst = sec.wave_segp_instance(3, 3)
    per_trial = max(queries, 1)
    at_cap = dataclasses.replace(inst, query_trits=sec.MAX_ENUMERATED_TRITS // (2 * per_trial))
    report = sec.simulate_segp_game(at_cap, "replay-rejected", 2, queries, Random(8))
    assert report.successes == 0
    over = dataclasses.replace(at_cap, query_trits=at_cap.query_trits + 1)
    with pytest.raises(ValueError, match="above the cap of 10000000"):
        sec.simulate_segp_game(over, "replay-rejected", 2, queries, Random(8))


def test_game_too_large_is_refused_before_enumerating_or_drawing(monkeypatch):
    # nk = c = 10^7 passes the instance cap (one kernel, {0}), but its
    # 2000 x 3 queries would draw 6 * 10^10 trits.
    def fails(*args):
        raise AssertionError("enumerated or drew for a game above the cap")

    class NoDraws(Random):
        # Every draw of a Random comes through one of these two.
        random = getrandbits = fails

    monkeypatch.setattr(sec, "_enumerate_f3_subspaces", fails)
    start = time.perf_counter()
    inst = sec.wave_segp_instance(10**7, 10**7)
    assert (inst.s_size, inst.kappa, inst.query_trits) == (1, 0, 10**7)
    with pytest.raises(AssertionError, match="drew"):
        inst.sample_query(NoDraws(9))
    for strategy in sec.STRATEGIES:
        with pytest.raises(ValueError, match="draw 60000000000 trits, above the cap"):
            sec.simulate_segp_game(inst, strategy, 2000, 3, NoDraws(9))
    assert time.perf_counter() - start < 1.0


# ── pinned reports ───────────────────────────────────────────────────────

# Successes over 200 trials at queries 0, 1 and 3, with a fresh Random(seed)
# per report.  Any change in which draws a strategy makes, or in their
# order, moves these.
PINNED_SUCCESSES = {
    ("wave", "random", 1): (0, 23, 60),
    ("wave", "random", 2): (0, 18, 56),
    ("wave", "scalar-replay", 1): (0, 23, 49),
    ("wave", "scalar-replay", 2): (0, 18, 43),
    ("wave", "replay-rejected", 1): (0, 0, 0),
    ("wave", "replay-rejected", 2): (0, 0, 0),
    ("squirrels", "random", 1): (0, 9, 9),
    ("squirrels", "random", 2): (0, 3, 18),
    ("squirrels", "scalar-replay", 1): (0, 9, 13),
    ("squirrels", "scalar-replay", 2): (0, 3, 6),
    ("squirrels", "replay-rejected", 1): (0, 0, 0),
    ("squirrels", "replay-rejected", 2): (0, 0, 0),
}
PINNED_BOUNDS = {
    "wave": (0.1, 0.1111111111111111, 0.14285714285714285),
    "squirrels": (0.2857142857142857, 0.4, 2.0),
}


@pytest.fixture(scope="module")
def pinned_instances():
    return {
        "wave": sec.wave_segp_instance(4, 2),
        "squirrels": sec.squirrels_segp_instance(6, 1 << 12),
    }


def _pinned_report(inst, strategy, queries, successes, bound):
    return sec.SegpReport(
        instance=inst.name,
        strategy=strategy,
        trials=200,
        queries_per_trial=queries,
        successes=successes,
        success_rate=successes / 200,
        per_query_bound=bound,
        cumulative_bound=min(1.0, queries * bound),
    )


@pytest.mark.parametrize("key", PINNED_SUCCESSES, ids=lambda key: "-".join(map(str, key)))
def test_game_reports_are_pinned(pinned_instances, key):
    name, strategy, seed = key
    inst = pinned_instances[name]
    for queries, successes, bound in zip((0, 1, 3), PINNED_SUCCESSES[key], PINNED_BOUNDS[name]):
        report = sec.simulate_segp_game(inst, strategy, 200, queries, Random(seed))
        assert report == _pinned_report(inst, strategy, queries, successes, bound)


def test_game_reports_on_one_shared_random_are_pinned(pinned_instances):
    # One Random across the strategies, as criterion 10 runs them:
    # replay-rejected draws its free probes even at queries = 0.
    inst, rng = pinned_instances["wave"], Random(10)
    runs = [("replay-rejected", 0, 0), ("random", 3, 47), ("scalar-replay", 3, 48),
            ("replay-rejected", 3, 0), ("random", 3, 72)]
    for strategy, queries, successes in runs:
        bound = PINNED_BOUNDS["wave"][(0, 1, 3).index(queries)]
        report = sec.simulate_segp_game(inst, strategy, 200, queries, rng)
        assert report == _pinned_report(inst, strategy, queries, successes, bound)


def test_unknown_strategy_rejected():
    inst = sec.wave_segp_instance(3, 1)
    with pytest.raises(ValueError):
        sec.simulate_segp_game(inst, "psychic", 10, 1, Random(0))


# ── no early exit on secret data ─────────────────────────────────────────


def _early_exits(fn) -> list[str]:
    """What in ``fn`` can end it before its final statement on anything but
    the public front end: an ``and``, ``or`` or conditional expression, or
    a ``return`` that is neither the last statement nor under the ``if``
    that tests ``public_target``'s None."""
    func = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    targets = {
        node.targets[0].id
        for node in func.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func).split(".")[-1] == "public_target"
    }
    allowed = {id(func.body[-1])}
    for node in func.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) in {f"{t} is None" for t in targets}:
            allowed.update(id(stmt) for stmt in node.body)
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BoolOp, ast.IfExp)):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Return) and id(node) not in allowed:
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("fn", [sq.cverify, wv.wave_cverify, rw.rw_cverify],
                         ids=lambda fn: fn.__name__)
def test_compressed_verifiers_do_not_exit_early(fn):
    # Secret-dependent flags are combined at the end: no short-circuit and
    # no return past the public front end but the last statement.
    assert isinstance(ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0].body[-1],
                      ast.Return)
    assert _early_exits(fn) == []


def test_early_exit_guard_sees_a_short_circuit_and_a_secret_return():
    def secret_return(sig, message, vk, params):
        c = public_target(sig, message, params)  # noqa: F821
        if c is None:
            return False
        k = vk @ c
        if k[0]:
            return False
        return bool(k.all())

    def short_circuit(sig, message, vk, params):
        c = public_target(sig, message, params)  # noqa: F821
        if c is None:
            return False
        return bool(c.all()) and bool((vk @ c).all())

    assert _early_exits(secret_return) == ["return False"]
    assert _early_exits(short_circuit) == ["bool(c.all()) and bool((vk @ c).all())"]
