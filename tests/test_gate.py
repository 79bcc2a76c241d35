"""One gate for m: every engine entry point refuses a malformed m, in bounded time.

``hessenberg.check_hess`` is called where each engine first reads m, so a
tuple that is not a Hessenberg function within the size limit raises
``NotHessenberg`` or ``SizeLimitExceeded`` and no cache keeps anything for it.
Every per-m cache is declared with ``hessenberg.per_m``: a miss passes m through
the gate, and a hit needs a tuple of the same ints, so a cache that holds (2, 2)
refuses (2.0, 2) as a cold one does, and a list is refused before any cache.
Every call here runs under a time limit set in this process with
``signal.setitimer``, so an engine that loops fails the test instead of
hanging the run.
"""

import ast
import inspect
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chromsym
from chromsym import coloring, gfunctions, modular, orientations, ptableaux, transition
from chromsym.errors import MAX_N, NotHessenberg, SizeLimitExceeded
from chromsym.hessenberg import check_hess, enumerate_hess
from chromsym.ptableaux import base_column

ENGINES = (coloring, gfunctions, modular, orientations, ptableaux, transition)

# Every public function of the engines that takes m, with its other arguments fixed.
ENTRY_POINTS = {
    "content_coefficient": lambda m: coloring.content_coefficient(m, {1: 1, 2: len(m) - 1}),
    "x_colorings": coloring.x_colorings,
    "gfun": lambda m: gfunctions.gfun(m, 0),
    "g_cap": lambda m: gfunctions.g_cap(m, 1),
    "g_total": gfunctions.g_total,
    "x_cycle_sum": gfunctions.x_cycle_sum,
    "reduction_step": modular.reduction_step,
    "reduce_to_paths": modular.reduce_to_paths,
    "enumerate_ao": orientations.enumerate_ao,
    "ao_tally": orientations.ao_tally,
    "ao_sink_poly": lambda m: orientations.ao_sink_poly(m, True),
    "sinks": lambda m: orientations.sinks(m, 0),
    "theta_of": lambda m: orientations.theta_of(m, base_column(len(m))),
    "sink_distribution": lambda m: orientations.sink_distribution(m, "S"),
    "hook_theta_counts": lambda m: orientations.hook_theta_counts(m, 1),
    "sink_subset_count": lambda m: orientations.sink_subset_count(m, 0, 1),
    "inv_filling": lambda m: ptableaux.inv_filling(m, base_column(len(m))),
    "enumerate_pt": lambda m: ptableaux.enumerate_pt(m, (1,) * len(m), True),
    "pt_poly": lambda m: ptableaux.pt_poly(m, (len(m),)),
    "pt_masks": lambda m: ptableaux.pt_masks(m, (1,) * len(m)),
    "s_fun": ptableaux.s_fun,
    "x_schur": ptableaux.x_schur,
    "p_table": transition.p_table,
    "probability_sum": transition.probability_sum,
    "check_area_relation": transition.check_area_relation,
    "c_poly": lambda m: transition.c_poly(m, (1,) * len(m), 1),
    "e_part": lambda m: transition.e_part(m, 1),
    "e_total": transition.e_total,
    "x_from_table": transition.x_from_table,
    "trace": transition.trace,
}

# The public functions that take m and do no engine work on it.
NOT_GATED = {
    "is_type1": "a predicate on a triple, False when one of the three is not a Hessenberg function",
    "is_type2": "a predicate on a triple, False when one of the three is not a Hessenberg function",
    "certificate_text": "prints a certificate already made; m only gives its n",
    "certificate_json": "prints a certificate already made; m only gives its n",
    "thresholds": "the growth schedule, a formula that the gated walk reads",
}

MALFORMED = [(1, 1), (0,), (2, 1), (3, 2, 3), (2.0, 2)]
SECONDS = 5  # a few hundred times the slowest call at n = 8, so only a loop reaches it


class TimeLimit(Exception):
    """Raised in a call that runs past its time limit."""


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeLimit(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def outcome(call, m):
    """("returns", the value) or ("raises", (its type, its message)), within the time limit."""
    with time_limit(SECONDS):
        try:
            return "returns", call(m)
        except TimeLimit:
            raise
        except Exception as e:
            return "raises", (type(e), str(e))


def caches() -> list:
    """Every lru_cache an engine module holds, its own or imported by name."""
    found = {id(f): f for mod in ENGINES for f in vars(mod).values() if hasattr(f, "cache_info")}
    return list(found.values())


def refused(kind: str, value) -> bool:
    """Whether an outcome is the gate's refusal."""
    return kind == "raises" and value[0] in (NotHessenberg, SizeLimitExceeded)


def test_the_table_names_every_public_function_that_takes_m():
    takes_m = {
        name
        for mod in ENGINES
        for name, f in vars(mod).items()
        if not name.startswith("_")
        and inspect.isfunction(inspect.unwrap(f))
        and f.__module__ == mod.__name__
        and next(iter(inspect.signature(f).parameters), None) == "m"
    }
    assert takes_m == ENTRY_POINTS.keys() | NOT_GATED.keys()
    assert not ENTRY_POINTS.keys() & NOT_GATED.keys()


def test_check_hess_returns_m_itself_or_refuses_it():
    for n in range(1, MAX_N + 1):
        for m in enumerate_hess(n):
            assert check_hess(m) is m
    assert issubclass(NotHessenberg, ValueError)
    for m in (*MALFORMED, [2, 2], (), (True,), (2, "3", 3)):
        with pytest.raises(NotHessenberg):
            check_hess(m)
    # the size comes first, so an m that is too long is refused as such whatever else it is
    for m in ((1,) * (MAX_N + 1), [0] * (MAX_N + 1), (9.0,) * (MAX_N + 1)):
        with pytest.raises(SizeLimitExceeded):
            check_hess(m)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_refuses_the_malformed_examples(name):
    for m in MALFORMED:
        kind, value = outcome(ENTRY_POINTS[name], m)
        assert kind == "raises" and value[0] is NotHessenberg, (name, m, value)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_warm_cache_refuses_an_equal_m_that_is_not_a_tuple_of_ints(name):
    # lru_cache compares keys with ==, and (2.0, 2) == (2, 2), (True, 2) == (1, 2) == [1, 2]
    for h, m in (((2, 2), (2.0, 2)), ((1, 2), (True, 2)), ((1, 2), [1, 2]), ((2, 2), (2, 2.0))):
        outcome(ENTRY_POINTS[name], h)  # may raise, as reduction_step does on a path
        kind, value = outcome(ENTRY_POINTS[name], m)
        assert kind == "raises" and value[0] is NotHessenberg, (name, m, value)


@pytest.mark.parametrize("m", [(1, 1), (0,)])
def test_schur_engines_refuse_what_their_greedy_chain_cannot_walk(m):
    # _value_masks walks the chain x -> m(x), which never ends once m(x + 1) <= x
    for call in (ptableaux.s_fun, ptableaux.x_schur):
        with time_limit(SECONDS), pytest.raises(NotHessenberg):
            call(m)


def with_a_float(xs: list[int]):
    return st.integers(0, len(xs) - 1).map(lambda i: (*xs[:i], float(xs[i]), *xs[i + 1 :]))


entries = st.lists(st.integers(-1, 10), max_size=MAX_N + 1)
hessenberg_functions = st.integers(1, MAX_N).flatmap(lambda n: st.sampled_from(enumerate_hess(n)))
candidates = st.one_of(
    entries.map(tuple),
    hessenberg_functions,
    st.one_of(entries.filter(bool), hessenberg_functions.map(list)).flatmap(with_a_float),
    entries,
)


@settings(deadline=None, max_examples=150)
@given(candidates)
def test_an_engine_answers_a_hessenberg_function_and_refuses_anything_else(m):
    # h is the package's own Hessenberg tuple equal to m, if there is one: (2, 2) for (2.0, 2)
    ms = enumerate_hess(len(m)) if type(m) is tuple and 0 < len(m) <= MAX_N else ()
    h = ms[ms.index(m)] if m in ms else None
    if h is not None and all(type(v) is int for v in m):
        for name, call in ENTRY_POINTS.items():
            kind, value = outcome(call, m)
            assert (kind, value) == outcome(call, h) and not refused(kind, value), name
        return
    # The caches hold what earlier examples left, and h's entries too: every call refuses m,
    # keeps nothing for it and evicts nothing, so h is answered again without a cache miss.
    for name, call in ENTRY_POINTS.items():
        if h is not None:
            outcome(call, h)
        sizes = [c.cache_info().currsize for c in caches()]
        kind, value = outcome(call, m)
        assert refused(kind, value), (name, m, kind, value)
        assert [c.cache_info().currsize for c in caches()] == sizes, (name, m)
        if h is not None:
            misses = [c.cache_info().misses for c in caches()]
            outcome(call, h)
            assert [c.cache_info().misses for c in caches()] == misses, (name, m)


def test_only_the_gate_and_the_suite_runner_call_check_size():
    package = Path(chromsym.__file__).parent
    callers = {
        path.stem
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_size"
    }
    assert callers == {"hessenberg", "verify"}
