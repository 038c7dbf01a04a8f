"""Every JSON decoder at an external boundary: a valid result or a typed error.

One strategy, :func:`mutated`, damages a committed valid document: it
deletes keys or list items and swaps values for null, booleans, ±inf,
NaN, 2**70, an integer past float range, strings, lists and objects, at
any depth. Each loader must
then return a result or raise a :mod:`repro.errors` type; any other
exception is a crash at the boundary.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.optimizer.knowledge import TuningKnowledgeBase
from repro.core.optimizer.surrogate import load_corpus
from repro.errors import ReproError
from repro.faults import load_plan
from repro.obs.inspect import load_alerts, load_health, load_metrics, load_trace, summarize
from repro.runtime.resilience import client_from_config

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data" / "loaders"
PLANS = [ROOT / "examples" / "faults" / name for name in ("health_burst.json", "sdc_burst.json")]

_REPLACEMENTS = (
    None, True, False, math.inf, -math.inf, math.nan, 2**70, 10**400, -1, 0, 2.5,
    "", "3", "nan", [], [1], ["x"], {}, {"a": 1},
)


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _corpus_head():
    """The committed surrogate corpus, cut to its first eight pairs."""
    corpus = _read(ROOT / "benchmarks" / "corpus" / "surrogate_corpus.json")
    return {**corpus, "pairs": corpus["pairs"][:8]}


def _paths(value, prefix=()):
    """The path of ``value`` and of every value nested in it."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, (*prefix, key))


@st.composite
def mutated(draw, document):
    """``document`` after one to four deletions or value swaps at drawn paths.

    A path's depth is drawn first, so the few top-level fields are hit
    as often as the many leaves of a long array.
    """
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 4))):
        paths = list(_paths(document))
        depth = draw(st.integers(0, max(len(path) for path in paths)))
        path = draw(st.sampled_from([path for path in paths if len(path) == depth]))
        replacement = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
        if not path:
            document = replacement
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
    return document


def _loads_or_raises_typed(load, document, name):
    """Write ``document`` as ``name`` in a fresh directory and run ``load`` on it."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / name
        path.write_text(json.dumps(document), encoding="utf-8")
        try:
            load(path)
        except ReproError:
            pass


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PLANS).flatmap(lambda plan: mutated(_read(plan))))
def test_mutated_fault_plans_load_or_raise_typed(document):
    _loads_or_raises_typed(load_plan, document, "plan.json")


@settings(max_examples=100, deadline=None)
@given(mutated(_read(PLANS[0])["client"]))
def test_mutated_client_blocks_build_or_raise_typed(document):
    try:
        client_from_config(document)
    except ReproError:
        pass


@settings(max_examples=100, deadline=None)
@given(mutated(_read(DATA / "knowledge" / "tuning_knowledge.json")))
def test_mutated_knowledge_bases_open(document):
    # A corrupt store is an empty or smaller prior set, never an error.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "tuning_knowledge.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        kb = TuningKnowledgeBase.open(directory)
        assert len(kb) <= 2


@settings(max_examples=100, deadline=None)
@given(mutated(_corpus_head()))
def test_mutated_surrogate_corpora_load(document):
    # A corrupt corpus degrades to fewer pairs, never an error.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert len(load_corpus(path)) <= 8


@settings(max_examples=100, deadline=None)
@given(mutated(_read(DATA / "health.json")))
def test_mutated_health_dumps_load_or_raise_typed(document):
    _loads_or_raises_typed(lambda path: (load_health(path), summarize(path)), document, "health.json")


@settings(max_examples=100, deadline=None)
@given(mutated(_read(DATA / "alerts.json")))
def test_mutated_alert_dumps_load_or_raise_typed(document):
    _loads_or_raises_typed(lambda path: (load_alerts(path), summarize(path)), document, "alerts.json")


@settings(max_examples=100, deadline=None)
@given(mutated(_read(DATA / "metrics.json")))
def test_mutated_metrics_dumps_load_or_raise_typed(document):
    _loads_or_raises_typed(lambda path: (load_metrics(path), summarize(path)), document, "metrics.json")


@settings(max_examples=100, deadline=None)
@given(mutated(_read(DATA / "trace.json")))
def test_mutated_trace_dumps_load_or_raise_typed(document):
    _loads_or_raises_typed(lambda path: (load_trace(path), summarize(path)), document, "trace.json")
