"""Golden tests for the call classifier and the interprocedural effects
summary store (repro.analysis.dataflow.effects): the source of ULF002 and
the substrate under ULF011-ULF013."""

import ast
import textwrap

import pytest

from repro.analysis import lint_file
from repro.analysis.dataflow.effects import EffectsStore, classify_call


def store_for(source):
    return EffectsStore.build(ast.parse(textwrap.dedent(source)))


def describe(source):
    return store_for(source).describe().splitlines()


# ---------------------------------------------------------------------------
# direct effects
# ---------------------------------------------------------------------------
def test_pure_function_is_pure():
    (line,) = describe("""
    def f(x):
        return x * 2
    """)
    assert line == "f: pure"


def test_global_write_needs_decl_and_write():
    lines = describe("""
    COUNT = 0

    def bump():
        global COUNT
        COUNT = COUNT + 1

    def reads():
        global COUNT
        return COUNT
    """)
    assert lines[0] == "bump: global_write@5"
    assert lines[1] == "reads: pure"  # declared but never written


def test_io_open_and_path_methods():
    lines = describe("""
    def writes(p, data):
        with open(p, "w") as fh:
            fh.write(data)

    def touches(p):
        p.write_text("x")
    """)
    assert lines[0].startswith("writes: io@")
    assert lines[1].startswith("touches: io@")


def test_rng_and_clock_via_imports():
    lines = describe("""
    import random
    import time

    def roll():
        return random.random()

    def stamp():
        return time.time()

    def seeded():
        return random.Random(42).random()
    """)
    assert lines[0].startswith("roll: rng@")
    assert lines[1].startswith("stamp: clock@")
    assert lines[2] == "seeded: pure"


def test_os_and_shutil_are_io():
    lines = describe("""
    import os
    import shutil

    def rm(p):
        os.remove(p)

    def cp(a, b):
        shutil.copyfile(a, b)
    """)
    assert lines[0].startswith("rm: io@")
    assert lines[1].startswith("cp: io@")


# ---------------------------------------------------------------------------
# transitive closure over the local call graph
# ---------------------------------------------------------------------------
def test_effects_propagate_with_call_chain():
    lines = describe("""
    def leaf(p):
        open(p)

    def mid(p):
        leaf(p)

    def top(p):
        mid(p)
    """)
    assert lines[0] == "leaf: io@3"
    assert lines[1] == "mid: io@6[via leaf]"
    assert lines[2] == "top: io@9[via mid->leaf]"


def test_method_calls_resolve_through_self():
    lines = describe("""
    class Runner:
        def _log(self, p):
            open(p)

        def run(self, p):
            self._log(p)
    """)
    assert lines[0].startswith("Runner._log: io@")
    assert "[via Runner._log]" in lines[1]


def test_opaque_calls_assumed_pure():
    (line,) = describe("""
    def f(obj):
        obj.do_something_unknown()
        return helper_from_elsewhere(obj)
    """)
    assert line == "f: pure"


# ---------------------------------------------------------------------------
# shared_return tracking
# ---------------------------------------------------------------------------
def test_provider_return_is_shared():
    lines = describe("""
    def provider(n):
        return cached_scheme(n, 4)

    def passthrough(n):
        return provider(n)

    def bound_passthrough(n):
        s = provider(n)
        return s

    def copier(n):
        s = provider(n)
        return s.copy()
    """)
    assert lines[0].startswith("provider: shared_return@")
    assert lines[1].startswith("passthrough: shared_return@")
    assert lines[2].startswith("bound_passthrough: shared_return@")
    assert lines[3] == "copier: pure"  # .copy() result is owned


def test_lru_cache_decorated_is_shared():
    store = store_for("""
    import functools

    @functools.lru_cache(maxsize=None)
    def memo(n):
        return [n] * n
    """)
    assert store.summary("memo").has("shared_return")
    assert store.shared_locals() == {"memo"}


def test_shared_return_is_not_impure():
    store = store_for("""
    def provider(n):
        return cached_scheme(n, 4)
    """)
    assert store.summary("provider").pure


# ---------------------------------------------------------------------------
# one classifier: ULF002 is the store's clock/rng classification
# ---------------------------------------------------------------------------
#: (source, ULF002 fires, kinds of direct effect the store records)
CLOCK_RNG_CASES = {
    "module_alias": ("import time as tm\n"
                     "def f():\n    return tm.time()\n", True, {"clock"}),
    "from_import_alias": ("from time import perf_counter as pc\n"
                          "def f():\n    return pc()\n", True, {"clock"}),
    "function_local_import": ("def f():\n    import random\n"
                              "    return random.random()\n", True, {"rng"}),
    # the store charges effects to functions, and a class body is none
    "class_body": ("import time\n"
                   "class C:\n    stamp = time.time()\n", True, set()),
    "datetime_module": ("import datetime\n"
                        "def f():\n    return datetime.datetime.now()\n",
                        True, {"clock"}),
    "datetime_class": ("from datetime import datetime\n"
                       "def f():\n    return datetime.now()\n",
                       True, {"clock"}),
    "unseeded_random": ("import random\n"
                        "def f():\n    return random.Random()\n",
                        True, {"rng"}),
    "seeded_random": ("import random\n"
                      "def f():\n    return random.Random(42)\n",
                      False, set()),
    "getenv_is_io_only": ("import os\n"
                          "def f():\n    return os.getenv('HOME')\n",
                          False, {"io"}),
}


@pytest.mark.parametrize("case", sorted(CLOCK_RNG_CASES))
def test_ulf002_is_the_stores_clock_rng_classification(case):
    source, fires, kinds = CLOCK_RNG_CASES[case]
    tree = ast.parse(source)
    store = EffectsStore.build(tree)
    direct = [e for s in store.summaries.values() for e in s.direct_effects()]
    flagged = {(v.line, v.col - 1) for v in lint_file("x.py", source=source)
               if v.rule == "ULF002"}
    classified = {(n.lineno, n.col_offset) for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and (classify_call(n, store.imports) or ("",))[0]
                  in ("clock", "rng")}
    assert bool(flagged) is fires
    assert classified == flagged
    assert {e.kind for e in direct} == kinds
    if kinds & {"clock", "rng"}:
        assert {(e.node.lineno, e.node.col_offset) for e in direct} \
            == flagged
