"""Seeded violations for ULF012 (impure cacheable entry points).

Entry points are declared with the ``# repro: cacheable`` def-line
comment; the cache replays their recorded results, so any effect below them silently vanishes on a cache hit.
Only lines tagged ``BAD`` may trip ULF012 (rng/clock impurities are
exercised in the ULF002 suite — here the seeds are global writes and
file I/O so this fixture trips exactly one rule).
"""

from pathlib import Path

_calls = 0


# --- direct global write ------------------------------------------------
def count_and_run(cfg):  # repro: cacheable
    global _calls  # BAD
    _calls = _calls + 1
    return cfg


def run_counted(cfg, counter):
    # the counter travels through the arguments: pure, caller-owned
    return cfg, counter + 1


# --- direct file I/O ----------------------------------------------------
def run_and_log(cfg, path):  # repro: cacheable
    Path(path).write_text(str(cfg))  # BAD
    return cfg


def run_pure(cfg, path):  # repro: cacheable
    return cfg, str(path)


# --- inherited through a helper chain ----------------------------------
def _dump(result, path):
    with open(path, "w") as fh:  # an effect of the *helper*
        fh.write(str(result))


def _relay(result, path):
    _dump(result, path)


def run_with_dump(cfg, path):  # repro: cacheable
    result = 2 * cfg
    _relay(result, path)  # BAD
    return result


def _shape(result):
    return (result, result)


def run_with_helper(cfg):  # repro: cacheable
    return _shape(3 * cfg)  # pure helper: fine
