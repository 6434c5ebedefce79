"""ULF lint rules (repro.analysis.linter)."""

from pathlib import Path

import repro
from repro.analysis import RULES, lint_file
from repro.cli import main as cli_main

FIXTURE = Path(__file__).parent / "fixtures" / "lint_violations.py"
PACKAGE = Path(repro.__file__).parent


def rules_of(violations):
    return sorted({v.rule for v in violations})


# ---------------------------------------------------------------------------
# self-check and seeded-violation fixture
# ---------------------------------------------------------------------------
def test_repro_package_is_lint_clean(repo_lint):
    violations = [v for v in repo_lint if not v.suppressed]
    assert violations == [], "\n".join(str(v) for v in violations)


def test_fixture_trips_every_rule():
    violations = lint_file(FIXTURE)
    assert rules_of(violations) == sorted(RULES)  # ULF001..ULF005 all fire


def test_fixture_flags_every_discarded_communicator():
    """ULF003 covers every operation that returns a communicator, the
    intercommunicator of ``spawn_multiple`` included."""
    lines = FIXTURE.read_text().splitlines()
    expected = {i for i, line in enumerate(lines, 1) if "# ULF003" in line}
    flagged = {v.line for v in lint_file(FIXTURE) if v.rule == "ULF003"}
    assert len(expected) == 2 and flagged == expected


def test_cli_lint_exit_codes(capsys, served_lint):
    assert cli_main(["lint", str(FIXTURE)]) == 1
    assert "ULF001" in capsys.readouterr().out
    assert cli_main(["lint", str(PACKAGE)]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_cli_lint_rules_listing(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


# ---------------------------------------------------------------------------
# rule behaviour on edge cases
# ---------------------------------------------------------------------------
def check(source):
    return lint_file("<test>", source=source)


def test_ulf001_allows_reraise_and_inspection():
    clean = """
try:
    risky()
except Exception:
    raise
try:
    risky()
except Exception as exc:
    log(exc)
try:
    risky()
except ValueError:
    pass
"""
    assert check(clean) == []


def test_ulf001_flags_silent_broad_except():
    assert rules_of(check("try:\n    x()\nexcept BaseException:\n"
                          "    pass\n")) == ["ULF001"]


def test_ulf002_allows_seeded_random():
    clean = """
import random
rng = random.Random(42)
value = rng.random()
"""
    assert check(clean) == []


def test_ulf002_tracks_import_aliases():
    src = """
from time import monotonic
import random as rnd

def f():
    a = monotonic()
    b = rnd.randint(0, 5)
"""
    assert rules_of(check(src)) == ["ULF002"]
    assert len(check(src)) == 2


def test_ulf003_allows_used_result():
    clean = """
async def f(comm):
    new = await comm.dup()
    return new
"""
    assert check(clean) == []


def test_ulf004_allows_survivor_ops_and_guarded_retries():
    clean = """
async def f(comm):
    try:
        await comm.barrier()
    except MPIError:
        await comm.agree(1)
        shrunk = await comm.shrink()
        try:
            await comm.barrier()
        except MPIError:
            pass
"""
    assert check(clean) == []


def test_ulf005_satisfied_by_reconstruct():
    clean = """
async def f(ctx, disk, solver):
    world = await communicator_reconstruct(ctx, world, entry=main)
    await write_checkpoint(ctx, disk, 0, 0, solver, None)
"""
    assert check(clean) == []


def test_noqa_suppression():
    src = "import time\nt = time.time()  # noqa\n"
    assert check(src) == []
    src = "import time\nt = time.time()  # noqa: ULF002\n"
    assert check(src) == []
    # a different rule's code does not suppress
    src = "import time\nt = time.time()  # noqa: ULF001\n"
    assert rules_of(check(src)) == ["ULF002"]


def test_noqa_space_after_comma():
    # `# noqa: ULF001, ULF002` (space after the comma) must suppress both
    src = ("import time, random\n"
           "t = time.time() + random.random()  # noqa: ULF001, ULF002\n")
    assert check(src) == []
    # ... and still not suppress rules that are not listed
    src = ("import time\n"
           "t = time.time()  # noqa: ULF001, ULF003\n")
    assert rules_of(check(src)) == ["ULF002"]


def test_noqa_trailing_justification_text():
    # prose after the codes is a justification, not part of the code list
    src = ("import time\n"
           "t = time.time()  # noqa: ULF002 wall clock fine in this demo\n")
    assert check(src) == []
    src = ("import time\n"
           "t = time.time()  # noqa: ULF002 -- host-only path\n")
    assert check(src) == []
    # justification naming another rule must not widen the suppression
    src = ("import time\n"
           "t = time.time()  # noqa: ULF001 unlike ULF002 this is listed\n")
    assert rules_of(check(src)) == ["ULF002"]


def test_noqa_case_and_bare_colon():
    src = "import time\nt = time.time()  # NOQA: ulf002\n"
    assert check(src) == []
    # `noqa:` with nothing parseable degrades to a blanket suppression
    src = "import time\nt = time.time()  # noqa: because I said so\n"
    assert check(src) == []


def test_noqa_applies_to_dataflow_rules_too():
    src = ("async def f(comm):\n"
           "    comm.revoke()\n"
           "    await comm.barrier()  # noqa: ULF007\n")
    assert check(src) == []


def test_syntax_error_becomes_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    violations = lint_file(bad)
    assert [v.rule for v in violations] == ["ULF000"]
