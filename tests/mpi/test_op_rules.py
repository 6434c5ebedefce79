"""The ULFM operation table (``repro.mpi.collectives.OP_RULES``) names
exactly the communicator surface, and the protocol model reads no
operation the simulator does not have."""

from repro.analysis.model.ir import METHODS
from repro.mpi import CommHandle, IntercommHandle
from repro.mpi.collectives import CREATES_COMM, OP_RULES, RvKind

#: handle properties that read the communicator, not operations on it
ACCESSORS = {"size", "group", "name", "universe", "local_size",
             "remote_size"}


def public(cls):
    return {n for n in dir(cls) if not n.startswith("_")}


def test_table_is_the_public_surface():
    assert set(OP_RULES) == \
        (public(CommHandle) | public(IntercommHandle)) - ACCESSORS


def test_creators_are_rendezvous_operations():
    assert CREATES_COMM <= set(OP_RULES)
    assert {OP_RULES[op] for op in CREATES_COMM} <= \
        {RvKind.NORMAL, RvKind.SURVIVOR}


def test_model_methods_are_simulator_operations():
    """Beyond the table the model knows only the solver's stepping calls,
    which it abstracts as one ``halo`` segment."""
    assert set(METHODS) - set(OP_RULES) == {"halo", "step"}
