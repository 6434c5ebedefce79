"""Protocol-model vocabulary: names the skeleton extractor understands.

Protocol fixtures call these so their bodies are valid, importable
Python, but the functions are **markers**: the extractor recognises them
by name and lowers each to its protocol-IR op (see
``extract.Extractor._call_stmt``).  The runtime
implementations exist only so accidental execution fails loudly instead
of silently computing nothing.
"""

from __future__ import annotations

__all__ = ["ckpt_write", "ckpt_restore"]


def _marker(name: str):
    raise RuntimeError(
        f"{name} is a protocol-model marker: protocol fixtures are "
        f"extracted by repro.analysis.model, never executed")


def ckpt_write(group, epoch):
    """Record a checkpoint for grid ``group`` at epoch ``epoch``.

    Models ``ft.checkpoint.write_checkpoint``: one entry per (grid,
    rank-slot) in the shared checkpoint store.
    """
    _marker("ckpt_write")


def ckpt_restore(group):
    """Read grid ``group``'s checkpoint epoch for the calling slot.

    Models ``ft.checkpoint.restore_checkpoint``; the checker compares
    the epochs observed by restores of the same repair round (ULF018).
    """
    _marker("ckpt_restore")
