"""Protocol-model rules ULF016-ULF020: extraction + checking as a lint pass.

This is the third analysis layer (after the syntactic visitor and the
dataflow engine): any top-level function annotated
``# repro: protocol`` is extracted to protocol IR and model-checked
over every failure placement at its annotated rank count.  Violations
come back as ordinary :class:`~repro.analysis.linter.LintViolation`
objects, so ``repro lint`` and the SARIF emitter pick them up with no
special casing; ``repro verify-protocol`` additionally renders the
per-rank counterexample timelines.

=======  =============================================================
ULF016   cross-rank collective-sequence divergence under failure: two
         members of a communicator issue different operations at the
         same rendezvous (or one finishes while a peer still waits)
ULF017   unreachable/incomplete repair state: a survivor waits on a
         phase no live rank will enter (stranded recv, unhandled
         failure, repair abandoned past its retry budget)
ULF018   checkpoint-epoch inconsistency: restores of the same repair
         round observe different checkpoint epochs
ULF019   spawn/merge handshake mismatch: spawn counts or merge
         ordering flags disagree, or a rank blocks forever inside the
         spawn/merge/bridge-agree handshake
ULF020   revoke-propagation gap: a failure exception (revoked
         communicator) escapes the protocol — a post-failure
         collective was reachable before the revoke was observed
=======  =============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from ..linter import RULES, LintViolation
from .checker import CheckResult, ModelError, ProtocolModel, check_model
from .extract import (ExtractError, build_module_env, extract_app,
                      extract_function, find_protocol_models,
                      reconstruct_registry)

__all__ = ["MODEL_RULES", "SourceModel", "ModeReport", "iter_source_models",
           "check_protocol_models", "verify_modes"]

#: rule id -> one-line description: the model rules of ``linter.RULES``
MODEL_RULES: Dict[str, str] = {
    rule: RULES[rule] for rule in ("ULF016", "ULF017", "ULF018", "ULF019",
                                   "ULF020")}


@dataclass
class SourceModel:
    """One annotated entry point extracted from a source file."""

    name: str
    path: str
    model: ProtocolModel
    lineno: int


@dataclass
class ModeReport:
    """verify-protocol result for one recovery mode."""

    mode: str
    source: SourceModel
    result: CheckResult

    @property
    def ok(self) -> bool:
        return self.result.ok


def iter_source_models(source: str, path: str) -> Iterator[SourceModel]:
    """Extract every annotated protocol model in ``source``.  Raises
    :class:`ExtractError` on an annotation the extractor cannot honour."""
    tree = ast.parse(source, filename=path)
    annotated = find_protocol_models(tree, source)
    if not annotated:
        return
    env = build_module_env(tree, path)
    registry = reconstruct_registry()
    for func, params in annotated:
        f = int(params.get("failures", 1))
        main = extract_function(func, env, failures=f, registry=registry)
        child = None
        child_name = params.get("child")
        if child_name:
            child_fn = env.funcs.get(str(child_name))
            if child_fn is None:
                raise ExtractError(
                    f"protocol model {func.name}: child entry point "
                    f"{child_name!r} not found in {path}", func.lineno)
            child = extract_function(child_fn, env, failures=f,
                                     registry=registry)
        model = ProtocolModel(main, ranks=int(params.get("ranks", 4)),
                              child=child, failures=f)
        yield SourceModel(func.name, path, model, func.lineno)


def check_protocol_models(tree: ast.Module, path: str,
                          source: str) -> List[LintViolation]:
    """Lint hook: model-check every annotated function in the file.

    Extraction or checker failures surface as ULF000 (analysis could
    not complete) rather than silently passing the file.
    """
    # cheap pre-scan before touching the extractor machinery
    if not find_protocol_models(tree, source):
        return []
    out: List[LintViolation] = []
    try:
        for sm in iter_source_models(source, path):
            result = check_model(sm.model)
            for v in result.violations:
                out.append(LintViolation(
                    v.rule, path, v.lineno or sm.lineno, 1,
                    f"{v.message} [model {sm.name}, "
                    f"ranks={sm.model.ranks}, "
                    f"failures={sm.model.failures}; run 'repro "
                    f"verify-protocol' for the step timeline]"))
    except ExtractError as exc:
        out.append(LintViolation(
            "ULF000", path, exc.lineno or 1, 1,
            f"protocol extraction failed: {exc}"))
    except ModelError as exc:
        out.append(LintViolation(
            "ULF000", path, 1, 1, f"protocol model check failed: {exc}"))
    return out


def verify_modes(modes: Optional[List[str]] = None, *,
                 ranks: Optional[int] = None,
                 failures: Optional[int] = None,
                 registry=None) -> List[ModeReport]:
    """Model-check the shipped recovery configurations
    (CR/RC/AC/SHRINK/NC): ``CombinationApp.run`` extracted with each
    mode's strategy and technique bound (:mod:`.modes`).

    Returns one report per requested mode, in request order.  Unknown
    mode names raise ``ValueError`` (the CLI maps that to exit 2).
    ``registry`` overrides :func:`reconstruct_registry` (the shipped
    code the models are extracted from).
    """
    from ...ft.recovery import technique_by_code
    from ...ft.strategy import strategy_by_mode
    from . import modes as world

    wanted = [m.upper() for m in (modes or list(world.MODES))]
    unknown = [m for m in wanted if m not in world.MODES]
    if unknown:
        raise ValueError(
            f"unknown recovery mode(s) {', '.join(unknown)}; "
            f"choose from {', '.join(world.MODES)}")
    if registry is None:
        registry = reconstruct_registry()
    f = 1 if failures is None else int(failures)
    r = world.DEFAULT_RANKS if ranks is None else int(ranks)
    reports = []
    for mode in wanted:
        strategy, technique = world.MODES[mode]
        table = dict(world.ABSTRACTION)
        table["CombinationApp.strategy"] = ("class",
                                 type(strategy_by_mode(strategy)).__name__)
        table["CombinationApp.technique"] = ("class",
                                  type(technique_by_code(technique)).__name__)
        sk = extract_app(registry, table, failures=f,
                         name=f"CombinationApp.run[{strategy}, {technique}]")
        model = ProtocolModel(sk, ranks=r, child=sk, failures=f)
        source = SourceModel(sk.name, sk.path, model,
                             registry["CombinationApp"][0].lineno)
        reports.append(ModeReport(mode, source, check_model(model)))
    return reports
