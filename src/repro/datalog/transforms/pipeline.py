"""Composable program transforms with per-stage provenance.

Every rewrite in this package — rectification, adornment, magic sets,
constant propagation — is a pure function ``Program -> Program``.  This
module gives them a uniform :class:`Transform` interface and a
:class:`Pipeline` that composes them while recording what each stage did,
so a :class:`~repro.datalog.session.QuerySession` (or a benchmark, or the
CLI) can both run the composed rewrite and explain it afterwards::

    from repro.datalog.transforms import Pipeline, MagicSets, Rectify

    pipeline = Pipeline([Rectify(), MagicSets()])
    outcome = pipeline.apply(program)
    outcome.program          # the fully rewritten program
    outcome.stages[1].name   # "magic" — and its input/output programs

Chain-program-specific rewrites (the Theorem 3.3 monadic rewrite, the
Section 7 quotient magic sets) live next to their analyses in
:mod:`repro.core.propagation` and :mod:`repro.core.magic_chain` but conform
to the same protocol, so they compose in the same pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Protocol, Tuple, runtime_checkable

from repro.datalog.program import Program
from repro.datalog.transforms.adornment import adorn_program, describe_adornments
from repro.datalog.transforms.constants import propagate_goal_constant
from repro.datalog.transforms.magic import magic_transform
from repro.datalog.transforms.rectify import eliminate_zero_ary


@runtime_checkable
class Transform(Protocol):
    """A named, pure rewrite of Datalog programs."""

    name: str

    def apply(self, program: Program) -> Program:
        """Return the rewritten program; must not mutate the input."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class TransformStage:
    """Provenance record for one pipeline stage."""

    name: str
    input_program: Program
    output_program: Program

    @property
    def rules_added(self) -> int:
        return len(self.output_program.rules) - len(self.input_program.rules)

    def changed(self) -> bool:
        """Whether the stage rewrote anything at all."""
        return (
            self.input_program.rules != self.output_program.rules
            or self.input_program.goal != self.output_program.goal
        )


@dataclass(frozen=True)
class PipelineOutcome:
    """The composed rewrite's result plus the full stage-by-stage history."""

    program: Program
    stages: Tuple[TransformStage, ...]

    def stage(self, name: str) -> TransformStage:
        """The (first) stage with the given transform name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no pipeline stage named {name!r}")

    def describe(self) -> str:
        """A short human-readable summary, one line per stage."""
        if not self.stages:
            return "(identity pipeline: no transforms)"
        lines = []
        for stage in self.stages:
            delta = stage.rules_added
            sign = "+" if delta >= 0 else ""
            status = f"{sign}{delta} rules" if stage.changed() else "no change"
            line = f"{stage.name}: {status} -> {len(stage.output_program.rules)} total"
            if stage.name == MagicSets.name:
                line += "; " + describe_adornments(adorn_program(stage.input_program))
            lines.append(line)
        return "\n".join(lines)


class Pipeline:
    """An ordered composition of :class:`Transform` instances."""

    def __init__(self, transforms: Iterable[Transform] = ()):
        self._transforms: Tuple[Transform, ...] = tuple(transforms)
        for transform in self._transforms:
            if not callable(getattr(transform, "apply", None)):
                raise TypeError(f"{transform!r} does not implement Transform.apply")

    @property
    def transforms(self) -> Tuple[Transform, ...]:
        return self._transforms

    def then(self, *transforms: Transform) -> "Pipeline":
        """A new pipeline with extra transforms appended (pipelines are immutable)."""
        return Pipeline(self._transforms + transforms)

    def apply(self, program: Program) -> PipelineOutcome:
        """Run every stage in order, recording per-stage provenance."""
        stages: List[TransformStage] = []
        current = program
        for transform in self._transforms:
            rewritten = transform.apply(current)
            stages.append(TransformStage(transform.name, current, rewritten))
            current = rewritten
        return PipelineOutcome(current, tuple(stages))

    def __len__(self) -> int:
        return len(self._transforms)

    def __repr__(self) -> str:
        names = " | ".join(t.name for t in self._transforms) or "identity"
        return f"Pipeline({names})"


# ----------------------------------------------------------------------
# Standard transform instances
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionTransform:
    """Adapter turning any ``Program -> Program`` function into a Transform."""

    name: str
    function: Callable[[Program], Program]

    def apply(self, program: Program) -> Program:
        return self.function(program)


@dataclass(frozen=True)
class Rectify:
    """Canonicalise away zero-ary IDB predicates (Lemmas 4.1 / 5.1)."""

    name: str = "rectify"
    constant_value: str = "c0"

    def apply(self, program: Program) -> Program:
        return eliminate_zero_ary(program, self.constant_value)


@dataclass(frozen=True)
class Adorn:
    """Adorn predicates with bound/free annotations from the goal's bindings."""

    name: str = "adorn"

    def apply(self, program: Program) -> Program:
        return adorn_program(program).program


@dataclass(frozen=True)
class MagicSets:
    """The generalized magic-set transformation (reference [5] of the paper)."""

    name: str = "magic"

    def apply(self, program: Program) -> Program:
        return magic_transform(program)


@dataclass(frozen=True)
class PropagateConstants:
    """Push the goal's constant bindings into rule bodies where invariant."""

    name: str = "propagate-constants"

    def apply(self, program: Program) -> Program:
        return propagate_goal_constant(program)
