"""The named choices: the star conventions and the scenario ids.

This module imports no other pqforms module, so the command-line parser can
offer these names, and ``calculus`` can default to ``DEFAULT_CONVENTION``,
without loading the metric, the star or the scenarios.  ``star`` and
``scenarios`` import them from here.
"""

from __future__ import annotations

from typing import Dict, Literal, NamedTuple, get_args

ConjugationMode = Literal["single", "literal_eq_2_9"]
OutputIndexMode = Literal["same_type_complement", "printed_eq_2_9"]


class _Modes(NamedTuple):
    """The fields and defaults of ``StarConvention``, which checks them in
    its own ``__new__``: a ``typing.NamedTuple`` body cannot define one."""

    conjugation_mode: ConjugationMode = "single"
    output_index_mode: OutputIndexMode = "same_type_complement"


class StarConvention(_Modes):
    """Switches selecting between the consistent star and the literal
    printed variant.  Every report records which convention produced it.
    A mode outside its ``Literal`` is rejected here, so the star never
    reads a misspelled mode as the other one."""

    __slots__ = ()

    def __new__(cls, *modes: str, **named: str) -> "StarConvention":
        convention = super().__new__(cls, *modes, **named)
        for field, mode, allowed in zip(cls._fields, convention, (get_args(ConjugationMode), get_args(OutputIndexMode))):
            if mode not in allowed:
                raise ValueError(f"unknown {field} {mode!r}: expected one of {', '.join(map(repr, allowed))}")
        return convention

    @classmethod
    def _make(cls, modes) -> "StarConvention":
        """The namedtuple's other constructor, which ``_replace`` calls, checked too."""
        return cls(*modes)

    def describe(self) -> Dict[str, str]:
        return {
            "conjugation": self.conjugation_mode,
            "output_index": self.output_index_mode,
        }


DEFAULT_CONVENTION = StarConvention()
LITERAL_CONVENTION = StarConvention(
    conjugation_mode="literal_eq_2_9",
    output_index_mode="printed_eq_2_9",
)
# the --convention choices by name; every scenario runs under each, in this order
CONVENTIONS: Dict[str, StarConvention] = {"default": DEFAULT_CONVENTION, "literal": LITERAL_CONVENTION}

# the scenario ids, in the order the parser lists them
SCENARIO_IDS = ("lemma31", "lemma33", "lemma34", "k3")
