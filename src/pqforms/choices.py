"""The named choices: the star conventions and the scenario ids.

This module imports no other pqforms module, so the command-line parser can
offer these names, and ``calculus`` can default to ``DEFAULT_CONVENTION``,
without loading the metric, the star or the scenarios.  ``star`` and
``scenarios`` import them from here.
"""

from __future__ import annotations

from typing import Dict, Literal, NamedTuple

ConjugationMode = Literal["single", "literal_eq_2_9"]
OutputIndexMode = Literal["same_type_complement", "printed_eq_2_9"]


class StarConvention(NamedTuple):
    """Switches selecting between the consistent star and the literal
    printed variant.  Every report records which convention produced it."""

    conjugation_mode: ConjugationMode = "single"
    output_index_mode: OutputIndexMode = "same_type_complement"

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
