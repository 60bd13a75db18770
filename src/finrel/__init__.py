"""Relation algebra on finite point sets.

Composition, inversion, restriction and the predicate suite (full,
idempotent, surjective, single-valued, trivial, gamma) over relations on
{0, ..., n-1}; constructive witness chains turning nontriviality into a
gamma pattern; an exhaustive census of all full relations up to n=5, which
certifies the equivalences on every idempotent one, or on one per
isomorphism class; and the threads of generalized inverse limits (Mahavier
products) over finite chains.
"""

from .census import SurveyReport, survey
from .core import (
    PreconditionError,
    PropertyReport,
    Relation,
    compose,
    identity,
    inverse,
    is_full,
    is_idempotent,
    is_single_valued,
    is_surjective,
    is_trivial,
    nontriviality_witness,
    properties,
    restrict,
    satisfies_gamma,
    two_point_witness,
)
from .io import RelationParseError, parse_relation, serialize_relation
from .mahavier import count_threads, gamma_relation, is_coordinatewise_chain, iter_threads
from .witness import (
    GammaWitness,
    WitnessChain,
    gamma_from_seed,
    gamma_witness,
    reflexive_pair_witness,
)

__version__ = "0.1.0"

__all__ = [
    "GammaWitness",
    "PreconditionError",
    "PropertyReport",
    "Relation",
    "RelationParseError",
    "SurveyReport",
    "WitnessChain",
    "compose",
    "count_threads",
    "gamma_from_seed",
    "gamma_relation",
    "gamma_witness",
    "identity",
    "inverse",
    "is_coordinatewise_chain",
    "is_full",
    "is_idempotent",
    "is_single_valued",
    "is_surjective",
    "is_trivial",
    "iter_threads",
    "nontriviality_witness",
    "parse_relation",
    "properties",
    "reflexive_pair_witness",
    "restrict",
    "satisfies_gamma",
    "serialize_relation",
    "survey",
    "two_point_witness",
]
