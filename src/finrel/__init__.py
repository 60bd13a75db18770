"""Relation algebra on finite point sets.

Composition, inversion, restriction and the predicate suite (full,
idempotent, surjective, single-valued, trivial, gamma) over relations on
{0, ..., n-1}; constructive witness chains turning nontriviality into a
gamma pattern; an exhaustive census of all full relations up to n=5, which
certifies the equivalences on every idempotent one, or on one per
isomorphism class; and the threads of generalized inverse limits (Mahavier
products) over finite chains.

``import finrel`` loads only this package.  The first use of any public
name imports the library modules and binds every name in ``__all__`` here,
so later lookups are plain attribute reads (PEP 562).
"""

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {
    "census": ("SurveyReport", "survey"),
    "core": (
        "PreconditionError",
        "PropertyReport",
        "Relation",
        "compose",
        "identity",
        "inverse",
        "is_full",
        "is_idempotent",
        "is_single_valued",
        "is_surjective",
        "is_trivial",
        "nontriviality_witness",
        "properties",
        "restrict",
        "satisfies_gamma",
        "two_point_witness",
    ),
    "io": ("RelationParseError", "parse_relation", "serialize_relation"),
    "mahavier": ("count_threads", "gamma_relation", "is_coordinatewise_chain", "iter_threads"),
    "witness": (
        "GammaWitness",
        "WitnessChain",
        "gamma_from_seed",
        "gamma_witness",
        "reflexive_pair_witness",
    ),
}

__all__ = sorted(name for names in _HOMES.values() for name in names)


def __getattr__(name: str):
    """Bind all of ``__all__`` on the first access to any of it, then remove
    this hook: CPython does not specialize attribute reads on a module that
    defines ``__getattr__``, which makes each ``finrel.<name>`` about three
    times slower."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    package = __import__(__name__, fromlist=tuple(_HOMES))
    for module, names in _HOMES.items():
        home = getattr(package, module)
        for public in names:
            globals()[public] = getattr(home, public)
    globals().pop("__getattr__", None)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
