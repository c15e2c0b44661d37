"""Executable mixed unitary categories.

Three concrete models (dense complex matrices, a desk-scale fragment of
finiteness matrices, and the discrete complex plane), a catalog of coherence
laws checked numerically, and the channel construction over them: Kraus
representatives, equivalence decision, Choi matrices, purification, and
the environment structure each model gives through its ``discard``.
"""

from . import cplane, fmat, matc  # noqa: F401  (imports register the models)
from .cpinf import (ChoiMatrix, KrausMorphism, channel_action,
                    channel_deviation, env_discard, equiv_decide,
                    equiv_testmap_oracle, functor_N, functor_Q,
                    initiality_probe, kraus_compose, kraus_dagger,
                    kraus_identity, kraus_new, kraus_par, kraus_tensor,
                    pure_decomposition, purify, to_choi)
from .laws import LawCheckReport, catalog, check_law
from .morphisms import (Morphism, compose, dagger, get_model, identity, par,
                        registered_models, tensor)
from .objects import BOT, TOP, Base, Dagger, Dual, ObjectExpr, Par, Tensor
from .structural import STRUCTURAL_NAMES, signature, structural
from .suite import SuiteConfig, list_laws, run_suite

__version__ = "0.1.0"

__all__ = [
    "BOT", "Base", "ChoiMatrix", "Dagger", "Dual", "KrausMorphism",
    "LawCheckReport", "Morphism", "ObjectExpr", "Par", "STRUCTURAL_NAMES",
    "SuiteConfig", "TOP", "Tensor", "catalog", "channel_action",
    "channel_deviation", "check_law", "compose", "dagger", "env_discard",
    "equiv_decide", "equiv_testmap_oracle", "functor_N", "functor_Q",
    "get_model", "identity", "initiality_probe", "kraus_compose",
    "kraus_dagger", "kraus_identity", "kraus_new", "kraus_par",
    "kraus_tensor", "list_laws", "par", "pure_decomposition", "purify",
    "registered_models", "run_suite", "signature", "structural", "tensor",
    "to_choi",
]
