"""Exception hierarchy shared across the package."""


class MucinfError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(MucinfError):
    """Domains/codomains (or matrix shapes) do not line up."""


class ModelMismatch(MucinfError):
    """Two morphisms from different models were combined."""


class TypingError(MucinfError):
    """A morphism does not have the type an operation requires."""


class DomCodMismatch(MucinfError):
    """Two channel representatives do not share domain and codomain."""


class UnsupportedInModel(MucinfError):
    """The requested construction does not exist in this model."""


class ArityError(MucinfError):
    """Wrong number of object arguments for a structural map."""


class NotHermitian(MucinfError):
    """A matrix expected to be Hermitian is not (within tolerance)."""


class NotPSD(MucinfError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class SpaceMismatch(MucinfError):
    """Sparse matrices over incompatible finiteness spaces were combined."""


class DimensionOverflow(MucinfError):
    """An operation would produce a payload beyond desk scale: a side over
    2**16 or more than 2**24 entries."""


class UnknownModel(MucinfError):
    """No model registered under the given id."""


class UnknownLaw(MucinfError):
    """No law registered under the given id."""
