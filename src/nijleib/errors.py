"""Exception hierarchy shared by all modules."""


class NijleibError(Exception):
    pass


class ShapeError(NijleibError, ValueError):
    """Dimension mismatch between operands."""


class PreconditionError(NijleibError, ValueError):
    """A mathematical hypothesis required by an operation does not hold."""


class CatalogError(NijleibError, KeyError):
    """Unknown catalog entry name."""


class ResourceLimitError(NijleibError, RuntimeError):
    """A fixed resource guard (grid size, degree cap) was exceeded."""


class BundleError(NijleibError, ValueError):
    """Malformed or invalid input file; message carries the location."""
