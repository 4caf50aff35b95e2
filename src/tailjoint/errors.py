"""Exception hierarchy shared across the package, and the per-sample checks
of stacked samples."""

import numpy as np


class TailjointError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TailjointError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class LevelError(DomainError):
    """A tail level (tau, tau_prime or k) is inconsistent with the sample."""


class IngestionError(TailjointError):
    """A CSV file could not be parsed into a sample."""


class NotPositiveSemidefiniteError(TailjointError):
    """A matrix has a negative eigenvalue beyond the clipping tolerance."""


class SingularCovarianceError(TailjointError):
    """A covariance matrix required to be invertible is singular."""


class NumericError(TailjointError):
    """A numerical routine produced a non-finite intermediate value, or a
    quadrature did not converge."""


class Checks:
    """The first failed check of each sample of a stack of B samples.

    ``checks(bad, error)`` applies one check to the whole stack.  ``bad``
    holds one or more entries per sample, samples along its first axis (a
    (B,) mask, a (B, d) mask, or the (B*d,) rows of the stack's columns);
    a sample with a true entry fails with ``error(j)``, where j is the flat
    index in ``bad`` of that sample's first true entry, unless an earlier
    check failed it.  A failed sample's later arithmetic reads garbage, so
    stacked code runs under ``np.errstate(all="ignore")`` and replaces what a
    failed sample would break (a non-finite matrix before ``eigh``).

    ``Checks()`` (no B) is one sample that raises its first failure at once,
    before the arithmetic that the check guards; that is how every
    single-sample entry point runs the stacked code, as ``RAISE``.
    """

    def __init__(self, b: int | None = None):
        self.first = None if b is None else [None] * b

    def __call__(self, bad, error) -> None:
        bad = np.asarray(bad)
        if not np.count_nonzero(bad):
            return
        if self.first is None:
            raise error(int(np.argmax(bad)))
        rows = bad.reshape(len(self.first), -1)
        for i in np.flatnonzero(rows.any(axis=1)):
            if self.first[i] is None:
                self.first[i] = error(i * rows.shape[1] + int(np.argmax(rows[i])))


RAISE = Checks()
