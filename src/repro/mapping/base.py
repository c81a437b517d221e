"""Abstract base class for DDSketch key mappings.

A key mapping assigns every positive float to an integer bucket key so that the
value reported back for that key (:meth:`KeyMapping.value`) is within a
relative distance ``relative_accuracy`` of every value assigned to the key.
This is Lemma 2 of the paper: with ``gamma = (1 + alpha) / (1 - alpha)`` and
buckets ``(gamma**(i-1), gamma**i]``, the midpoint-in-log-space representative
``2 * gamma**i / (gamma + 1)`` is an ``alpha``-accurate estimate of any value
in bucket ``i``.

Concrete subclasses differ in how they compute (an approximation of)
``log_gamma(x)``: the exact logarithm (:class:`~repro.mapping.LogarithmicMapping`)
gives the fewest buckets, while interpolated variants trade extra buckets for a
cheaper index computation, matching the "DDSketch (fast)" configuration from
the paper's evaluation.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import IllegalArgumentError

# Smallest and largest positive values that any mapping is required to handle.
# Values below MIN_SAFE_FLOAT are treated as zero by DDSketch (they go to the
# dedicated zero bucket), and values above MAX_SAFE_FLOAT are rejected to avoid
# overflowing gamma**index computations.
MIN_SAFE_FLOAT: float = sys.float_info.min * 1e3
MAX_SAFE_FLOAT: float = sys.float_info.max / 1e3


class KeyMapping(ABC):
    """Maps positive floats to integer bucket keys with relative-error control.

    Parameters
    ----------
    relative_accuracy:
        The target relative accuracy ``alpha``; must be in ``(0, 1)``.
    offset:
        An arbitrary integer shift applied to every key.  Sketches can only be
        merged when their mappings share the same ``gamma`` and offset; the
        offset exists so that serialized sketches produced by other
        implementations (which may use a non-zero shift) can be decoded.
    """

    def __init__(self, relative_accuracy: float, offset: float = 0.0) -> None:
        if (
            not isinstance(relative_accuracy, (int, float))
            or math.isnan(relative_accuracy)
            or relative_accuracy <= 0
            or relative_accuracy >= 1
        ):
            raise IllegalArgumentError(
                "relative_accuracy must be a float in (0, 1), got "
                f"{relative_accuracy!r}"
            )
        self._relative_accuracy = float(relative_accuracy)
        self._offset = float(offset)

        gamma_mantissa = 2 * relative_accuracy / (1 - relative_accuracy)
        # gamma = (1 + alpha) / (1 - alpha) = 1 + 2 * alpha / (1 - alpha)
        self._gamma = 1 + gamma_mantissa
        # Using log1p keeps precision for small alpha where gamma is close to 1.
        self._multiplier = 1 / math.log1p(gamma_mantissa)
        # The integer key space is effectively unbounded for any representable
        # float, so the only constraints are the floats themselves.
        self._min_possible = MIN_SAFE_FLOAT
        self._max_possible = MAX_SAFE_FLOAT

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def relative_accuracy(self) -> float:
        """The relative accuracy ``alpha`` guaranteed by this mapping."""
        return self._relative_accuracy

    @property
    def gamma(self) -> float:
        """The bucket growth factor ``(1 + alpha) / (1 - alpha)``."""
        return self._gamma

    @property
    def offset(self) -> float:
        """The constant shift added to every key."""
        return self._offset

    @property
    def min_possible(self) -> float:
        """The smallest positive value this mapping can index without overflow."""
        return self._min_possible

    @property
    def max_possible(self) -> float:
        """The largest positive value this mapping can index without overflow."""
        return self._max_possible

    # ------------------------------------------------------------------ #
    # Core mapping operations
    # ------------------------------------------------------------------ #

    def key(self, value: float) -> int:
        """Return the integer bucket key for a positive ``value``.

        The key is ``ceil(log_gamma(value)) + offset`` for the exact
        logarithmic mapping; approximate mappings may return a slightly
        different key but always one whose bucket still satisfies the relative
        accuracy guarantee.
        """
        return int(math.ceil(self._log_gamma(value)) + self._offset)

    def key_batch(self, values: "np.ndarray") -> "np.ndarray":
        """Compute bucket keys for a whole array of positive values at once.

        This is the mapping half of the batch-ingestion hot path: one array
        expression replaces ``len(values)`` Python-level :meth:`key` calls.
        Concrete mappings override this with a fully vectorized computation
        (NumPy ``log``/``frexp`` plus the polynomial evaluated on the array);
        this base implementation is a correct per-item fallback for mappings
        that have no vectorized form.

        The grouped high-cardinality pipeline
        (:meth:`repro.core.BaseDDSketch.add_grouped_batch`) relies on one
        property of this method: because the key of a value depends only on
        the mapping (compared via ``__eq__``), a single ``key_batch`` call
        can serve a whole batch spanning *many* sketches, as long as they
        share an equal mapping.

        Parameters
        ----------
        values : numpy.ndarray
            One-dimensional array of positive finite floats.  Every element
            must be indexable by this mapping, i.e. lie in
            ``(min_possible, max_possible]``; behaviour on other inputs is
            undefined (the sketch layer routes zeros/negatives away before
            calling this).

        Returns
        -------
        numpy.ndarray
            ``int64`` array of the same length, where ``result[i] ==
            self.key(values[i])`` exactly.

        Notes
        -----
        Complexity is ``O(len(values))`` with NumPy-level constants for the
        vectorized overrides and Python-level constants for this fallback.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        return np.fromiter(
            (self.key(value) for value in values.tolist()),
            dtype=np.int64,
            count=values.size,
        )

    def value(self, key: int) -> float:
        """Return the representative value of the bucket identified by ``key``.

        The representative is chosen so that it is within ``relative_accuracy``
        of every value that maps to ``key`` (Lemma 2 of the paper).
        """
        return self._pow_gamma(key - self._offset) * (2.0 / (1 + self._gamma))

    def value_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Compute representative values for a whole array of keys at once.

        The inverse counterpart of :meth:`key_batch` and the mapping half of
        the multi-quantile read path: one array expression replaces
        ``len(keys)`` Python-level :meth:`value` calls.  Concrete mappings
        override this with a fully vectorized computation; this base
        implementation is a correct per-item fallback.

        Parameters
        ----------
        keys : numpy.ndarray
            One-dimensional array of integer bucket keys.

        Returns
        -------
        numpy.ndarray
            ``float64`` array of the same length, where ``result[i] ==
            self.value(keys[i])`` exactly — the vectorized overrides use the
            same elementwise IEEE-754 operations as the scalar path.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        return np.fromiter(
            (self.value(key) for key in keys.tolist()),
            dtype=np.float64,
            count=keys.size,
        )

    def with_doubled_gamma(self) -> "KeyMapping":
        """Return the same mapping family refined to the squared ``gamma``.

        This is the mapping half of a uniform collapse (UDDSketch, Epicoco et
        al., 2020): folding even/odd bucket pairs ``k -> ceil(k / 2)`` in the
        store turns a sketch with growth factor ``gamma`` into exactly the
        sketch with growth factor ``gamma**2``, whose relative accuracy is

            ``alpha' = 2 * alpha / (1 + alpha**2)``

        (substitute ``gamma**2 = ((1 + alpha) / (1 - alpha))**2`` into
        ``alpha' = (gamma' - 1) / (gamma' + 1)``).  The key offset is halved,
        which keeps the refined mapping consistent with the store-side fold
        **only for offset 0** (``key = ceil(log_gamma(x)) + offset`` folds to
        ``ceil(key / 2)``, which equals ``ceil(log_{gamma^2}(x)) + offset/2``
        exactly when the offset term vanishes; an odd or fractional offset is
        off the folded grid by up to one bucket).  :class:`repro.core.UDDSketch`
        therefore requires an offset-0 mapping.  For offset 0 the
        correspondence is exact for the logarithmic mapping
        (``ceil(ceil(y) / 2) == ceil(y / 2)``) and holds to within the usual
        one-bucket approximation for the interpolated mappings.
        """
        alpha = self._relative_accuracy
        return type(self)(
            relative_accuracy=(2.0 * alpha) / (1.0 + alpha * alpha),
            offset=self._offset / 2.0,
        )

    def lower_bound(self, key: int) -> float:
        """Return the exclusive lower bound of the bucket identified by ``key``."""
        return self._pow_gamma(key - self._offset - 1)

    def upper_bound(self, key: int) -> float:
        """Return the inclusive upper bound of the bucket identified by ``key``."""
        return self._pow_gamma(key - self._offset)

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #

    def _kernel_transform(self):
        """Describe this mapping to the compiled ingest kernel, if possible.

        Returns ``(mode, multiplier, key_offset)`` — where ``mode`` is one of
        ``"log"``/``"linear"``/``"quadratic"``/``"cubic"`` — when the key
        computation ``ceil(approx(x) * multiplier) + key_offset`` can be
        evaluated by :mod:`repro.kernel.native`'s fused C pass, or ``None``
        when it cannot (the kernel then transparently uses this mapping's
        :meth:`key_batch` through the NumPy reference backend, so subclassing
        a mapping never changes results — only speed).  Concrete built-in
        mappings override this with an exact-type guard for the same reason.
        """
        return None

    @abstractmethod
    def _log_gamma(self, value: float) -> float:
        """Return (an approximation of) ``log_gamma(value)`` scaled for keys."""

    @abstractmethod
    def _pow_gamma(self, key: float) -> float:
        """Inverse of :meth:`_log_gamma`."""

    # ------------------------------------------------------------------ #
    # Equality, hashing, representation
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        # Same-type operands first: every merge compares two mappings, and
        # an isinstance check against this abstract class is slow.
        if type(other) is type(self):
            return (
                self._relative_accuracy == other._relative_accuracy
                and self._offset == other._offset
            )
        if not isinstance(other, KeyMapping):
            return NotImplemented
        return False

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._relative_accuracy, self._offset))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(relative_accuracy={self._relative_accuracy!r}, "
            f"offset={self._offset!r})"
        )
