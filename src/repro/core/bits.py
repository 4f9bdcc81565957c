"""Shared bit-twiddling utilities for packed knowledge words.

Knowledge vectors are bit-packed into ``uint64`` words everywhere in the
batch simulators (:mod:`repro.core.vectorized`), and two hot consumers
need population counts over them: the compiled informed-check of the
kernel step backends (an agent is informed exactly when its words carry
``k`` set bits) and the knowledge-growth curves of
:mod:`repro.experiments.progress_curves`.  Both share the
implementations here instead of hand-rolling their own.

* :func:`popcount` -- vectorized element-wise population count of an
  unsigned/signed integer ndarray, via ``numpy.bitwise_count`` where
  numpy has it (2.0+) and the classic 8-bit lookup on the raw bytes
  otherwise;
* :func:`popcount64` -- scalar Kernighan popcount of one word, written
  njit-compatibly (plain loops, no numpy calls) so the numba backend
  compiles it and the interpreted kernel twin runs it unchanged.

This module must stay import-light: the core simulator's backends
import it, and the rest of the package imports the core simulator.
"""

import numpy as np

#: numpy's native element-wise popcount (numpy >= 2.0), or None.
_bitwise_count = getattr(np, "bitwise_count", None)

#: Population counts of every byte value; the fallback behind :func:`popcount`.
_BYTE_COUNTS = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def popcount(values):
    """Element-wise population count; returns ``int64`` of the same shape.

    Accepts any integer ndarray (or nested sequence); each element's
    count is the number of set bits in its two's-complement byte
    representation, so for the packed ``uint64`` knowledge words this is
    the number of known identifiers per word.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise TypeError(
            f"popcount needs an integer array, got dtype {array.dtype}"
        )
    itemsize = array.dtype.itemsize
    if _bitwise_count is not None:
        # counted on the unsigned view, so negative values keep their
        # two's-complement count
        unsigned = array.view(np.dtype(f"u{itemsize}"))
        return _bitwise_count(unsigned).astype(np.int64)
    flat = np.ascontiguousarray(array).reshape(-1)
    per_byte = _BYTE_COUNTS[flat.view(np.uint8)]
    counts = per_byte.reshape(flat.size, itemsize).sum(axis=1, dtype=np.int64)
    return counts.reshape(array.shape)


#: uint64 constant for :func:`popcount64`: numba promotes ``uint64 op
#: <signed literal>`` to float64, which would corrupt the bit arithmetic,
#: so the decrement must itself be a uint64.
_U64_ONE = np.uint64(1)


def popcount64(word):
    """Scalar population count of one non-negative word (Kernighan's loop).

    The numba step backend compiles this function as-is, and the
    interpreted kernel twin executes the very same code, so the compiled
    and fallback informed checks cannot drift apart.
    """
    count = 0
    while word:
        word &= word - _U64_ONE
        count += 1
    return count
