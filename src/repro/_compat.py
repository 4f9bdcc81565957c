"""Deprecation shims: renamed keyword arguments and grid-kind spellings.

The public surface historically mixed spellings (``t_max`` vs ``tmax``,
``n_workers`` vs ``workers``, upper- vs lower-case grid letters).  The
canonical spellings are ``t_max``, ``n_workers`` and upper-case ``"S"`` /
``"T"``; everything else keeps working for one release through the
helpers here, each use emitting a :class:`DeprecationWarning`.
"""

import functools
import warnings


def warn_deprecated(old, new, stacklevel=3):
    """Emit the one deprecation message format used across the package."""
    warnings.warn(
        f"{old} is deprecated; use {new} instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )


def renamed_kwargs(**aliases):
    """Decorator mapping deprecated keyword names onto canonical ones.

    ``@renamed_kwargs(tmax="t_max", workers="n_workers")`` lets callers
    keep passing ``tmax=``/``workers=`` (with a warning); passing both
    the old and the new spelling is an error, not a silent override.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for old, new in aliases.items():
                if old in kwargs:
                    if new in kwargs:
                        raise TypeError(
                            f"{fn.__name__}() got both {old!r} (deprecated) "
                            f"and its replacement {new!r}"
                        )
                    warn_deprecated(
                        f"{fn.__name__}({old}=...)", f"{new}="
                    )
                    kwargs[new] = kwargs.pop(old)
            return fn(*args, **kwargs)

        wrapper.__wrapped_aliases__ = dict(aliases)
        return wrapper

    return decorate


#: Accepted spellings of the two grid kinds; canonical are the keys' values.
_GRID_KIND_ALIASES = {
    "S": "S",
    "T": "T",
    "s": "S",
    "t": "T",
    "square": "S",
    "triangulate": "T",
}


def normalize_grid_kind(kind, warn=True):
    """Canonical ``"S"`` / ``"T"`` from any accepted spelling.

    Lower-case letters and the full names (``"square"`` /
    ``"triangulate"``) are deprecated aliases: they resolve, but warn
    (unless ``warn=False`` -- wire decoding stays alias-tolerant without
    spamming a server's log).
    """
    try:
        canonical = _GRID_KIND_ALIASES[kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown grid kind {kind!r}; expected 'S' or 'T'"
        ) from None
    if warn and kind != canonical:
        warn_deprecated(f"grid kind {kind!r}", f"{canonical!r}")
    return canonical
