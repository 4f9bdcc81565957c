"""Randomly generated initial configurations (positions and directions).

A suite's fields come from one seeded numpy stream, field after field:
``rng.choice(n_free, k, replace=False)`` places the agents and
``rng.integers(0, D, k)`` heads them.  :func:`random_fields` does not
make those ``2 * n_fields`` calls.  It reads the stream's raw words in
bulk and replays what the calls do with them:

* ``Generator`` turns each raw ``uint64`` into two ``uint32`` draws, low
  half first, and bounds a draw to ``range`` with Lemire's rule
  ``(u * range) >> 32``.  The bounds are known in advance: Floyd's
  sampling draws ``j + 1`` for ``j = n_free - k ... n_free - 1`` (``j =
  0`` draws nothing), the Fisher-Yates shuffle of the ``k`` picks draws
  ``i + 1`` for ``i = k - 1 ... 1``, then come the ``k`` headings (``D``).
  So every field takes the same number of draws, at the same bounds.
* Floyd's membership step and the shuffle's swaps then run once per
  column, over all fields of a row block at a time.  With ``k ==
  n_free`` Floyd's picks are ``0 ... n_free - 1``.

The result is the loop's, bit for bit, unless Lemire's rule would reject
a draw (the product's low word falls under ``(2**32 - range) % range``)
and draw again.  Then the whole suite is drawn by the loop from a fresh
generator.  The loop also runs for ``n_free > 10000``, where ``choice``
may take a tail shuffle instead of Floyd, and when the replay's first
field is not the loop's (a numpy release that draws differently).
:func:`random_configuration` keeps the loop: its generator belongs to the
caller, whose state after the call must be the loop's.
"""

import numpy as np

from repro.configs.types import configurations_from_arrays

#: ``choice(n, k, replace=False)`` runs Floyd's algorithm up to this
#: population; above it a large sample takes a tail shuffle instead.
_FLOYD_POPULATION = 10000
#: A row block of :func:`_sample_at_once` holds about this many draws
#: (``uint64`` products) or Floyd marks (one per free cell and field),
#: whichever a field has more of.
_BLOCK_DRAWS = 1 << 18


def _free_cells(grid, n_agents, environment):
    """The flat cells ``x * M + y`` agents may start on, ascending."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    free = np.ones(grid.n_cells, dtype=bool)
    if environment is not None:
        for x, y in environment.obstacles:
            free[x * grid.size + y] = False
    free_cells = np.flatnonzero(free)
    if n_agents > free_cells.size:
        raise ValueError(
            f"{n_agents} agents do not fit on {free_cells.size} free cells"
        )
    return free_cells


def _sample_loop(n_free, n_agents, n_fields, n_directions, rng):
    """``(chosen, directions)``, each ``(n_fields, n_agents)`` int64: row
    ``i`` is one ``rng.choice`` of free-cell indices and then one
    ``rng.integers`` of headings -- this call order fixes every suite's
    fields."""
    chosen = np.empty((n_fields, n_agents), dtype=np.int64)
    directions = np.empty_like(chosen)
    for row in range(n_fields):
        chosen[row] = rng.choice(n_free, size=n_agents, replace=False)
        directions[row] = rng.integers(0, n_directions, size=n_agents)
    return chosen, directions


def _draw_fields(grid, n_agents, n_fields, rng, environment):
    """``(cells, directions)``, each ``(n_fields, n_agents)`` int64, drawn
    field by field from ``rng`` (:func:`_sample_loop`)."""
    free_cells = _free_cells(grid, n_agents, environment)
    chosen, directions = _sample_loop(free_cells.size, n_agents, n_fields,
                                      grid.n_directions, rng)
    return free_cells[chosen], directions


def _draw_ranges(n_free, n_agents, n_directions):
    """The exclusive bound of each ``uint32`` draw one field makes, in
    call order: Floyd's, the shuffle's, the headings'."""
    return np.concatenate([
        np.arange(max(n_free - n_agents, 1), n_free) + 1,
        np.arange(n_agents, 1, -1),
        np.full(n_agents, n_directions),
    ]).astype(np.uint64)


def _rejected(products, ranges):
    """Whether Lemire's rule redraws any of ``products = u * range``: the
    product's low word falls under ``(2**32 - range) % range``."""
    thresholds = ((np.uint64(2**32) - ranges) % ranges).astype(np.uint32)
    return bool((products.astype(np.uint32) < thresholds).any())


def _draw_block(bit_generator, ranges, n_free, chosen, directions):
    """Fill ``chosen`` and ``directions``, a row block of the suite's
    arrays, with the stream's next fields as :func:`_sample_loop` draws
    them; ``False`` if a draw is rejected.

    The block's draws must fill whole raw words, except in the last
    block, so that the next block starts on one."""
    n_rows, n_agents = chosen.shape
    n_draws = n_rows * ranges.size
    raw = bit_generator.random_raw((n_draws + 1) // 2)
    # low half first, on any byte order
    words = raw.astype("<u8", copy=False).view("<u4")[:n_draws]
    products = words.reshape(n_rows, ranges.size).astype(np.uint64)
    products *= ranges
    if _rejected(products, ranges):
        return False
    products >>= np.uint64(32)
    values = products.view(np.int64)
    lanes = np.arange(n_rows)
    if n_agents == n_free:
        chosen[:] = np.arange(n_free)
    else:
        # Floyd: column c draws from 0 ... j and takes j where the row
        # already holds the value drawn
        taken = np.zeros(n_rows * n_free, dtype=bool)
        base = lanes * n_free
        for column, j in enumerate(range(n_free - n_agents, n_free)):
            pick = values[:, column].copy()
            pick[taken[pick + base]] = j
            taken[pick + base] = True
            chosen[:, column] = pick
    # Fisher-Yates over the picks: position i = k - 1 ... 1 swaps with
    # the drawn position
    n_floyd = min(n_agents, n_free - 1)
    swaps = values[:, n_floyd:n_floyd + n_agents - 1] + (
        lanes * n_agents)[:, None]
    flat = chosen.reshape(-1)
    for column, i in enumerate(range(n_agents - 1, 0, -1)):
        swap = swaps[:, column]
        held = flat.take(swap)
        flat.put(swap, chosen[:, i])
        chosen[:, i] = held
    directions[:] = values[:, n_floyd + n_agents - 1:]
    return True


def _sample_at_once(n_free, n_agents, n_fields, n_directions, key):
    """:func:`_sample_loop` on a fresh ``default_rng(key)``, replayed in
    row blocks from the raw stream; ``None`` where the replay would not be
    exact (see the module docstring)."""
    if n_free > _FLOYD_POPULATION:
        return None
    ranges = _draw_ranges(n_free, n_agents, n_directions)
    # an even number of fields a block starts every block on a raw word
    block = max(2, _BLOCK_DRAWS // max(ranges.size, n_free)) & ~1
    bit_generator = np.random.PCG64(key)
    chosen = np.empty((n_fields, n_agents), dtype=np.int64)
    directions = np.empty_like(chosen)
    for start in range(0, n_fields, block):
        rows = slice(start, start + block)
        if not _draw_block(bit_generator, ranges, n_free, chosen[rows],
                           directions[rows]):
            return None
    first = _sample_loop(n_free, n_agents, 1, n_directions,
                         np.random.default_rng(key))
    if not all(np.array_equal(mine[:1], loop)
               for mine, loop in zip((chosen, directions), first)):
        return None
    return chosen, directions


def random_configuration(grid, n_agents, rng, name="", environment=None):
    """One random placement: distinct cells, independent random headings.

    With an ``environment`` carrying obstacles, agents are only placed on
    free cells.
    """
    cells, directions = _draw_fields(grid, n_agents, 1, rng, environment)
    (config,) = configurations_from_arrays(grid.size, cells, directions,
                                           [name])
    return config


def random_fields(grid, n_agents, n_fields, seed, environment=None):
    """``(cells, directions, names)`` of ``n_fields`` reproducible random
    fields, as :class:`repro.configs.ConfigSuite` stores them.

    The generator is seeded with ``(seed, size, n_agents)`` plus a grid
    tag, so every (grid, agent count) pair gets its own independent but
    repeatable stream -- re-running an experiment regenerates the same
    fields.  Field ``i`` is exactly the ``i``-th
    :func:`random_configuration` drawn from that stream; the fields are
    replayed from the raw stream in one pass where that is exact, and
    drawn one by one where it is not (see the module docstring).
    """
    free_cells = _free_cells(grid, n_agents, environment)
    key = [seed, grid.size, n_agents, 0 if grid.kind == "S" else 1]
    drawn = _sample_at_once(free_cells.size, n_agents, n_fields,
                            grid.n_directions, key)
    if drawn is None:
        drawn = _sample_loop(free_cells.size, n_agents, n_fields,
                             grid.n_directions, np.random.default_rng(key))
    chosen, directions = drawn
    names = tuple(f"random-{index}" for index in range(n_fields))
    return free_cells[chosen], directions, names


def random_configurations(grid, n_agents, n_fields, seed, environment=None):
    """The fields of :func:`random_fields` as a list of configurations."""
    return list(configurations_from_arrays(
        grid.size, *random_fields(grid, n_agents, n_fields, seed, environment)
    ))
