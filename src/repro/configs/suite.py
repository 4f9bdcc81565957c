"""Configuration suites: the paper's 1000 random + 3 manual fields."""

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

from repro.configs.random_configs import random_configurations
from repro.configs.special import special_configurations
from repro.configs.types import InitialConfiguration

#: Agent counts evaluated in Table 1 / Fig. 5 (16 x 16 grid).
PAPER_AGENT_COUNTS = (2, 4, 8, 16, 32, 256)

#: Default number of random fields per suite.
DEFAULT_N_RANDOM = 1000

#: Default base seed; any fixed value reproduces identical suites.
DEFAULT_SEED = 2013


def digest_configurations(configurations):
    """SHA-256 hex digest over an iterable of initial configurations.

    Hashes every configuration's positions, headings and initial control
    states, in order, so two sequences share a digest exactly when they
    would make any FSM behave identically.  This is the one hashing of
    suite contents; :attr:`ConfigSuite.fingerprint` and
    :func:`repro.evolution.fitness.suite_fingerprint` both go through it.
    """
    digest = hashlib.sha256()
    for config in configurations:
        digest.update(
            repr((config.positions, config.directions, config.states)).encode()
        )
    return digest.hexdigest()


@dataclass(frozen=True)
class ConfigSuite:
    """An evaluation suite: metadata plus the configurations themselves.

    The suite is immutable, so its content digest (:attr:`fingerprint`)
    is computed on first use and kept: every evaluation request, cache
    key and batch key over one suite object hashes its configurations
    once, not once per use.
    """

    grid_kind: str
    grid_size: int
    n_agents: int
    seed: int
    configurations: Tuple[InitialConfiguration, ...] = field(repr=False)

    @property
    def n_fields(self):
        return len(self.configurations)

    @cached_property
    def fingerprint(self):
        """:func:`digest_configurations` of the configurations, cached.

        Stored in the instance ``__dict__`` (which a frozen dataclass
        still has), so it travels with the suite through pickling.
        """
        return digest_configurations(self.configurations)

    def __iter__(self):
        return iter(self.configurations)

    def __len__(self):
        return len(self.configurations)

    def __getitem__(self, index):
        return self.configurations[index]


def paper_suite(grid, n_agents, n_random=DEFAULT_N_RANDOM, seed=DEFAULT_SEED):
    """The paper's evaluation suite for one (grid, agent count) pair.

    ``n_random`` random fields plus the manual cases that fit -- with the
    defaults this is the paper's ``N_fields = 1003`` (1000 random, 3
    manual) whenever ``n_agents <= M``, and 1002 for larger counts where
    the diagonal case does not exist.
    """
    configurations = random_configurations(grid, n_agents, n_random, seed)
    configurations.extend(special_configurations(grid, n_agents))
    return ConfigSuite(
        grid_kind=grid.kind,
        grid_size=grid.size,
        n_agents=n_agents,
        seed=seed,
        configurations=tuple(configurations),
    )
