"""Production/consumption rate models.

The DISSEMINATION cost model (paper section 2.1) charges ``rp(u)`` for every
push edge out of ``u`` and ``rc(v)`` for every pull edge into ``v``, where
``rp`` is the rate at which a user shares events and ``rc`` the rate at which
it requests its event stream.

The paper has no access to real rates either; section 4.1 synthesizes them
from the observation of Huberman et al. that users with many followers
produce more and users following many others consume more:

* ``rp(u) ∝ log(1 + followers(u))``
* ``rc(u) ∝ log(1 + followees(u))``

scaled so the average consumption/production ratio (the *read/write ratio*)
equals a target — 5 in the reference workload of Silberstein et al., swept up
to 100 in Figure 9.  :func:`log_degree_workload` reproduces that model
exactly; uniform and Zipf alternatives support ablations.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.graph.digraph import Node, SocialGraph

#: Average consumption rate / average production rate in the reference
#: workload (Silberstein et al., adopted by the paper in section 4.1).
REFERENCE_READ_WRITE_RATIO = 5.0


@dataclass(frozen=True)
class Workload:
    """Per-user production and consumption rates.

    Rates are arbitrary non-negative frequencies; only ratios matter to the
    scheduling algorithms, so no unit is imposed.
    """

    production: dict[Node, float] = field(default_factory=dict)
    consumption: dict[Node, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.production) != set(self.consumption):
            raise WorkloadError("production and consumption must cover the same users")
        for rates in (self.production, self.consumption):
            for user, rate in rates.items():
                if rate < 0 or not math.isfinite(rate):
                    raise WorkloadError(f"invalid rate {rate!r} for user {user!r}")

    # ------------------------------------------------------------------
    def rp(self, user: Node) -> float:
        """Production rate of ``user``."""
        try:
            return self.production[user]
        except KeyError:
            raise WorkloadError(f"user {user!r} has no production rate") from None

    def rc(self, user: Node) -> float:
        """Consumption rate of ``user``."""
        try:
            return self.consumption[user]
        except KeyError:
            raise WorkloadError(f"user {user!r} has no consumption rate") from None

    @property
    def users(self) -> frozenset[Node]:
        """Users covered by this workload."""
        return frozenset(self.production)

    @property
    def total_production(self) -> float:
        """Sum of all production rates."""
        return sum(self.production.values())

    @property
    def total_consumption(self) -> float:
        """Sum of all consumption rates."""
        return sum(self.consumption.values())

    @property
    def read_write_ratio(self) -> float:
        """Average consumption rate divided by average production rate."""
        tp = self.total_production
        if tp == 0:
            return math.inf
        return self.total_consumption / tp

    def as_arrays(self, num_nodes: int | None = None) -> "tuple[np.ndarray, np.ndarray]":
        """Rates as dense numpy vectors ``(rp, rc)`` indexed by user id.

        Requires users to be exactly the integers ``0..n-1`` (the id space
        of :class:`~repro.graph.csr.CSRGraph`); raises
        :class:`~repro.errors.WorkloadError` otherwise.  The arrays are
        built once, cached, and returned read-only — they back the
        vectorized cost kernels of :mod:`repro.core`, which fancy-index
        them by edge-endpoint arrays.

        Parameters
        ----------
        num_nodes:
            Optional expected user count; a mismatch raises, catching
            graph/workload drift early.
        """
        cached = self.__dict__.get("_dense_arrays")
        if cached is None:
            n = len(self.production)
            production = np.empty(n, dtype=np.float64)
            consumption = np.empty(n, dtype=np.float64)
            for user, rate in self.production.items():
                if (
                    isinstance(user, bool)
                    or not isinstance(user, int)
                    or not 0 <= user < n
                ):
                    raise WorkloadError(
                        "Workload.as_arrays() requires dense integer user "
                        f"ids 0..{n - 1}; got {user!r} (relabel the graph "
                        "and rebuild the workload first)"
                    )
                production[user] = rate
            for user, rate in self.consumption.items():
                consumption[user] = rate
            production.flags.writeable = False
            consumption.flags.writeable = False
            cached = (production, consumption)
            # frozen dataclass: stash the cache outside the declared fields
            object.__setattr__(self, "_dense_arrays", cached)
        if num_nodes is not None and len(cached[0]) != num_nodes:
            raise WorkloadError(
                f"workload covers {len(cached[0])} users, graph has {num_nodes}"
            )
        return cached

    def clear_array_cache(self) -> None:
        """Drop the :meth:`as_arrays` cache.

        Call after changing the ``production`` / ``consumption`` dicts in
        place, or the vectorized cost kernels keep pricing the old rates.
        """
        self.__dict__.pop("_dense_arrays", None)

    @classmethod
    def from_dense_arrays(
        cls, production: "np.ndarray", consumption: "np.ndarray"
    ) -> "Workload":
        """Build a workload for dense user ids ``0..n-1`` from rate vectors.

        The fast construction path for shard workers and the vectorized
        generators: rates are validated in one vectorized pass (finite,
        non-negative) instead of per item, and the dense-array cache that
        :meth:`as_arrays` would build is pre-seeded with read-only views
        of the inputs — so workers attaching shared-memory rate slabs
        never copy the vectors, only materialize the id-keyed dicts the
        scalar cost paths read.
        """
        rp = np.ascontiguousarray(production, dtype=np.float64)
        rc = np.ascontiguousarray(consumption, dtype=np.float64)
        if rp.ndim != 1 or rp.shape != rc.shape:
            raise WorkloadError(
                "production and consumption must be 1-d vectors of equal "
                f"length; got shapes {rp.shape} and {rc.shape}"
            )
        for label, arr in (("production", rp), ("consumption", rc)):
            if arr.size and (not np.isfinite(arr).all() or bool((arr < 0).any())):
                raise WorkloadError(f"invalid {label} rates: must be finite and >= 0")
        self = object.__new__(cls)
        object.__setattr__(self, "production", dict(enumerate(rp.tolist())))
        object.__setattr__(self, "consumption", dict(enumerate(rc.tolist())))
        rp.flags.writeable = False
        rc.flags.writeable = False
        object.__setattr__(self, "_dense_arrays", (rp, rc))
        return self

    # ------------------------------------------------------------------
    def scaled(self, read_write_ratio: float) -> "Workload":
        """A copy rescaled so :attr:`read_write_ratio` equals the target.

        Production rates are left untouched; consumption rates are multiplied
        by a single constant.  This is the knob Figure 9 sweeps.
        """
        if read_write_ratio <= 0:
            raise WorkloadError(f"read/write ratio must be positive, got {read_write_ratio}")
        current = self.read_write_ratio
        if not math.isfinite(current) or current == 0:
            raise WorkloadError("cannot rescale a workload with zero total production")
        factor = read_write_ratio / current
        return Workload(
            production=dict(self.production),
            consumption={u: r * factor for u, r in self.consumption.items()},
        )

    def with_pull_cost_factor(self, k: float) -> "Workload":
        """Model pulls costing ``k`` times a push (section 2.1 remark).

        Multiplying every consumption rate by ``k`` makes the cost model
        charge pulls ``k`` times more without touching the algorithms.
        """
        if k <= 0:
            raise WorkloadError(f"cost factor must be positive, got {k}")
        return Workload(
            production=dict(self.production),
            consumption={u: r * k for u, r in self.consumption.items()},
        )

    def restricted(self, users: Iterable[Node]) -> "Workload":
        """Rates for a subset of users (e.g. after graph sampling)."""
        keep = set(users)
        missing = keep - set(self.production)
        if missing:
            raise WorkloadError(f"users missing from workload: {sorted(missing)[:5]}")
        return Workload(
            production={u: self.production[u] for u in keep},
            consumption={u: self.consumption[u] for u in keep},
        )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def log_degree_workload(
    graph: SocialGraph,
    read_write_ratio: float = REFERENCE_READ_WRITE_RATIO,
    base_production: float = 1.0,
) -> Workload:
    """The paper's synthetic workload (section 4.1).

    ``rp(u) = base_production * log(1 + followers(u))`` and
    ``rc(u) ∝ log(1 + followees(u))``, with consumption scaled so the average
    read/write ratio matches the target.  Users with zero followers still get
    a small floor rate (``base_production * log(2) / 4``) so no rate is
    exactly zero — real users occasionally post even with no audience, and
    zero rates would make hybrid scheduling degenerate.
    """
    if graph.num_nodes == 0:
        raise WorkloadError("cannot build a workload for an empty graph")
    floor = base_production * math.log(2.0) / 4.0
    production = {
        u: max(base_production * math.log1p(graph.out_degree(u)), floor)
        for u in graph.nodes()
    }
    consumption = {
        u: max(base_production * math.log1p(graph.in_degree(u)), floor)
        for u in graph.nodes()
    }
    workload = Workload(production=production, consumption=consumption)
    return workload.scaled(read_write_ratio)


def uniform_workload(
    graph: SocialGraph,
    production_rate: float = 1.0,
    consumption_rate: float = REFERENCE_READ_WRITE_RATIO,
) -> Workload:
    """Identical rates for every user (ablation baseline)."""
    if production_rate < 0 or consumption_rate < 0:
        raise WorkloadError("rates must be non-negative")
    return Workload(
        production={u: production_rate for u in graph.nodes()},
        consumption={u: consumption_rate for u in graph.nodes()},
    )


def zipf_workload(
    graph: SocialGraph,
    read_write_ratio: float = REFERENCE_READ_WRITE_RATIO,
    exponent: float = 1.2,
    seed: int = 0,
) -> Workload:
    """Zipf-distributed rates uncorrelated with degree (stress ablation).

    Piggybacking exploits the correlation between degree and rate; this
    workload deliberately breaks it to measure how much of the gain survives.
    """
    if exponent <= 0:
        raise WorkloadError(f"exponent must be positive, got {exponent}")
    rng = random.Random(seed)
    users = list(graph.nodes())
    if not users:
        raise WorkloadError("cannot build a workload for an empty graph")
    ranks_p = list(range(1, len(users) + 1))
    ranks_c = list(range(1, len(users) + 1))
    rng.shuffle(ranks_p)
    rng.shuffle(ranks_c)
    production = {u: 1.0 / (r**exponent) for u, r in zip(users, ranks_p)}
    consumption = {u: 1.0 / (r**exponent) for u, r in zip(users, ranks_c)}
    workload = Workload(production=production, consumption=consumption)
    return workload.scaled(read_write_ratio)


def workload_from_mappings(
    production: Mapping[Node, float],
    consumption: Mapping[Node, float],
) -> Workload:
    """Wrap externally supplied rate tables (validated copies)."""
    return Workload(production=dict(production), consumption=dict(consumption))
