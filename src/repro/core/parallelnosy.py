"""PARALLELNOSY: the scalable parallel heuristic (paper section 3.2).

PARALLELNOSY trades CHITCHAT's approximation guarantee for scalability via
two simplifications: it only considers single-consumer hub-graphs
``G(X, w, {y})`` (one per social edge ``w -> y``), and it makes many
optimization decisions per iteration in parallel, using edge locks to keep
concurrent decisions consistent.  Every iteration runs three synchronous
phases:

1. **Candidate selection** — for each edge ``w -> y`` not yet hub-covered,
   build ``X`` (common predecessors whose cross-edge to ``y`` is still
   unscheduled), compute the saved cost ``s(X, w, y)`` (the hybrid cost of
   the covered cross-edges) and the positive cost ``c(X, w, y)`` (the
   not-yet-paid push/pull legs); candidates need positive gain.
2. **Edge locking** — every edge grants its lock to the highest-gain
   candidate requesting it (deterministic tie-break on the hub-edge id).
3. **Scheduling decision** — fully locked candidates apply; partially locked
   candidates retry with the subset ``X'`` whose legs they did lock,
   re-checking the gain.

The in-memory engine here executes the phases sequentially but with
identical semantics to the MapReduce formulation in
:mod:`repro.mapreduce.jobs`; tests assert both produce the same schedule.

An edge never scheduled nor covered by the end is served with the hybrid
rule when the schedule is finalized, so the output of any number of
iterations (including zero) is always feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import hybrid_schedule
from repro.core.cost import hybrid_edge_cost, schedule_cost
from repro.core.hubgraph import single_consumer_hub_graph
from repro.core.schedule import RequestSchedule
from repro.graph.digraph import Edge, Node
from repro.graph.view import GraphView, NeighborSetCache, edge_list
from repro.workload.rates import Workload


def push_leg_cost(
    workload: Workload,
    push: set[Edge],
    pull: set[Edge],
    x: Node,
    hub: Node,
) -> float:
    """``cX(x -> w)`` from section 3.2: marginal cost of pushing the leg.

    Zero when the push is already scheduled; the full production rate when
    the edge is currently pull-only (the pull stays, so nothing is saved);
    otherwise the production rate minus the hybrid cost ``c*`` the edge
    would have paid anyway.
    """
    edge = (x, hub)
    if edge in push:
        return 0.0
    if edge in pull:
        return workload.rp(x)
    return workload.rp(x) - hybrid_edge_cost(edge, workload)


def pull_leg_cost(
    workload: Workload,
    push: set[Edge],
    pull: set[Edge],
    hub: Node,
    y: Node,
) -> float:
    """``c(w -> y)``: marginal cost of pulling the hub edge (specular)."""
    edge = (hub, y)
    if edge in pull:
        return 0.0
    if edge in push:
        return workload.rc(y)
    return workload.rc(y) - hybrid_edge_cost(edge, workload)


def candidate_gain(
    workload: Workload,
    push: set[Edge],
    pull: set[Edge],
    x_nodes,
    hub: Node,
    consumer: Node,
) -> float:
    """``s(X, w, y) - c(X, w, y)``: saved hybrid cost minus leg costs."""
    saved = sum(hybrid_edge_cost((x, consumer), workload) for x in x_nodes)
    positive = pull_leg_cost(workload, push, pull, hub, consumer)
    positive += sum(push_leg_cost(workload, push, pull, x, hub) for x in x_nodes)
    return saved - positive


@dataclass(frozen=True)
class Candidate:
    """A candidate hub-graph ``G(X, w, {y})`` with its computed gain."""

    hub: Node
    consumer: Node
    x_nodes: tuple[Node, ...]
    gain: float

    @property
    def hub_edge(self) -> Edge:
        """The pull leg ``w -> y`` identifying this candidate."""
        return (self.hub, self.consumer)

    def locked_edges(self) -> list[Edge]:
        """Every edge whose schedule this candidate would modify."""
        edges: list[Edge] = [self.hub_edge]
        for x in self.x_nodes:
            edges.append((x, self.hub))
            edges.append((x, self.consumer))
        return edges


@dataclass
class IterationResult:
    """What one PARALLELNOSY iteration did (for convergence tracking)."""

    iteration: int
    candidates: int
    fully_locked: int
    partially_applied: int
    edges_covered: int
    cost_after: float


@dataclass
class ParallelNosyState:
    """Mutable optimizer state shared across iterations.

    ``covered`` maps each hub-covered cross-edge to its hub, exactly the set
    ``C`` of Algorithm 2 (needed both to avoid double-covering and for the
    incremental-update rules of section 3.3).
    """

    schedule: RequestSchedule = field(default_factory=RequestSchedule)

    @property
    def covered(self) -> dict[Edge, Node]:
        return self.schedule.hub_cover


class ParallelNosyOptimizer:
    """Iteration driver for PARALLELNOSY.

    Parameters
    ----------
    graph, workload:
        The DISSEMINATION instance; the run reads ``graph`` through the
        backend it is given (dict or CSR — identical schedules).
    max_candidate_producers:
        Optional cap on ``|X|`` per candidate (memory bound akin to the
        MapReduce cross-edge bound ``b``); producers with the largest
        per-edge savings are kept.
    """

    def __init__(
        self,
        graph: GraphView,
        workload: Workload,
        max_candidate_producers: int | None = None,
    ) -> None:
        self.graph = graph
        self.workload = workload
        self.max_candidate_producers = max_candidate_producers
        self.state = ParallelNosyState()
        self.history: list[IterationResult] = []
        # the graph is immutable during a run: materialize the edge list
        # once (one C pass on the CSR backend) for the per-iteration scans,
        # and memoize neighborhoods for the per-edge candidate intersections
        self._edges = edge_list(self.graph)
        self._adjacency = NeighborSetCache(self.graph)

    # ------------------------------------------------------------------
    # Cost pieces (section 3.2 formulas; shared with the MapReduce jobs)
    # ------------------------------------------------------------------
    def _gain(self, x_nodes, hub: Node, consumer: Node) -> float:
        """``s(X, w, y) - c(X, w, y)`` for the given producer subset."""
        schedule = self.state.schedule
        return candidate_gain(
            self.workload, schedule.push, schedule.pull, x_nodes, hub, consumer
        )

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _phase1_candidates(self) -> list[Candidate]:
        """Candidate selection: one potential hub-graph per edge ``w -> y``."""
        candidates: list[Candidate] = []
        covered = self.state.covered
        schedule = self.state.schedule
        for hub, consumer in self._edges:
            if (hub, consumer) in covered:
                continue
            xs = single_consumer_hub_graph(
                self.graph, hub, consumer, schedule, covered, self._adjacency
            )
            if not xs:
                continue
            if (
                self.max_candidate_producers is not None
                and len(xs) > self.max_candidate_producers
            ):
                xs = sorted(
                    xs,
                    key=lambda x: (
                        -hybrid_edge_cost((x, consumer), self.workload),
                        repr(x),
                    ),
                )[: self.max_candidate_producers]
                xs.sort(key=repr)
            gain = self._gain(xs, hub, consumer)
            if gain > 0:
                candidates.append(
                    Candidate(hub, consumer, tuple(xs), gain)
                )
        return candidates

    @staticmethod
    def _phase2_lock(candidates: list[Candidate]) -> dict[Edge, Candidate]:
        """Edge locking: each edge goes to the max-gain requester.

        Ties break on the hub-edge id so the outcome is deterministic and
        identical to the MapReduce reducer's ordering.
        """
        grants: dict[Edge, Candidate] = {}
        for candidate in candidates:
            for edge in candidate.locked_edges():
                holder = grants.get(edge)
                if holder is None or (candidate.gain, repr(candidate.hub_edge)) > (
                    holder.gain,
                    repr(holder.hub_edge),
                ):
                    grants[edge] = candidate
        return grants

    def _phase3_apply(
        self, candidates: list[Candidate], grants: dict[Edge, Candidate]
    ) -> tuple[int, int, int]:
        """Scheduling decision: apply fully/partially locked candidates."""
        fully = partial = covered_edges = 0
        schedule = self.state.schedule
        for candidate in candidates:
            owned = [
                edge
                for edge in candidate.locked_edges()
                if grants.get(edge) is candidate
            ]
            owned_set = set(owned)
            if len(owned) == len(candidate.locked_edges()):
                chosen = candidate.x_nodes
                fully += 1
            else:
                if candidate.hub_edge not in owned_set:
                    continue  # cannot schedule the pull leg: abandon
                chosen = tuple(
                    x
                    for x in candidate.x_nodes
                    if (x, candidate.hub) in owned_set
                    and (x, candidate.consumer) in owned_set
                )
                if not chosen:
                    continue
                if self._gain(chosen, candidate.hub, candidate.consumer) <= 0:
                    continue
                partial += 1
            schedule.add_pull(candidate.hub_edge)
            for x in chosen:
                schedule.add_push((x, candidate.hub))
                schedule.cover_via_hub((x, candidate.consumer), candidate.hub)
                covered_edges += 1
        return fully, partial, covered_edges

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_iteration(self) -> IterationResult:
        """Execute one candidate/lock/decide cycle and record the result."""
        candidates = self._phase1_candidates()
        grants = self._phase2_lock(candidates)
        fully, partial, covered = self._phase3_apply(candidates, grants)
        result = IterationResult(
            iteration=len(self.history) + 1,
            candidates=len(candidates),
            fully_locked=fully,
            partially_applied=partial,
            edges_covered=covered,
            cost_after=self._finalized_cost(),
        )
        self.history.append(result)
        return result

    def _finalized_cost(self) -> float:
        """Cost of :meth:`finalize` without materializing the schedule.

        The finalized cost is the partial schedule's cost plus the hybrid
        price ``c*`` of every edge the iterations have not yet touched —
        summed directly, which keeps the per-iteration convergence metric
        (Figure 4's y-axis) O(m) membership checks instead of a full
        schedule copy per iteration.
        """
        schedule = self.state.schedule
        cost = schedule_cost(schedule, self.workload)
        push, pull, covered = schedule.push, schedule.pull, schedule.hub_cover
        workload = self.workload
        for edge in self._edges:
            if edge not in push and edge not in pull and edge not in covered:
                cost += hybrid_edge_cost(edge, workload)
        return cost

    def run(self, max_iterations: int = 20) -> RequestSchedule:
        """Iterate until convergence (no candidate applies) or the cap."""
        for _ in range(max_iterations):
            result = self.run_iteration()
            if result.edges_covered == 0:
                break
        return self.finalize()

    def finalize(self) -> RequestSchedule:
        """Complete the partial schedule with the hybrid rule.

        Edges neither scheduled (``H ∪ L``) nor hub-covered are served with
        the cheaper of push and pull, exactly the completion the gain
        formulas priced via ``c*``.  The internal state is not modified.
        """
        schedule = self.state.schedule
        final = schedule.copy()
        for edge in self._edges:
            if (
                edge not in schedule.push
                and edge not in schedule.pull
                and edge not in schedule.hub_cover
            ):
                u, v = edge
                if self.workload.rp(u) <= self.workload.rc(v):
                    final.add_push(edge)
                else:
                    final.add_pull(edge)
        return final


def parallel_nosy_schedule(
    graph: GraphView,
    workload: Workload,
    max_iterations: int = 20,
    max_candidate_producers: int | None = None,
) -> RequestSchedule:
    """Run PARALLELNOSY and return the finalized feasible schedule."""
    optimizer = ParallelNosyOptimizer(graph, workload, max_candidate_producers)
    return optimizer.run(max_iterations)


def parallel_nosy_with_history(
    graph: GraphView,
    workload: Workload,
    max_iterations: int = 20,
    max_candidate_producers: int | None = None,
) -> tuple[RequestSchedule, list[IterationResult]]:
    """Run PARALLELNOSY keeping the per-iteration convergence history.

    The history is what Figure 4 plots: the cost after each iteration,
    converted to an improvement ratio over the hybrid baseline.
    """
    optimizer = ParallelNosyOptimizer(graph, workload, max_candidate_producers)
    optimizer.run(max_iterations)
    return optimizer.finalize(), optimizer.history


def improvement_history(
    graph: GraphView,
    workload: Workload,
    max_iterations: int = 20,
    max_candidate_producers: int | None = None,
) -> list[float]:
    """Predicted improvement ratio over FF after each iteration (Figure 4)."""
    baseline_cost = schedule_cost(hybrid_schedule(graph, workload), workload)
    _, history = parallel_nosy_with_history(
        graph, workload, max_iterations, max_candidate_producers
    )
    return [baseline_cost / item.cost_after for item in history]
