"""Differential suite pinning the peel kernel to the frozen parent peel.

``repro.core.densest.densest_subgraph`` has two set-ups around one peel
loop — a scalar small-problem path over the compact alive index and the
numpy general path — and integer ``(ratio, rank)`` heap keys.  Every
schedule digest the perf ledger pins was produced by the parent commit's
tuple-keyed peel, kept verbatim in ``tests/reference_peel.py``; this suite
requires the production kernel to equal it **bit for bit** on every
output field, with the small-path threshold forced to 0 (general path
answers everything), to a huge value (small path answers everything) and
left at its default.  Production takes one input form (bitmask plus leg
masks); the reference is run on all three it accepts — the ``uncovered``
set with its own tuple element index and scalar pricing, the bitmask
alone, and bitmask plus leg masks — and each must agree.

The generators aim at what a rewrite of this kernel trips over:

* the bounded probe's twins differ (vectorized = Jacobi, scalar =
  Gauss–Seidel) and their bounds become heap keys, so the twin is chosen
  by *hub-graph size* alone, the same on every input shape — hub-graphs
  on both sides of the 192-element threshold, each with few and with
  many alive elements; within the
  vectorized twin loads are exact (charges are multiples of 1/4), which
  is what lets it iterate movable cross-edges only;
* float sums are order-sensitive: rates are non-dyadic, and selections
  are large enough that a pairwise ``np.sum`` would differ from Python's;
* a positive denormal weight overflows ``degree / weight`` to ``inf``,
  where the peel stops;
* node ids cross a digit boundary, so index (``repr``) order is not the
  tuple order that breaks ratio ties;
* equal integer weights give exact ratio ties and exact prefix-cost ties.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.densest as densest_module
from repro.core.densest import DensestResult, OracleCutoff, densest_subgraph
from repro.core.hubgraph import X_SIDE, Y_SIDE, PeelIndex, build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.graph.digraph import SocialGraph
from repro.workload.rates import Workload
from tests.conftest import OracleInstance
from tests.reference_peel import (
    _PROBE_VECTOR_THRESHOLD as REFERENCE_PROBE_THRESHOLD,
    _probe_bound_vectorized as reference_probe_vectorized,
    element_index as reference_element_index,
    reference_densest_subgraph,
)

#: non-dyadic values (order-sensitive sums), repeats (ties), a free vertex
#: (0.0), a denormal (ratio overflows to inf) and a wide dynamic range
MIXED_RATES = [0.0, 5e-324, 0.1, 0.3, 0.7, 1.0, 1.0, 1.1, 2.0, 3.7, 10.0, 1e6]
#: all positive: every cross-edge is movable, which is what separates the
#: probe twins, and whole hub-graphs get selected (long weight sums)
POSITIVE_RATES = [0.3, 0.7, 1.1, 2.0, 3.7, 10.0]
#: equal integer weights: many exact ratio and prefix-cost ties
INTEGER_RATES = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]

#: degenerate rates make numpy's probe divide by a denormal, as at the parent
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: (threshold, which path then answers)
THRESHOLDS = [
    (0, "general"),
    (10**9, "small"),
    (densest_module._SMALL_PEEL_THRESHOLD, "default"),
]


def make_problem(
    seed: int,
    num_x: int,
    num_y: int,
    mutual: int,
    density: float,
    paid: float,
    alive: float | int,
    rates: list[float],
):
    """One hub with ``num_x`` producers and ``num_y`` consumers.

    ``mutual`` nodes sit on both sides, cross-edges appear with
    probability ``density``, legs are already paid with probability
    ``paid``; ``alive`` is the probability an element is uncovered, or —
    as an int — the exact number of uncovered elements.  Node ids are a
    random permutation of a dense range (CSR-freezable, and side ids
    cross the 9/10 digit boundary once the hub has ten neighbours).
    """
    rng = random.Random(seed)
    mutual = min(mutual, num_x, num_y)
    n = 1 + num_x + num_y - mutual
    ids = list(range(n))
    rng.shuffle(ids)
    hub = ids[0]
    both = ids[1 : 1 + mutual]
    xs = both + ids[1 + mutual : 1 + num_x]
    ys = both + ids[1 + num_x : n]
    edges = [(x, hub) for x in xs] + [(hub, y) for y in ys]
    edges += [
        (x, y) for x in xs for y in ys if x != y and rng.random() < density
    ]
    graph = SocialGraph(sorted(edges))
    workload = Workload(
        production={v: rng.choice(rates) for v in range(n)},
        consumption={v: rng.choice(rates) for v in range(n)},
    )
    schedule = RequestSchedule()
    for x in xs:
        if rng.random() < paid:
            schedule.add_push((x, hub))
    for y in ys:
        if rng.random() < paid:
            schedule.add_pull((hub, y))
    elements = build_hub_graph(graph.to_csr(), hub).elements()
    if isinstance(alive, int):
        uncovered = set(rng.sample(elements, min(alive, len(elements))))
    else:
        uncovered = {e for e in elements if rng.random() < alive}
    return graph, hub, workload, schedule, uncovered


def oracle_inputs(graph, hub, workload, schedule, uncovered):
    """The hub-graph, the production oracle's inputs (bitmask, leg masks),
    and the reference's three input shapes as keyword dicts."""
    instance = OracleInstance(graph, workload)
    mirror = instance.mirror(schedule, uncovered)
    mask, arrays = mirror.uncovered_mask, mirror.arrays
    reference_shapes = {
        "set": {},
        "mask": {"uncovered_mask": mask},
        "mask+arrays": {"uncovered_mask": mask, "arrays": arrays},
    }
    return instance.hub_graph(hub), mask, arrays, reference_shapes


def bits(value: float) -> str:
    """A float's exact identity (``repr`` round-trips, and keeps -0.0)."""
    return repr(float(value))


def assert_bit_equal(actual, expected, context: str) -> None:
    assert type(actual) is type(expected), context
    if expected is None:
        return
    assert actual.hub == expected.hub, context
    if isinstance(expected, OracleCutoff):
        assert bits(actual.lower_bound) == bits(expected.lower_bound), context
        return
    assert isinstance(expected, DensestResult)
    assert actual.x_selected == expected.x_selected, context
    assert actual.y_selected == expected.y_selected, context
    assert actual.covered == expected.covered, context
    assert bits(actual.weight) == bits(expected.weight), context
    assert bits(actual.opt_lower_bound) == bits(expected.opt_lower_bound), context
    assert actual.exact is expected.exact is False, context
    assert actual.covered_ids.dtype == expected.covered_ids.dtype, context
    assert actual.covered_ids.tolist() == expected.covered_ids.tolist(), context


def production_answers(hub_graph, mask, arrays, upper_bound):
    """``{path label: production result}`` with each threshold in force."""
    answers = {}
    for threshold, label in THRESHOLDS:
        with mock.patch.object(densest_module, "_SMALL_PEEL_THRESHOLD", threshold):
            answers[label] = densest_subgraph(
                hub_graph, mask, arrays, upper_bound=upper_bound
            )
    return answers


def check_against_reference(problem, upper_bounds) -> list:
    """Compare every reference shape × bound × path; returns the references."""
    graph, hub, workload, schedule, uncovered = problem
    hub_graph, mask, arrays, shapes = oracle_inputs(*problem)
    references = []
    for shape, kwargs in shapes.items():
        for upper_bound in upper_bounds:
            expected = reference_densest_subgraph(
                hub_graph, workload, schedule, set(uncovered),
                upper_bound=upper_bound, **kwargs,
            )
            references.append(expected)
            answers = production_answers(hub_graph, mask, arrays, upper_bound)
            for label, actual in answers.items():
                assert_bit_equal(
                    actual, expected, f"{shape} / {label} path / bound {upper_bound!r}"
                )
    return references


def bounds_around(problem) -> list[float | None]:
    """``None`` plus bounds on both sides of the champion's cost, so the
    probe runs, feeds ``opt_lower_bound``, and sometimes cuts off."""
    graph, hub, workload, schedule, uncovered = problem
    champion = reference_densest_subgraph(
        build_hub_graph(graph.to_csr(), hub), workload, schedule, set(uncovered)
    )
    if champion is None:
        return [None, 1.0]
    cost = champion.cost_per_element
    return [None, 0.0, cost * 0.25, cost * 0.75, cost, cost * 4.0 + 1.0]


@st.composite
def problems(draw, min_side: int, max_side: int, densities, rates):
    return make_problem(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        num_x=draw(st.integers(min_value=min_side, max_value=max_side)),
        num_y=draw(st.integers(min_value=min_side, max_value=max_side)),
        mutual=draw(st.integers(min_value=0, max_value=3)),
        density=draw(st.sampled_from(densities)),
        paid=draw(st.sampled_from([0.0, 0.2, 0.6])),
        # few alive (small path's home ground), half, nearly all
        alive=draw(st.sampled_from([1, 2, 3, 5, 0.1, 0.5, 0.95])),
        rates=draw(st.sampled_from(rates)),
    )


#: below the probe threshold: at most 12 + 12 legs + 144 cross-edges = 168
small_hubs = problems(
    1, 12, [0.0, 0.3, 0.8, 1.0], [MIXED_RATES, POSITIVE_RATES]
)
#: at or above it: at least 15 + 15 legs + (225 - 3 mutual pairs) cross-edges
large_hubs = problems(15, 18, [1.0], [MIXED_RATES, POSITIVE_RATES])
tied_hubs = problems(2, 12, [0.5, 1.0], [INTEGER_RATES])


class TestDifferential:
    @given(problem=small_hubs, upper_bound=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_small_hub_graphs(self, problem, upper_bound):
        graph, hub, *_ = problem
        hub_graph = build_hub_graph(graph.to_csr(), hub)
        assert hub_graph.num_elements < REFERENCE_PROBE_THRESHOLD
        check_against_reference(problem, [upper_bound, *bounds_around(problem)])

    @given(problem=large_hubs, upper_bound=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_large_hub_graphs(self, problem, upper_bound):
        graph, hub, *_ = problem
        hub_graph = build_hub_graph(graph.to_csr(), hub)
        assert hub_graph.num_elements >= REFERENCE_PROBE_THRESHOLD
        check_against_reference(problem, [upper_bound, *bounds_around(problem)])

    @given(problem=tied_hubs, upper_bound=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=150, deadline=None)
    def test_equal_integer_weights(self, problem, upper_bound):
        check_against_reference(problem, [upper_bound, *bounds_around(problem)])


class TestNamedInvariants:
    def test_probe_twin_is_chosen_by_hub_size_not_alive_count(self):
        """Large hub-graph, few alive: the small path must still run the
        vectorized (Jacobi) twin, as the reference does on each of its
        input shapes — the bound becomes a heap key, and the lazy
        scheduler's retained champions make schedules depend on every key.
        The twins do disagree here (the scalar one is forced by raising
        the threshold).

        ``upper_bound=0.0`` with all-positive weights always cuts off, so
        the probe's bound comes back verbatim as the cutoff's.
        """
        disagreements = 0
        for seed in range(20):
            problem = make_problem(
                seed, 16, 16, 1, 1.0, paid=0.0, alive=12, rates=POSITIVE_RATES
            )
            hub_graph, mask, arrays, _shapes = oracle_inputs(*problem)
            assert hub_graph.num_elements >= REFERENCE_PROBE_THRESHOLD
            from_set, mask_only, with_arrays = (
                cutoff.lower_bound
                for cutoff in check_against_reference(problem, [0.0])
            )
            assert bits(from_set) == bits(mask_only) == bits(with_arrays)
            with mock.patch.object(densest_module, "_PROBE_VECTOR_THRESHOLD", 10**9):
                scalar = densest_subgraph(
                    hub_graph, mask, arrays, upper_bound=0.0
                ).lower_bound
            disagreements += bits(scalar) != bits(from_set)
        assert disagreements > 0, "no instance separates the probe twins"

    def test_vectorized_probe_shifts_equal_a_full_recount(self):
        """The vectorized twin iterates the movable cross-edges only, as
        shifts on top of the round-one loads; every charge is a multiple
        of 1/4, so the loads — and the floors — equal the parent's
        recount of every element each round."""
        rng = random.Random(5)
        multi_round = 0
        for case in range(400):
            num_x, num_y = rng.randint(1, 10), rng.randint(1, 10)
            num_verts = num_x + num_y
            rates = MIXED_RATES if case % 2 else POSITIVE_RATES
            weight = np.array([rng.choice(rates) for _ in range(num_verts)])
            legs = rng.sample(range(num_verts), rng.randint(1, num_verts))
            crosses = [
                (rng.randrange(num_x), num_x + rng.randrange(num_y))
                for _ in range(rng.randint(0, 30))
            ]
            prim = np.array(legs + [x for x, _ in crosses], dtype=np.int64)
            alt = np.array(legs + [y for _, y in crosses], dtype=np.int64)
            everything = SimpleNamespace(assign_vert=prim, assign_alt=alt)
            alive = np.ones(len(prim), dtype=bool)
            expected = reference_probe_vectorized(
                everything, weight, alive, num_verts
            )
            with mock.patch.object(densest_module, "_PROBE_ROUNDS", 1):
                one_round = densest_module._probe_bound_vectorized(
                    prim, alt, weight, num_verts
                )
            actual = densest_module._probe_bound_vectorized(
                prim, alt, weight, num_verts
            )
            assert bits(actual) == bits(expected)
            multi_round += bits(actual) != bits(one_round)
        assert multi_round > 100, "the shifts were hardly exercised"

    def test_selected_weight_is_a_sequential_sum(self):
        """``weight`` is Python's left-to-right ``sum`` over the selected
        vertices in ascending index order; ``np.sum`` is pairwise and
        lands on a neighbouring float for selections this long."""
        pairwise_differs = 0
        narrow = [0.7, 0.9, 1.0, 1.1, 1.3]  # the whole hub-graph is densest
        for seed in range(30):
            problem = make_problem(
                seed, 12, 12, 0, 1.0, paid=0.0, alive=1.0, rates=narrow
            )
            graph, hub, workload, schedule, uncovered = problem
            champion = check_against_reference(problem, [None])[0]
            assert len(champion.covered) == len(uncovered)
            weights = [workload.rp(x) for x in champion.x_selected]
            weights += [workload.rc(y) for y in champion.y_selected]
            assert bits(champion.weight) == bits(sum(weights))
            pairwise_differs += bits(np.sum(np.asarray(weights))) != bits(
                champion.weight
            )
        assert pairwise_differs > 0, "no instance separates the two sums"

    def test_denormal_weight_stops_the_peel(self):
        """``degree / 5e-324`` is ``inf``: the parent stops peeling there
        instead of treating the vertex as free or removing it."""
        graph = SocialGraph([(1, 0), (2, 0), (0, 3), (1, 3), (2, 3)])
        workload = Workload(
            production={0: 1.0, 1: 5e-324, 2: 4.0, 3: 1.0},
            consumption={0: 1.0, 1: 1.0, 2: 1.0, 3: 0.5},
        )
        problem = (graph, 0, workload, RequestSchedule(), set(graph.edges()))
        references = check_against_reference(problem, [None, 0.0, 10.0])
        assert all(r is not None for r in references)

    def test_overflowing_total_weight_has_no_finite_prefix(self):
        """Finite rates whose running sum is ``inf``: subtracting a removed
        weight leaves ``inf``, no prefix ever gets a finite cost, and the
        parent answers ``None``."""
        graph = SocialGraph([(1, 0), (2, 0), (0, 3)])
        workload = Workload(
            production={0: 1.0, 1: 1.5e308, 2: 1.5e308, 3: 1.0},
            consumption={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},
        )
        problem = (graph, 0, workload, RequestSchedule(), set(graph.edges()))
        assert check_against_reference(problem, [None, 1e9]) == [None] * 6

    def test_ratio_ties_break_by_tuple_order_not_index_order(self):
        """Producers 2 and 10 tie exactly; index order is ``repr`` order
        (10 first), the heap's tuple order removes 2 first."""
        graph = SocialGraph([(2, 0), (10, 0), (0, 5), (2, 5), (10, 5)])
        graph.add_nodes_from(range(11))  # dense ids: freezes to CSR
        hub_graph = build_hub_graph(graph.to_csr(), 0)
        assert hub_graph.x_nodes == [10, 2]
        peel = hub_graph.peel_index()
        assert peel.verts == [(X_SIDE, 10), (X_SIDE, 2), (Y_SIDE, 5)]
        assert peel.rank == [1, 0, 2]
        workload = Workload(
            production={v: 3.0 for v in range(11)},
            consumption={v: 0.25 for v in range(11)},
        )
        problem = (graph, 0, workload, RequestSchedule(), set(graph.edges()))
        check_against_reference(problem, [None, 0.0, 10.0])

    def test_equal_prefix_costs_keep_the_earlier_larger_prefix(self):
        """All weights 1, no cross-edges: every prefix costs exactly 1.0
        per element, and the full hub-graph (the earliest prefix) wins."""
        graph = SocialGraph([(x, 0) for x in range(1, 8)] + [(0, 9), (0, 12)])
        graph.add_nodes_from(range(13))  # dense ids: freezes to CSR
        workload = Workload(
            production={v: 1.0 for v in graph.nodes()},
            consumption={v: 1.0 for v in graph.nodes()},
        )
        problem = (graph, 0, workload, RequestSchedule(), set(graph.edges()))
        references = check_against_reference(problem, [None, 2.0])
        assert all(len(r.covered) == graph.num_edges for r in references)


class TestPeelIndex:
    def test_rank_is_position_in_sorted_vertices(self):
        graph, hub, *_ = make_problem(3, 14, 13, 2, 0.5, 0.0, 0.5, MIXED_RATES)
        peel = build_hub_graph(graph.to_csr(), hub).peel_index()
        by_rank = sorted(range(len(peel.verts)), key=peel.rank.__getitem__)
        assert [peel.verts[i] for i in by_rank] == sorted(peel.verts)
        assert peel.rank != list(range(len(peel.verts)))  # repr order differs

    def test_numpy_mirrors_are_built_on_first_use_only(self):
        """The small path (delta repair's single-use hub-graphs) reads the
        Python lists alone; the general path derives the arrays once."""
        lazy = {
            "endpoint_idx", "incident", "x_arr", "y_arr",
            "inc_vert", "inc_elem", "assign_vert", "assign_alt",
        }
        problem = make_problem(5, 6, 6, 1, 0.8, 0.2, 0.9, MIXED_RATES)
        graph, hub, workload, schedule, uncovered = problem
        hub_graph, mask, arrays, _shapes = oracle_inputs(*problem)
        assert len(uncovered) <= densest_module._SMALL_PEEL_THRESHOLD
        densest_subgraph(hub_graph, mask, arrays, upper_bound=1e9)
        peel = hub_graph.peel_index()
        assert isinstance(peel, PeelIndex)
        assert not lazy & set(vars(peel))
        with mock.patch.object(densest_module, "_SMALL_PEEL_THRESHOLD", 0):
            densest_subgraph(hub_graph, mask, arrays)
        assert {"incident", "inc_vert", "inc_elem"} <= set(vars(peel))
        assert peel.inc_vert is peel.inc_vert
        # the derived incidence is the element index's, vertex for vertex
        position = {vertex: i for i, vertex in enumerate(peel.verts)}
        assert peel.endpoint_idx == [
            tuple(position[vertex] for vertex in endpoints)
            for _edge, endpoints in reference_element_index(hub_graph)
        ]
        pairs = [
            (i, ei) for ei, idxs in enumerate(peel.endpoint_idx) for i in idxs
        ]
        assert peel.incident == [
            [ei for i, ei in pairs if i == vertex] for vertex in range(len(peel.verts))
        ]
        assert peel.inc_vert.tolist() == [i for i, _ in pairs]
        assert peel.inc_elem.tolist() == [ei for _, ei in pairs]
        assert peel.assign_vert.tolist() == peel.assign_vert_list
        assert peel.assign_alt.tolist() == peel.assign_alt_list


@pytest.mark.parametrize("threshold", [0, 10**9])
def test_both_paths_agree_on_a_scheduler_run(threshold, small_social, small_workload):
    """End to end: a CHITCHAT run is identical whichever path answers."""
    from repro.core.chitchat import ChitchatScheduler

    expected = ChitchatScheduler(small_social, small_workload).run()
    with mock.patch.object(densest_module, "_SMALL_PEEL_THRESHOLD", threshold):
        actual = ChitchatScheduler(small_social, small_workload).run()
    assert actual.push == expected.push
    assert actual.pull == expected.pull
    assert actual.hub_cover == expected.hub_cover
