"""Lockstep check: perfbench's hand-built inputs equal ``build``'s.

``perfbench/workloads.py`` still builds its graph, placement, churn
and fault plan by hand instead of calling
:func:`repro.scenario.build`.  At seed 7 (its ``DATASET_SEED``, where
the graph seed and the run seed coincide) and tiny sizes, this test
checks that the hand copy draws every stream as ``build`` does.
Delete it once perfbench builds its inputs through ``build``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.faults.plan import FaultSpec
from repro.scenario import CHURN_AVAILABILITY, Scenario, build

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 7
PASSES = 50


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    assert module.DATASET_SEED == SEED
    return module


SCENARIOS = {
    "sim-100k": dict(engine="simulator"),
    "sim-10k-lossy-churn": dict(
        engine="simulator",
        faults=FaultSpec(drop_rate=0.2),
        availability=CHURN_AVAILABILITY,
        delivery="cached",
    ),
    "vec-1m": dict(engine="vectorized", availability=CHURN_AVAILABILITY),
}


def _assignment(engine):
    network = getattr(engine, "network", None)
    if network is not None:
        return network.placement.assignment
    return engine.assignment


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_perfbench_inputs_match_build(workloads, workload):
    sizes = workloads.sizes_for(workload, tiny=True)
    inst = workloads.build(workload, SEED, sizes)
    built = build(
        Scenario(
            docs=sizes.docs,
            peers=sizes.peers,
            epsilon=workloads.EPSILON,
            seed=SEED,
            **SCENARIOS[workload],
        )
    )
    assert type(inst.engine) is type(built.engine)
    np.testing.assert_array_equal(inst.graph.indptr, built.graph.indptr)
    np.testing.assert_array_equal(inst.graph.indices, built.graph.indices)
    np.testing.assert_array_equal(_assignment(inst.engine), _assignment(built.engine))

    if inst.availability is None:
        assert built.availability is None
    else:
        for t in range(PASSES):
            np.testing.assert_array_equal(
                inst.availability.sample(t), built.availability.sample(t)
            )

    plan, ours = getattr(inst.engine, "faults", None), getattr(built.engine, "faults", None)
    if plan is None:
        assert ours is None
    else:
        assert plan.spec == ours.spec
        for t in range(PASSES):
            np.testing.assert_array_equal(
                plan.edge_delivery_mask(t, 64), ours.edge_delivery_mask(t, 64)
            )
        assert type(inst.engine.delivery_policy) is type(built.engine.delivery_policy)
