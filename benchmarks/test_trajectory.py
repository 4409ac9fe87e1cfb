"""Regenerates the paper's §4.3 in-text convergence-quality claims:

* "more than 99 % of the nodes converged to within 1 % of R_c in less
  than 10 passes";
* "the pagerank R_d converges to within 0.1 % of R_c in as few as 30
  passes".

We assert the same regime at benchmark scale (allowing a small constant
factor: our graphs are denser in outdeg-1 chains, which slow the tail).
"""

import pytest

from benchmarks.conftest import BENCH_PEERS, BENCH_SEED
from repro.analysis import convergence_trajectory, format_table, passes_to_quality
from repro.scenario import Scenario, build


def test_convergence_trajectory(benchmark, bench_sizes, record_table):
    size = max(bench_sizes)

    def run():
        built = build(Scenario(size, BENCH_PEERS, seed=BENCH_SEED))
        return convergence_trajectory(
            built.graph,
            built.network.placement.assignment,
            num_peers=BENCH_PEERS,
            epsilon=1e-4,
            bands=(0.01, 0.001),
        )

    traj = benchmark.pedantic(run, rounds=1, iterations=1)
    numbers = passes_to_quality(traj)

    rows = [
        ("99% of nodes within 1% of R_c", "< 10 passes",
         f"{numbers['99pct_within_1pct']} passes"),
        ("99.9% of nodes within 0.1% of R_c", "~30 passes",
         f"{numbers['all_within_0.1pct']} passes"),
        ("full strong convergence (eps=1e-4)", "-", f"{traj.passes} passes"),
    ]
    record_table(
        "Trajectory section 4.3",
        format_table(
            ["claim", "paper", "measured"],
            rows,
            title=f"Convergence trajectory, {size} nodes, {BENCH_PEERS} peers",
        ),
    )

    assert numbers["99pct_within_1pct"] is not None
    assert numbers["99pct_within_1pct"] <= 40  # paper: <10; same regime
    assert numbers["all_within_0.1pct"] is not None
    assert numbers["all_within_0.1pct"] <= 90  # paper: ~30
    # the bulk converges long before the strong criterion fires
    assert numbers["99pct_within_1pct"] < traj.passes


def test_time_to_quality(benchmark, bench_sizes, record_table):
    """§4.6.2's combined claim: 99 % of the graph converging in ~10
    passes corresponds to a fraction of the full-convergence time.
    Price the trajectory's quality milestones with the Eq. 4 model."""
    from repro.analysis import convergence_trajectory, time_to_quality
    from repro.simulation import RATE_32KBPS, RATE_200KBPS

    size = max(bench_sizes)

    def run():
        built = build(Scenario(size, BENCH_PEERS, seed=BENCH_SEED))
        return convergence_trajectory(
            built.graph, built.network.placement.assignment, num_peers=BENCH_PEERS,
            epsilon=1e-4, return_report=True,
        )

    traj, report = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for band, frac, label in [
        (0.01, 0.99, "99% of docs within 1%"),
        (0.001, 0.999, "99.9% within 0.1%"),
    ]:
        t32 = time_to_quality(
            traj, report, band=band, fraction=frac, rate_bytes_per_s=RATE_32KBPS
        )
        t200 = time_to_quality(
            traj, report, band=band, fraction=frac, rate_bytes_per_s=RATE_200KBPS
        )
        rows.append((label, traj.passes_until(band, frac),
                     f"{t32:.1f}", f"{t200:.1f}"))
    full32 = report.total_messages * 24 / RATE_32KBPS
    rows.append(("full strong convergence", report.passes, f"{full32:.1f}", "-"))
    record_table(
        "Trajectory time to quality",
        format_table(
            ["milestone", "passes", "secs @32KB/s", "secs @200KB/s"],
            rows,
            title=f"Time-to-quality, {size} nodes (Eq. 4 serialized model)",
        ),
    )

    early = time_to_quality(
        traj, report, band=0.01, fraction=0.99, rate_bytes_per_s=RATE_32KBPS
    )
    assert early is not None
    assert early < full32
    # Nuance the measurement surfaces: the quality milestone arrives in
    # a small fraction of the PASSES but a large fraction of the TIME —
    # message traffic is front-loaded (early passes are all-active), so
    # the §4.6.2 "10 passes ≈ 4 days out of 14" extrapolation, which
    # divides time by passes uniformly, overstates the early-exit
    # saving.  Assert both facts.
    p99 = traj.passes_until(0.01, 0.99)
    assert p99 / traj.passes < 0.5          # few passes...
    assert early / full32 > 0.5             # ...but most of the bytes
