"""Ablation: the paper's location/selection policies vs naive baselines.

Section IV-B/IV-C motivate both policies with the same objective: after
a migration, *both* the sender and the receiver should sit near the
cluster average.  This bench runs the same imbalanced workload under:

- the paper's policies (opposite-side-of-average receiver, difference-
  matched process),
- a least-loaded receiver with greedy largest-process selection,
- a random below-average receiver, averaged over a fixed set of
  conductor seeds (one seed's draw is luck, not a result).

The measured trade-off: the paper's matched policies fix the imbalance
in a *handful* of correctly-sized migrations, while the greedy baseline
keeps shuffling processes (an order of magnitude more migrations — each
one a freeze, a transfer and a calm-down) to buy a modestly tighter
final spread.  Since migrations are the expensive resource, sizing them
to land both nodes on the average is the better design — which is
exactly the argument of Sections IV-B/IV-C.
"""

from repro.analysis import render_table
from repro.cluster import build_cluster
from repro.core import LiveMigrationConfig
from repro.middleware import ConductorConfig, PolicyConfig
from repro.testing import run_for


#: Conductor seeds the random-receiver row is averaged over.
RANDOM_SEEDS = range(12)


def one(seed=42, conductor_seed=0, **strategy_params):
    """One run of ``paper-threshold`` with the given ``location`` /
    ``selection`` params (the random receiver draws from each
    conductor's strategy stream, seeded by ``conductor_seed``)."""
    cluster = build_cluster(n_nodes=5, with_db=False, master_seed=seed)
    config = ConductorConfig(
        policies=PolicyConfig(imbalance_threshold=8.0, receiver_margin=2.0),
        check_interval=1.0,
        calm_down=4.0,
        migration=LiveMigrationConfig(initial_round_timeout=0.08),
        strategy_params=strategy_params,
        seed=conductor_seed,
    )
    conductors = cluster.install_balancers(config)
    # node1 heavily imbalanced: a mixed bag of process sizes.
    hot = cluster.nodes[0]
    for k, demand in enumerate((0.7, 0.5, 0.3, 0.2, 0.1, 0.1)):
        proc = hot.kernel.spawn_process(f"w{k}")
        proc.address_space.mmap(16)
        hot.kernel.cpu.set_demand(proc, demand)
        conductors[0].manage(proc)
    # The other nodes idle at different small loads.
    for i, node in enumerate(cluster.nodes[1:], start=1):
        p = node.kernel.spawn_process(f"bg{i}")
        node.kernel.cpu.set_demand(p, 0.1 * i)

    run_for(cluster, 90.0)
    loads = [c.monitor.current_load() for c in conductors]
    migrations = sum(c.migrations_initiated for c in conductors)
    return {"spread": max(loads) - min(loads), "migrations": migrations}


def mean_over_seeds(**strategy_params):
    """``one`` averaged over the conductor seeds in ``RANDOM_SEEDS``."""
    runs = [one(conductor_seed=s, **strategy_params) for s in RANDOM_SEEDS]
    return {k: sum(r[k] for r in runs) / len(runs) for k in runs[0]}


def run():
    return {
        "paper (matched)": one(),
        "least-loaded + greedy": one(location="least-loaded", selection="largest"),
        "random receiver (mean)": mean_over_seeds(location="random"),
    }


def test_ablation_location_selection_policies(once):
    results = once(run)
    rows = [
        (name, r["spread"], r["migrations"]) for name, r in results.items()
    ]
    print()
    print(
        render_table(
            ["policy combination", "final spread (%)", "migrations"],
            rows,
            title="Ablation: location/selection policies (same workload)",
        )
    )
    paper = results["paper (matched)"]
    greedy = results["least-loaded + greedy"]
    rand = results["random receiver (mean)"]
    # Everyone improves substantially on the initial ~85-point spread.
    for r in results.values():
        assert r["spread"] < 40.0
        assert r["migrations"] >= 1
    # The paper's matched policies converge in a few, correctly-sized
    # migrations; greedy shedding thrashes (many follow-up corrections).
    assert paper["migrations"] <= 4
    assert greedy["migrations"] >= 3 * paper["migrations"]
    # And matching never does worse than a random receiver on both axes.
    assert paper["migrations"] <= rand["migrations"]
    assert paper["spread"] <= rand["spread"] + 1.0
