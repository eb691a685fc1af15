"""Temporal partitioning with optimized target selection (paper §V-B).

    python examples/temporal_attack_window.py

Scenario: a malicious mining pool with 30% hash power crawls the
network's consensus lag (Figure 6 data), runs the Table V window
optimization and the Table VI timing bound to pick its victims, feeds
a counterfeit chain in the Figure 7 grid on the graph engine, and is
spotted by the BlockAware countermeasure (§VI): nodes on the slower
counterfeit chain go stale far more often than nodes on the honest one.
"""

import numpy as np

from repro import (
    BlockAware,
    ConsensusDynamicsGenerator,
    GridConfig,
    TemporalAttackPlan,
)
from repro.analysis.vulnerable import vulnerable_table
from repro.netsim.graph import GraphSimulatorVec, graph_config_from_grid
from repro.reporting.tables import format_table

#: The Figure 7 run: a 25x25 grid, 20 steps per block, a 30% attacker
#: at cell [7,7] from step 100.
STEPS_PER_BLOCK = 20
HORIZON = 400


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Reconnaissance: one day of per-minute lag data (Figure 6(c)).
    # ------------------------------------------------------------------
    series = ConsensusDynamicsGenerator(num_nodes=4000, seed=21).generate(
        duration=86_400, sample_interval=60.0
    )
    table = vulnerable_table(series, t_values=(5, 10, 15, 30), lag_thresholds=(1, 2, 5))
    rows = [
        (t, *(f"{c.max_nodes} ({c.percentage:.1f}%)" for c in cells))
        for t, cells in table.items()
    ]
    print(
        format_table(
            ["T (min)", ">=1 block", ">=2 blocks", ">=5 blocks"],
            rows,
            title="Vulnerable-node windows (Table V form)",
        )
    )

    # ------------------------------------------------------------------
    # 2. Planning: how long to isolate m victims (Table VI bound)?
    # ------------------------------------------------------------------
    plan = TemporalAttackPlan.from_series(
        series, window_minutes=10, rate=0.8, victim_cap=500
    )
    print(
        f"\nplan: isolate {plan.victim_count} nodes within "
        f"{plan.min_time_seconds}s (window {plan.window_minutes} min) "
        f"-> {'feasible' if plan.feasible else 'infeasible'}"
    )

    # ------------------------------------------------------------------
    # 3. Execution: feed counterfeit fork B in the Figure 7 grid.
    # ------------------------------------------------------------------
    sim = GraphSimulatorVec(
        graph_config_from_grid(
            GridConfig(
                size=25,
                failure_rate=0.10,
                steps_per_block=STEPS_PER_BLOCK,
                attacker_share=0.30,
                attacker_cell=(7, 7),
                attack_start_step=100,
                seed=0,
            )
        )
    )
    heights = np.empty((HORIZON, sim.config.num_nodes), dtype=np.int64)
    on_b = np.zeros((HORIZON, sim.config.num_nodes), dtype=bool)
    for step in range(HORIZON):
        sim.step()
        heights[step] = sim.heights
        on_b[step] = np.asarray(sim.labels) == "B"
    peak = int(on_b.sum(axis=1).argmax())
    print(
        f"\nattack: fork B born at step {sim.fork_births['B']}, holds "
        f"{on_b[peak].mean():.0%} of the grid at step {peak + 1}"
    )

    # ------------------------------------------------------------------
    # 4. Defense: BlockAware flags tips older than one block interval.
    # ------------------------------------------------------------------
    alerts = BlockAware(STEPS_PER_BLOCK).alerts(heights)
    attacked = slice(sim.fork_births["B"], None)
    on_b, alerts = on_b[attacked], alerts[attacked]
    print(
        f"\nBlockAware: stale on {alerts[on_b].mean():.0%} of node-steps "
        f"on counterfeit chain B, {alerts[~on_b].mean():.0%} on honest chains"
    )


if __name__ == "__main__":
    main()
