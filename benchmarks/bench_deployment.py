"""Extension — chip-level deployment of the six benchmark networks.

The "Table III the paper didn't print": tiles, silicon area, energy
per inference and frame rate for each Section IV-C network on ReSiPE
hardware at the paper-literal operating point.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core.mvm import MVMMode
from repro.experiments.networks import get_benchmark_networks
from repro.mapping import ReSiPEBackend, compile_network, plan_deployment

def _measure(keys):
    nets = get_benchmark_networks(keys=list(keys), n_samples=600)
    rows = []
    for net in nets:
        mapped = compile_network(
            net.model, ReSiPEBackend(mode=MVMMode.LINEAR)
        )
        report = plan_deployment(mapped, input_hw=net.input_hw)
        rows.append([
            net.spec.display,
            report.total_tiles,
            report.area * 1e6,
            report.energy_per_inference * 1e9,
            report.latency_per_inference * 1e6,
            report.throughput,
        ])
    return rows


@pytest.mark.benchmark(group="deployment", min_rounds=1, max_time=1)
def bench_network_deployment(benchmark, save_result):
    keys = ("mlp-1", "mlp-2", "cnn-1", "cnn-2")
    rows = benchmark.pedantic(_measure, args=(keys,), rounds=1, iterations=1)
    save_result(
        "network_deployment",
        render_table(
            ["network", "tiles", "area (mm^2)", "E/inf (nJ)",
             "latency (us)", "inferences/s"],
            rows,
            title="Chip-level deployment (paper-literal engine)",
        ),
    )
    # Sanity: deeper/wider nets consume more tiles than the perceptron.
    tiles = [r[1] for r in rows]
    assert tiles[0] < max(tiles)
    # Everything fits in single-digit mm^2 and sub-ms latency.
    assert all(r[2] < 10 for r in rows)
    assert all(r[4] < 1000 for r in rows)
