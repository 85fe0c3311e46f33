"""From trained network to chip-level deployment report.

The system-architect view the paper's evaluation stops short of:

1. train LeNet (the paper's CNN-1) on synthetic MNIST;
2. compile it onto ReSiPE tiles and plan the chip: tile count, silicon
   area, energy per inference, frame rate under the two-slice pipeline;
3. project the same chip to future technology nodes;
4. estimate the readout's effective resolution from timing noise, and
   how long the chip stays accurate on the shelf (retention drift).

Run:  python examples/chip_deployment.py
"""

import numpy as np

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.core.timing_noise import analyse_timing_noise
from repro.circuits.noise import ktc_noise_voltage, minimum_capacitance_for_bits
from repro.experiments.networks import get_benchmark_networks
from repro.experiments.scaling import render_scaling, run_scaling
from repro.faults import DriftInjector
from repro.mapping import (
    PIMExecutor,
    ReSiPEBackend,
    compile_network,
    plan_deployment,
)
from repro.units import si_format


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Train CNN-1 (cached after the first run).
    # ------------------------------------------------------------------
    print("training CNN-1 (LeNet) on synthetic MNIST ...")
    net = get_benchmark_networks(keys=["cnn-1"], n_samples=1000)[0]
    print(f"software accuracy: {net.software_accuracy:.3f}")

    # ------------------------------------------------------------------
    # 2. Plan the chip.
    # ------------------------------------------------------------------
    mapped = compile_network(net.model, ReSiPEBackend(mode=MVMMode.EXACT))
    report = plan_deployment(mapped, input_hw=(28, 28))
    print()
    print(report.render())

    # ------------------------------------------------------------------
    # 3. Technology projection.
    # ------------------------------------------------------------------
    print()
    print(render_scaling(run_scaling()))

    # ------------------------------------------------------------------
    # 4. Noise floor and shelf life.
    # ------------------------------------------------------------------
    params = CircuitParameters.calibrated()
    noise = analyse_timing_noise(params)
    print("\nreadout noise analysis:")
    print(f"  kT/C on C_cog ({si_format(params.c_cog, 'F')}): "
          f"{si_format(ktc_noise_voltage(params.c_cog), 'V')} rms")
    print(f"  timing noise, early/late crossing: "
          f"{si_format(noise.sigma_t_early, 's')} / "
          f"{si_format(noise.sigma_t_late, 's')}")
    print(f"  effective readout resolution: {noise.effective_bits:.1f} bits")
    print(f"  kT/C-limited minimum C_cog for 8-bit operation: "
          f"{si_format(minimum_capacitance_for_bits(params.v_s, 8), 'F')}")

    executor = PIMExecutor(mapped, net.train.images[:48])
    x, y = net.test.images[:150], net.test.labels[:150]
    print("\nshelf life (retention drift, nu = 2 %/decade):")
    for label, elapsed in (("1 day", 86_400.0), ("1 year", 3.15e7)):
        drift = DriftInjector(elapsed, nu=0.02, nu_sigma=0.3)
        aged = executor.faulted(drift, np.random.default_rng(0))
        print(f"  after {label:>7}: accuracy {aged.accuracy(x, y):.3f}")


if __name__ == "__main__":
    main()
