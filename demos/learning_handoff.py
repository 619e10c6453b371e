"""Hand-off from fast adaptation to the learned feedforward.

Tracks a sinusoid for 60 s while the learner collects data at 1 Hz and
refits every 10 samples. Early on, the filtered adaptive input eta
carries the whole uncertainty; as the published error envelope shrinks
along the trajectory, the learning-filter bandwidth rises and f_L takes
over, leaving eta with only the residual.
"""

import numpy as np

from l1gp import config, scenario


def main():
    cfg = config.quadrotor_nominal(duration=60.0, reference_kind="sinusoid")
    trace = scenario.run(cfg)
    t = trace.t
    eta = np.linalg.norm(trace.block("eta"), axis=1)
    fl = np.linalg.norm(trace.block("fl"), axis=1)

    print("learning hand-off, 60 s sinusoid")
    print("  model publishes:")
    for ev in trace.events:
        if ev["kind"] == "learner_published":
            print(
                f"    t = {ev['t']:5.1f} s  update {ev['update_index']}  "
                f"n_data {ev['n_data']:3d}  envelope at the state {ev['e_f_hat']:.4f}"
            )
    print("  decade window means:")
    for t0 in range(0, 60, 10):
        t1 = t0 + 10
        e = scenario.window_mean(t, eta, t0, t1)
        f = scenario.window_mean(t, fl, t0, t1)
        lead = "eta" if e > f else "f_L"
        print(f"    [{t0:2d},{t1:2d}] s  |eta| {e:.5f}  |f_L| {f:.5f}  dominant: {lead}")
    print(f"  pointwise envelope at end:  {trace.col('e_f_hat')[-1]:.4f}")
    print(f"  filter bandwidth at end:    {trace.col('omega_filtered')[-1]:.3f} rad/s")


if __name__ == "__main__":
    main()
