"""Fast adaptation covering a mid-run uncertainty switch.

The quadratic model uncertainty is swapped for a much larger sinusoidal
one at t = 35 s, invalidating everything the learner has absorbed. The
adaptive estimate intervenes within a sampling period, the state stays
bounded, and tracking recovers while the stale learned feedforward is
treated as just another disturbance inside the control filter's band.
"""

import numpy as np

from l1gp import config, scenario


def main():
    cfg = config.quadrotor_nominal(
        duration=60.0, reference_kind="sinusoid", switch_time=35.0
    )
    trace = scenario.run(cfg)
    t = trace.t
    eta = np.linalg.norm(trace.block("eta"), axis=1)
    track = np.mean(np.abs(trace.block("x") - trace.block("r")), axis=1)

    print("uncertainty switch at t = 35 s, 60 s sinusoid run")
    print(f"  stable: {not trace.unstable},  max |x|: "
          f"{np.max(np.abs(trace.block('x'))):.3f} rad/s")
    for t0, t1 in ((25, 30), (30, 35), (35, 40), (40, 45), (50, 60)):
        e = scenario.window_mean(t, eta, t0, t1)
        tr = scenario.window_mean(t, track, t0, t1)
        print(f"    [{t0:2d},{t1:2d}] s  |eta| {e:.5f}  tracking err {tr:.5f}")
    pre = scenario.window_mean(t, eta, 30, 35)
    post = scenario.window_mean(t, eta, 35, 40)
    print(f"  adaptive response ratio across the switch: {post / pre:.1f}x")


if __name__ == "__main__":
    main()
