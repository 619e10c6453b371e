"""Step-reference tracking with the learning-augmented adaptive loop.

Runs the stock quadrotor rate scenario against a 1 rad/s step on every
axis and prints the tracking quality: the loop should settle on the
reference with the feedforward gain providing unit DC gain, while the
predictor-offset transient (x_hat starts at 0.5, the plant at 0) dies out
within a few seconds.
"""

import numpy as np

from l1gp import config, scenario


def main():
    cfg = config.quadrotor_nominal(duration=10.0, reference_kind="step")
    trace = scenario.run(cfg)
    m = scenario.metrics(trace, windows=[(0.0, 2.0), (9.0, 10.0)])

    print("step tracking, 10 s, r = 1 rad/s per axis")
    print(f"  stable:                  {not trace.unstable}")
    print(f"  final x:                 {np.round(trace.block('x')[-1], 5)}")
    print(f"  final-1s mean |y - r|:   {m['final_tracking_error_inf']:.5f} rad/s")
    print(f"  max prediction error:    {np.max(np.abs(trace.block('xtilde'))):.3f}")
    xt = np.max(np.abs(trace.block("xtilde")), axis=1)
    settled = trace.t[np.argmax(xt < 0.01)]
    print(f"  |x_tilde| < 0.01 from:   t = {settled:.3f} s")
    cond = [e for e in trace.events if e["kind"] == "l1_condition"]
    if cond:
        print(f"  filter norm condition:   lhs {cond[0]['lhs']:.3f} "
              f"< rhs {cond[0]['rhs']:.3f} -> {cond[0]['satisfied']}")


if __name__ == "__main__":
    main()
