"""Time-delay margin of the plain and learning-augmented loops.

Searches the input delay to 1 ms resolution for both controller modes:
each search starts at the margin the loop's LTI limit predicts,
pi / (2 omega_c) - T_s / 2, walks up or down with a doubling step until
stability changes, and bisects that bracket. The learning-augmented loop
is measured from a post-learning snapshot (30 s of operation) so the
published model is active. Both margins come out at roughly 20 ms: the
margin is set by the adaptive elements (the control filter and the
sampling period), which the learning path does not touch.
"""

from l1gp import config, scenario


def main():
    l1_cfg = config.quadrotor_nominal(duration=20.0, reference_kind="step", mode="l1")
    res_l1 = scenario.delay_margin_search(l1_cfg, resolution=0.001, horizon=20.0)
    print("plain adaptive mode:")
    print(f"  margin {res_l1.margin * 1e3:.0f} ms, bracket "
          f"[{res_l1.bracket[0] * 1e3:.0f}, {res_l1.bracket[1] * 1e3:.0f}] ms "
          f"in {res_l1.iterations} candidate runs, predicted "
          f"{res_l1.predicted * 1e3:.1f} ms")

    gp_cfg = config.quadrotor_nominal(duration=20.0, reference_kind="step")
    res_gp = scenario.delay_margin_search(
        gp_cfg, resolution=0.001, horizon=20.0, snapshot_time=30.0
    )
    print("learning-augmented mode (post-learning snapshot at 30 s):")
    print(f"  margin {res_gp.margin * 1e3:.0f} ms, bracket "
          f"[{res_gp.bracket[0] * 1e3:.0f}, {res_gp.bracket[1] * 1e3:.0f}] ms "
          f"in {res_gp.iterations} candidate runs, predicted "
          f"{res_gp.predicted * 1e3:.1f} ms")
    print(f"relative difference: "
          f"{abs(res_gp.margin - res_l1.margin) / res_l1.margin * 100:.0f}%")


if __name__ == "__main__":
    main()
