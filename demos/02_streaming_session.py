"""Feed a recording to the streaming controller one sample at a time.

The session passes the signal through untouched during warm-up, then at
every scheduled instant narrows down which stored movement the stream is,
looks up that movement's precomputed coefficient, and mixes from there on.
At the end it reports the per-instant coefficient staircase and how the
final coefficient compares with the whole-signal solution.
"""

from motionblend.blending import BlendGrid, compute_table, solve_offline
from motionblend.classifier import TrainConfig, train
from motionblend.dataset import PRESETS, generate_synthetic, partition
from motionblend.online import OnlineSchedule, start_session


def main():
    samples = generate_synthetic(PRESETS["small"])
    part = partition(samples, e_des=1)
    model, _ = train(part, TrainConfig(epochs=150))
    table = compute_table(part, BlendGrid.uniform(11), model)
    schedule = OnlineSchedule()  # first lookup at t=20, then every 10
    print(f"schedule: warm-up {schedule.t0} samples, "
          f"lookup every {schedule.delta_t}\n")

    sample = part.not_encoded_samples[0]
    session = start_session(part, table, model, schedule)
    for t, row in enumerate(sample.velocity.values, start=1):
        session.push(row)
        if t <= 60 and schedule.is_instant(t):
            state = "approximate" if session.approximate else "exact"
            print(f"t={t:3d}: identified member {session.eta_indices[-1]} "
                  f"({state}), coefficient -> {session.c_history[-1]:.2f}")
    result = session.finish(effective_length=sample.effective_length)

    print(f"\ncoefficient staircase levels: "
          f"{sorted(set(round(c, 2) for c in result.c_history))}")
    print(f"final coefficient {result.c_history[-1]:.2f}; whole-signal solve "
          f"gives {solve_offline(sample.velocity, part, table, model).c_hat:.2f}")
    print(f"altered stream classifies as {result.decision.verdict.value} "
          f"(score {result.decision.raw_score:.3f})")
    print(f"terminal position gap {result.terminal_gap:.1f} mm")
    print(f"identification work: {session.stats['distance_ops']} element "
          f"distance folds across {session.stats['updates']} updates")


if __name__ == "__main__":
    main()
