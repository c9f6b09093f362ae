"""Alter one stored recording so the classifier reads it as encoded.

Builds the whole small-scale pipeline in memory: synthesize labeled
reaching movements, train the encoding classifier, precompute the
coefficient table, then solve for the blend of one not-encoded recording.
Along the way it shows the property the solver leans on: the deviation
from the original shrinks linearly as the coefficient grows.
"""

import numpy as np

from motionblend.blending import BlendGrid, blend, compute_table, solve_offline
from motionblend.classifier import TrainConfig, classify, train
from motionblend.dataset import PRESETS, generate_synthetic, partition
from motionblend.signals import dist


def main():
    samples = generate_synthetic(PRESETS["small"])
    part = partition(samples, e_des=1)
    print(f"dataset: {len(part.encoded)} encoded / {len(part.not_encoded)} not")

    model, _ = train(part, TrainConfig(epochs=150))
    grid = BlendGrid.uniform(11)
    table = compute_table(part, grid, model)
    print(f"table ready: {table.entries.shape[0]}x{table.entries.shape[1]} "
          f"entries over an {grid.values.size}-point grid\n")

    sample = part.not_encoded_samples[0]
    raw = classify(model, sample.velocity)
    print(f"recording {sample.id!r} scores {raw.raw_score:.3f} "
          f"({raw.verdict.value}) before alteration")

    sol = solve_offline(sample.velocity, part, table, model)
    print(f"nearest not-encoded member (table row): index {sol.eta_index}")
    print(f"nearest encoded member (reference): index {sol.reference_index}")
    print(f"largest coefficient still classified encoded: c={sol.c_hat:.2f}")
    print(f"altered signal scores {sol.decision.raw_score:.3f} "
          f"({sol.decision.verdict.value})")
    print(f"deviation from the original: {dist(sample.velocity, sol.v_a):.1f} "
          f"(identity gives {(1 - sol.c_hat) * dist(sample.velocity, sol.v_r):.1f})\n")

    print("  c    deviation   score   verdict")
    base = dist(sample.velocity, sol.v_r)
    for c in np.linspace(0.0, 1.0, 6):
        v_a = blend(sample.velocity, sol.v_r, float(c))
        d = classify(model, v_a)
        print(f" {c:.1f}  {dist(sample.velocity, v_a):9.1f}   {d.raw_score:.3f}"
              f"   {d.verdict.value}")
    print(f"\nevery deviation above equals (1-c) * {base:.1f}: picking the "
          f"largest accepted c is the same as picking the smallest deviation")


if __name__ == "__main__":
    main()
