"""Regenerate Figure 6 (system scalability) at a chosen scale.

Feeds the global synthetic AIS stream through the full platform with the
S-VRF model mounted and prints the average-processing-time-vs-actor-count
series (100-actor moving window), as the paper's Figure 6 plots.

Run:  python examples/run_figure6.py [--vessels N] [--minutes M]

The paper's run: 170K vessels, 72 hours, 12 cores / 128 GB. Scale to taste.
On a shared 2-vCPU Xeon, 5,000 vessels / 60 minutes builds the fleet in
~0.5 s and streams its 339,128 messages in ~61 s. Preparing the S-VRF model
adds ~55 s with the model cached (most of it rebuilding the training
scenarios) and ~5 minutes of training on the first run.
"""

import argparse

from repro.evaluation import run_figure6
from repro.evaluation.reporting import format_figure6
from repro.evaluation.table2 import train_table2_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vessels", type=int, default=2_000)
    parser.add_argument("--minutes", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    print("Preparing the S-VRF model (cached after the first run)...")
    model = train_table2_model()

    print(f"Streaming {args.vessels} vessels for {args.minutes:.0f} "
          f"simulated minutes through the platform...")
    result = run_figure6(model, n_vessels=args.vessels,
                         duration_s=args.minutes * 60.0, seed=args.seed)
    print()
    print(format_figure6(result, n_points=25))
    print()
    print(f"warm-up transient present : {result.has_warmup_transient()}")
    print(f"plateau stable with scale : {result.plateau_is_stable()}")
    print("Paper reference: init transient up to ~5K actors, then a stable "
          "state at millisecond-scale processing for 170K vessels.")


if __name__ == "__main__":
    main()
