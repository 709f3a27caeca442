#!/usr/bin/env python3
"""Tabulate search cost against the 8N+8 / 10N+12 minimal-cycle lines.

Builds frames with N diagonal well-separated square objects, runs the
projection search, and prints measured cycles next to the closed-form
floor. With --density it instead samples random-rectangle scenes and
shows how far layouts that need extra refinement rounds land above the
floor.
"""

import argparse

from cramsim.projection import RpConfig, iss, region_propose
from cramsim.grid import BinaryFrame
from cramsim.synth import SynthConfig, generate_scene
from cramsim.timing import cost_report, minimal_cycles_imc, minimal_cycles_total, trace_cycles


def diagonal_frame(n: int) -> BinaryFrame:
    size = max(8 * n, 8)
    f = BinaryFrame.zeros(size, size)
    for i in range(n):
        f.pixels[8 * i:8 * i + 4, 8 * i:8 * i + 4] = 1
    return f


def run_diagonal(n_max: int) -> None:
    print(f"{'N':>3} {'imc':>6} {'8N+8':>6} {'total':>6} {'10N+12':>7} {'iters':>5}")
    for n in range(n_max + 1):
        proposed = region_propose(diagonal_frame(n), RpConfig())
        imc, total = cost_report(proposed)[:2]
        flag = "" if (imc, total) == (minimal_cycles_imc(n), minimal_cycles_total(n)) else "  <- off floor"
        print(f"{n:>3} {imc:>6} {minimal_cycles_imc(n):>6} {total:>6} "
              f"{minimal_cycles_total(n):>7} {proposed.search.iterations:>5}{flag}")


def run_random(frames: int, seed: int) -> None:
    cfg = SynthConfig(width=64, height=64, objects_min=2, objects_max=5,
                      side_min=6, side_max=12, band_min=2, seed=seed)
    print(f"{'frame':>5} {'objects':>7} {'imc':>6} {'floor':>6} {'overhead':>8}")
    for i in range(frames):
        scene = generate_scene(cfg, seed=seed + i)
        found = iss(scene.frame, RpConfig(size_min=1, slot_r=0, slot_c=0))
        imc = trace_cycles(found.trace)
        floor = minimal_cycles_imc(len(found.candidates))
        print(f"{i:>5} {len(found.candidates):>7} {imc:>6} {floor:>6} {imc - floor:>8}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=16,
                        help="largest diagonal object count (default 16)")
    parser.add_argument("--random", type=int, metavar="FRAMES", default=0,
                        help="also measure FRAMES random scenes")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run_diagonal(args.n_max)
    if args.random:
        print()
        run_random(args.random, args.seed)


if __name__ == "__main__":
    main()
