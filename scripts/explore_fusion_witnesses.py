#!/usr/bin/env python3
"""Map out where the truncation monad's fusion operator fails to invert.

Prints, for a window of integer pairs (a, b), the two objects that the left
fusion operator connects -- truncate(a + truncate(b)) on the left against
truncate(a) + truncate(b) on the right -- and marks the pairs where they
differ, i.e. where no inverse can exist.  The all-negative quadrant and the
mixed quadrants behave differently; the picture makes the failure region
obvious at a glance.
"""

import argparse

from tracedcat.model_order import n_monad
from tracedcat.monads import fusion_left, try_invert_fusion


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=4)
    args = parser.parse_args()

    bundle = n_monad()
    w = args.window
    print("rows a, columns b; '.' invertible, 'X' not:")
    header = "     " + " ".join(f"{b:3d}" for b in range(-w, w + 1))
    print(header)
    bad = []
    for a in range(-w, w + 1):
        cells = []
        for b in range(-w, w + 1):
            if try_invert_fusion(bundle, a, b) is None:
                cells.append("  X")
                bad.append((a, b))
            else:
                cells.append("  .")
        print(f"{a:4d} " + " ".join(cells))
    print()
    for a, b in bad[:6]:
        h = fusion_left(bundle, a, b)
        print(f"fusion at ({a:3d}, {b:3d}): object {h.dom} vs {h.cod}")
    if bad:
        smallest = min(bad, key=lambda p: (abs(p[0]) + abs(p[1]), p))
        print(f"\nsmallest failing pair by size: {smallest}")


if __name__ == "__main__":
    main()
