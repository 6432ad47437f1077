"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is what a user pays before the first answer: importing prismring
(and numpy), loading the catalog rings named on the command line, and
running ``verify_axioms`` and ``fpdim_data`` on each.

    python3 perfbench/setup_probe.py F210 F660
"""

import sys
import time


def main(names):
    t0 = time.perf_counter()
    from program import load_prismring

    prismring = load_prismring()
    from prismring.catalog import catalog

    for name in names:
        ring = catalog(name)
        if not prismring.verify_axioms(ring).passed:
            raise SystemExit(f"setup_probe: {name} fails its axioms")
        prismring.fpdim_data(ring)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1:])
