"""The P2:d codegree laws of ``test_codegree_laws.py`` at d = 9..12.

    python tests/slow_codegree_laws.py          # d = 9..12
    python tests/slow_codegree_laws.py 6 7 8    # any degrees

Too slow for the test suite (about 20 s for d = 9..12 together), so the
file name keeps it out of pytest's collection; ``test_codegree_laws.py``
runs :func:`main` on small degrees so the script cannot rot. The laws and
the one cache the degrees share are those of that module. Each degree
prints its time and the process's peak resident memory so far.
"""

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from test_codegree_laws import test_p2_top_coefficients  # noqa: E402

DEGREES = (9, 10, 11, 12)


def main(argv=None) -> int:
    """Check the three laws of P2:d for each degree in ``argv``."""
    degrees = [int(a) for a in argv] if argv else DEGREES
    for d in degrees:
        t0 = time.perf_counter()
        test_p2_top_coefficients(d)
        elapsed = time.perf_counter() - t0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"P2:{d} laws hold  {elapsed:.1f} s  peak {peak_mb:.0f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
