"""One traced run of the bundled twist12, T(2,12) with 531k generators.

    python3 bench/twist12.py

It takes about five minutes and 1 GB, too long for a workload; its figures
are a reference point in README.md.  The operation and its check are those
of kh-torus.
"""

import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from polykh import load_fixture  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import kh_torus_ops  # noqa: E402


def main() -> None:
    tracer = Tracer()
    tracer.enabled = True
    [(_label, op)] = kh_torus_ops([("twist12", load_fixture("twist12"), 12)])
    start = time.perf_counter()
    op(tracer)
    wall = time.perf_counter() - start
    for name, seconds in tracer.span_totals().items():
        print(f"{name}_s = {seconds:.2f} s")
    for name, value in tracer.counts.items():
        print(f"{name} = {value}")
    print(f"wall_s = {wall:.1f} s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb = {rss:.0f} MB")


if __name__ == "__main__":
    main()
