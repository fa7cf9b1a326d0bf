"""Time to a usable package in a fresh interpreter, plus input generation.

    python3 benchmark/setup_probe.py <workload> <seed>

Prints three numbers: the seconds from the first line of this script to
the inputs being ready, the seconds of the package import alone, and
the process's CPU time (user + system, all threads) at that point.
The benchmark starts this script with ``src`` on PYTHONPATH.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import debye_screen  # noqa: F401
    if workload == "cli":
        import debye_screen.cli  # noqa: F401
    imported = time.perf_counter() - _START
    from inputs import make_inputs
    make_inputs(workload, seed)
    print(time.perf_counter() - _START, imported, time.process_time())


if __name__ == "__main__":
    main()
