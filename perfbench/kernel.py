"""Reference kernel behind run.py's machine-speed samples, in a process of its own.

    python3 perfbench/kernel.py

For each line read from standard input it times a fixed kernel three times
and writes the best time in seconds as one line; it exits at the end of
its input. The kernel mixes a Python loop with small LAPACK solves, as
advreg does. Running it apart from the benchmark process keeps advreg's
in-process state (its threads, the BLAS and allocator state it leaves
behind) out of the reference.
"""

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402


def main():
    rng = np.random.default_rng(0)
    A = rng.random((11, 11))
    A = A @ A.T + np.eye(11)
    solve = np.linalg.solve

    def kernel():
        acc = 0.0
        for i in range(2000):
            acc += i * 0.5
        for _ in range(50):
            solve(A, A[0])
        return acc

    while sys.stdin.readline():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        sys.stdout.write(f"{best!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
