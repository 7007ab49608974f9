"""The host's speed right now, from a fixed reference computation.

On a small shared machine the same CLI run of one seed can take 3.0 s in
one minute and 4.0 s a few minutes later, in CPU time as much as in wall
time: the virtual CPUs themselves run slower while other tenants load the
host. A window of 35 s cannot average that out. So the benchmark runs this
fixed computation, which is made of the same kinds of work as the program
(small numpy products on one BLAS thread, elementwise numpy, plain Python
loops), in a fresh process between its CLI runs, and scales each run's times
by REFERENCE_S / (the mean of the two reference times around it). A scaled time
reads as the seconds the run would take on a host where this computation
takes REFERENCE_S. The program under test never runs this code, so a change
to the program moves the scaled times exactly as much as the raw ones.

It runs in a fresh process because its time depends on the state of the
process too: after a large array is freed, glibc serves the next ones from
the heap instead of fresh pages, and the same computation takes a third
less. The caller limits BLAS to one thread, as for the CLI runs.

    python3 perfbench/hostspeed.py    # prints the reference time in seconds
"""

import time

REFERENCE_S = 0.30  # roughly this computation's time on a 2-vCPU Xeon sandbox at its fastest
_ROWS, _FEATURES, _HIDDEN, _CLASSES = 500, 8, 128, 3
_STEPS, _LOOP = 400, 300_000


def reference_seconds() -> float:
    """Seconds the reference computation takes now: 400 gradient steps of a
    small tanh network, then a plain Python loop."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((_ROWS, _FEATURES))
    y = rng.integers(0, _CLASSES, _ROWS)
    w1 = rng.standard_normal((_FEATURES, _HIDDEN)) * 0.1
    w2 = rng.standard_normal((_HIDDEN, _CLASSES)) * 0.1
    rows = np.arange(_ROWS)
    t0 = time.perf_counter()
    for _ in range(_STEPS):
        h = np.tanh(x @ w1)
        z = h @ w2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1
        grad_h = (p @ w2.T) * (1 - h * h)
        w2 -= 0.01 * (h.T @ p)
        w1 -= 0.01 * (x.T @ grad_h)
    total = 0
    for i in range(_LOOP):
        total += i
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(reference_seconds())
