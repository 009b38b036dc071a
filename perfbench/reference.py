"""The reference loop that measures how fast the machine runs Python now.

On a host whose cores are shared with other tenants, the speed of the
same Python code drifts by up to 2x over seconds to minutes (measured on a
2-vCPU virtual machine, where CPU time drifts with wall time).  Timing
this fixed loop next to the work and scaling the work's time by
``REFERENCE_S / loop time`` reports every time as it would read on a
machine where the loop takes ``REFERENCE_S``.  The
loop is the benchmark's own code, so a change to altcox moves the scaled
times as much as the raw ones, but drift of the machine does not.
"""

import time

REFERENCE_S = 0.0025  # nominal time of one loop; the scale of every reported time


def reference_loop():
    """Seconds one run of the fixed loop takes now.  It allocates, hashes
    and fills a dict as altcox's Python code does, so memory contention
    slows it as it slows the requests."""
    t = time.perf_counter()
    s, d = 0, {}
    for i in range(8000):
        k = str(i)
        d[k] = (i, k)
        s += len(k) + i * i % 7
    return time.perf_counter() - t
