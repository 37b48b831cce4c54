"""The step clock: one perf_counter reading per training step.

It wraps ``net.optimizer_step``, which both training loops call exactly once
per step, and reads the clock when the wrapped call returns.  It is the only
instrumentation in the runs that give end-to-end metrics.
"""

import time


class StepClock:
    def __init__(self, net_module):
        self._net = net_module
        self._original = None
        self.readings = []

    def __enter__(self):
        original = self._original = self._net.optimizer_step
        readings = self.readings
        clock = time.perf_counter

        def timed_step(*args, **kwargs):
            out = original(*args, **kwargs)
            readings.append(clock())
            return out

        self._net.optimizer_step = timed_step
        return self

    def __exit__(self, *exc):
        self._net.optimizer_step = self._original
        return False
