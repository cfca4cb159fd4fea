"""Bit-level values that more than one test module asserts, each in one place.

They hold where OpenBLAS picks its SkylakeX kernel; another kernel sums the
weighted stages in another order and moves them.
"""

#: accepted steps of ``paper_exponential`` at ``delta=1e-12``, otherwise the
#: default ``ControllerConfig``
LONG_RUN_STEPS = 10438
