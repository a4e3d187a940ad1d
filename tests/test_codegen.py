"""What remains of the retired scalar codegen scheduler.

The scheduler, its emitter and its artifact cache are gone; only the
inert ``repro.codegen.stats`` counters stay for the per-layer benchmark
attribution.  This module pins that the scheduler registry refuses
unknown names, the retired ``codegen`` one included.
"""

import pytest

from repro.kernels import get_kernel

from tests.test_fast_forward import _machine


def _build(name="daxpy", n=24, latency=8, depth=4, banks=8, seed=0):
    kernel, inputs = get_kernel(name).instantiate(n, seed)
    return _machine(kernel, inputs, latency, depth, banks)


class TestRegistry:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            _build().run(scheduler="jit")
        with pytest.raises(ValueError, match="unknown scheduler"):
            _build().run(scheduler="codegen")
