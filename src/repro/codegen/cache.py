"""Inert counters left by the retired scalar codegen scheduler.

Exists only for ``perfbench/layers.py``, which still reads
``stats.compiles`` and ``stats.hits`` into its ``codegen.*`` counters.
Nothing increments them.  Delete this package when a benchmark change
drops those two counters.
"""

from types import SimpleNamespace

stats = SimpleNamespace(compiles=0, hits=0)
