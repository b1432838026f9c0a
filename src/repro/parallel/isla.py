"""The partition-parallel ISLA names, kept for existing imports.

The partition pipeline is :class:`~repro.core.isla.ISLAAggregator` itself:
every ISLA query runs pre-estimation on the caller's thread and each block
as a partition task of the scan pool.  ``PartitionParallelAggregator`` is
that same class object (an alias, not a subclass), so code that resolves
``PartitionParallelAggregator.aggregate_avg`` and
``ISLAAggregator.aggregate_avg`` reaches one function.
"""

from repro.core.isla import ISLAAggregator
from repro.core.summarization import combine_block_results

__all__ = ["PartitionParallelAggregator", "combine_block_results"]

PartitionParallelAggregator = ISLAAggregator
