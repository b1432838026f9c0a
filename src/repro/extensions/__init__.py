"""Extensions of the core scheme (paper Section VII).

* :mod:`repro.extensions.online` — progressive (online) aggregation that
  keeps refining the answer using the stored region moments (VII-A).
* :mod:`repro.extensions.noniid` — per-block boundaries and variance-weighted
  sampling rates for non-i.i.d. blocks (VII-C).
* :mod:`repro.extensions.extreme` — leverage-guided MIN/MAX aggregation
  (VII-D, sketched in the paper as work in progress).
* :mod:`repro.extensions.time_constraint` — execute within a wall-clock
  budget by sizing the sample from a calibration run (VII-F).

The distributed deployment of VII-E (per-block partial answers combined by
a coordinator) is not an extension: every :class:`~repro.core.isla.ISLAAggregator`
scan runs that way (``ISLAAggregator(parallelism=4)``).
"""

from repro.extensions.online import OnlineAggregator, OnlineState
from repro.extensions.noniid import NonIIDAggregator
from repro.extensions.extreme import ExtremeValueAggregator, ExtremeResult
from repro.extensions.time_constraint import TimeConstrainedAggregator

__all__ = [
    "OnlineAggregator",
    "OnlineState",
    "NonIIDAggregator",
    "ExtremeValueAggregator",
    "ExtremeResult",
    "TimeConstrainedAggregator",
]
