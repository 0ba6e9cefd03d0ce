"""Cache-aided private information retrieval with unknown uncoded prefetching.

Exact-rational download-cost bounds, explicit GF(2) query-plan construction
with memory-sharing, seeded end-to-end retrieval simulation, and
privacy/decodability/cost audits.

The package exports exactly the `__all__` of `bounds`, `scheme`, `protocol`
and `audit`: each module's list is the one statement of its public names.
"""

from . import audit, bounds, protocol, scheme
from .bounds import *  # noqa: F401,F403
from .scheme import *  # noqa: F401,F403
from .protocol import *  # noqa: F401,F403
from .audit import *  # noqa: F401,F403

__all__ = [*bounds.__all__, *scheme.__all__, *protocol.__all__, *audit.__all__]

__version__ = "0.1.0"
