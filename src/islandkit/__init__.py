"""islandkit: islands and enclaves in sparse graphs, separator-based
shattering, clustered coloring, bootstrap percolation, and
path-decomposition surgery with verified island-or-minor extraction."""

__version__ = "0.1.0"

from .graphs import Graph, parse_graph, write_graph  # noqa: F401
from .islands import SparseIslandParams, find_island_sparse, is_island  # noqa: F401
from .percolation import duality_check, percolate, t_percolates  # noqa: F401
from .separators import shatter  # noqa: F401
