"""Search over extended state-space representations.

A representation lists the states known up front together with initial and
goal predicates and families of successor functions. The engine seeds all
known states as one breadth-first frontier, tracks per-known-state distance
vectors, and succeeds as soon as the stored subgraph connects an initial
known state to a goal. A classical single-source BFS baseline, an n-queens
problem definition, and a benchmark CLI (``bench``) round the package out.
"""

from .engine import (INF, NodeDatabase, NodeStatus, Outcome, SearchLimits,
                     SearchNode, SearchResult, SearchStats, TraceRecord, bfs,
                     ebfs, expand, f_update, goal_condition,
                     reconstruct_path, seed, select)
from .errors import (ClassificationError, ConfigError, ModelError,
                     ProblemDefinitionError, SearchInvariantError,
                     StateParseError)
from .model import (BACKWARD, FORWARD, ClassificationReport, Edge,
                    EssmRepresentation, FiniteSpace, OpRef, Path,
                    SingleStateSolution, classify, make_classical,
                    validate_path)
from .nqueens import (KnownState, KnownStateSpec, NQueensState, empty_board,
                      enumerate_space, enumerate_states, false_heuristic_state,
                      first_solution, format_state, nqueens_rep,
                      on_solution_state, parse_state)

__version__ = "0.1.0"

__all__ = [
    "BACKWARD", "FORWARD", "INF",
    "ClassificationError", "ClassificationReport", "ConfigError", "Edge",
    "EssmRepresentation", "FiniteSpace", "KnownState", "KnownStateSpec",
    "ModelError", "NQueensState", "NodeDatabase", "NodeStatus", "OpRef",
    "Outcome", "Path", "ProblemDefinitionError", "SearchInvariantError",
    "SearchLimits", "SearchNode", "SearchResult", "SearchStats",
    "SingleStateSolution", "StateParseError", "TraceRecord",
    "bfs", "classify", "ebfs", "empty_board", "enumerate_space",
    "enumerate_states", "expand", "f_update", "false_heuristic_state",
    "first_solution", "format_state", "goal_condition", "make_classical",
    "nqueens_rep", "on_solution_state", "parse_state",
    "reconstruct_path", "seed", "select", "validate_path",
]
