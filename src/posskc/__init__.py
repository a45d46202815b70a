"""posskc: conditional-possibility queries on min-based possibilistic
networks through knowledge compilation.

Three pipelines answer Pi(x|e) on the same network: possibilistic
circuits over an indicator/parameter encoding, logical compilation with
condition/forget/evaluate, and compilation of an equivalent possibilistic
knowledge base, each queried by max-min passes over its compiled DAG.  A
brute-force chain-rule oracle serves as ground truth, and a benchmark
harness compares encoding sizes across the pipelines.
"""

from .bench import (
    METHODS,
    GenConfig,
    Pipeline,
    compare_network,
    cross_validate,
    random_network,
    run_comparison,
)
from .circuits import PfPipeline, encode_pf, indicator_weights
from .cnf import CnfFormula, cnf_stats, parse_dimacs, to_dimacs
from .compiler import DEFAULT_NODE_BUDGET, compile_cnf
from .degrees import SCALE, Degree, ONE, ZERO, complement, min_condition, parse_degree
from .errors import (
    CompileBudgetError,
    DegreeError,
    FormatError,
    NetworkValidationError,
    PosskcError,
    QueryError,
    SizeGuardError,
)
from .logical import LogicalPipeline, encode_logical
from .network import (
    Conditional,
    PossNetwork,
    chain_rule_joint,
    conditional,
    conflicts,
    enumerate_worlds,
    oracle_conditional,
    oracle_possibility,
    parse_network,
    serialize_network,
)
from .nnf import (
    NnfDag,
    condition,
    entails_clause,
    forget,
    is_consistent,
    nnf_stats,
    parse_nnf,
    pi_evaluate,
    smooth,
    structural_properties,
    write_nnf,
)
from .pkb import (
    PkbPipeline,
    PossibilisticBase,
    encode_pkb,
    pi_sigma,
    serialize_base,
    to_possibilistic_base,
)

__version__ = "0.1.0"
