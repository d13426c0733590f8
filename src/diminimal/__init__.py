"""Exact eigenvalue location and minimum distinct eigenvalue realization
for symmetric matrices whose graph is a tree."""

from .trees import (
    Family,
    FamilyTag,
    RootedTree,
    build_tree,
    diameter,
    duplicate_branch,
    join,
    main_roots,
    recognize_family,
    reroot,
    seed,
    tree_from_json,
    tree_to_json,
)
from .matrices import (
    WeightedTreeMatrix,
    delete_vertex,
    format_rational,
    make_matrix,
    matrix_from_json,
    matrix_to_dot,
    matrix_to_json,
    parse_rational,
    trace,
)
from .locate import (
    CountsAt,
    DiagOutcome,
    IsolatedInterval,
    count_in_interval,
    counts_at,
    counts_within,
    diagonalize,
    find_parter_vertex,
    is_parter,
    isolate_eigenvalues,
    multiplicity,
)
from .oracle import (
    AgreementReport,
    FloatSpectrum,
    OracleError,
    compare_counts,
    dense_eigenvalues,
    to_dense_float,
)
from .realize import (
    AssemblyRecord,
    Ladder,
    RealizationCertificate,
    Variant,
    ladder,
    realize_family,
    realize_integral,
    realize_variant,
    verify_certificate,
)

__version__ = "0.1.0"
