"""Extreme Khovanov cohomology from the Lando graph.

The pipeline: a link diagram (PD code) resolves to its all-A state, whose
admissible chords form the Lando graph; the independence complex of that
graph computes the extreme-quantum-grading row of Khovanov cohomology, a
claim the package keeps honest by recomputing the same row from the
enhanced-state cochain complex and, on a third route, from the Alexander
dual of a Jonsson complex.
"""

from .diagram import Diagram, ResolvedState, State, parse_pd, pd_hash
from .errors import (
    ArcLabelNotPairedTwice,
    CapExceeded,
    ClaspFailed,
    DiagramError,
    DifferentDiagram,
    EmptyDiagram,
    EmptyPartW,
    ExkhError,
    InconsistentOrientation,
    MalformedTuple,
    NonPlanarDiagram,
    NotAComplex,
    NotBipartition,
    SameComponent,
)
from .extreme import (
    ExtremeRow,
    extreme_jmax,
    extreme_row,
    extreme_via_brute,
    extreme_via_dual,
    extreme_via_lando,
    krs_criterion,
    lando_cohomology,
    s_min_states,
    y_complex,
)
from .families import (
    CatalogEntry,
    binomial_row,
    catalog_diagram,
    from_chord_diagram,
    join_power_table,
    knotify,
    load_catalog,
    random_diagrams,
    reorient_for_negative_count,
    split_union,
    thick_family,
    validate_catalog_entry,
)
from .khovanov import (
    CohomologyTable,
    EnhancedState,
    LaurentPoly,
    adjacent,
    enumerate_enhanced,
    graded_jones,
    j_bounds,
    jones,
    kauffman_bracket,
    khovanov_cohomology,
    khovanov_complex,
    scanned_j_range,
    state_i,
    state_j,
)
from .lando import (
    Graph,
    build_lando,
    complete_bipartite_graph,
    cycle_graph,
    find_isomorphism,
    independence_number,
    is_complete_bipartite,
    isomorphic,
    path_graph,
    two_hexagons_shared_vertex,
)
from .simplicial import (
    AbelianGroup,
    ChainComplex,
    SimplicialComplex,
    alexander_dual,
    bipartite_from_complex,
    coboundary_complex,
    cohomology,
    cohomology_of,
    homology,
    independence_complex,
    join,
    join_homology,
    jonsson_complex,
    parse_ring,
    smith_normal_form,
    suspension,
    tensor_group,
    tor_group,
)

__version__ = "0.1.0"
